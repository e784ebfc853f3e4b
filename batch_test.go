// Cluster-level tests of the batched secure engine: a batch-N pass
// through the full deployment (data owner sharing, three parties,
// model-owner dealing and reveal) must agree with N sequential
// single-image passes, stay deterministic across identical
// deployments, and survive a consistent liar.
package trustddl_test

import (
	"context"
	"math"
	"testing"

	trustddl "github.com/trustddl/trustddl"
)

// batchCluster builds a fresh malicious-mode cluster with Table I
// weights and fixed seeds. Identical calls build bit-identical
// deployments: every random draw (weights, share randomness, triples)
// comes from the seeds.
func batchCluster(t *testing.T, adversaries map[int]trustddl.Adversary) *trustddl.Run {
	t.Helper()
	cluster, err := trustddl.New(trustddl.Config{
		Mode:        trustddl.Malicious,
		Seed:        23,
		Adversaries: adversaries,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cluster.Close() })
	w, err := trustddl.InitPaperWeights(23)
	if err != nil {
		t.Fatal(err)
	}
	run, err := cluster.NewRun(w)
	if err != nil {
		t.Fatal(err)
	}
	return run
}

// logitEnvelopeUlps bounds how far a batched logit may sit from its
// single-image counterpart when the two passes consume *independent*
// correlated randomness: every truncating protocol step contributes
// ±1–2 carry ulps that then propagate through the remaining layers.
// (Bit-identity when the single-image passes replay row slices of the
// batch pass's randomness is pinned separately in internal/nn.)
const logitEnvelopeUlps = 256

// batchSizes is the acceptance grid of the batched engine.
var batchSizes = []int{1, 3, 8, 32}

// TestBatchInferMatchesSequential runs the full grid: batched labels
// must equal the per-image labels, and every batched logit must sit
// within the carry envelope of its sequential counterpart.
func TestBatchInferMatchesSequential(t *testing.T) {
	run := batchCluster(t, nil)
	ds := trustddl.SyntheticDataset(23, 32)
	for _, n := range batchSizes {
		images := ds.Images[:n]
		batchLabels, err := run.InferBatch(context.Background(), images)
		if err != nil {
			t.Fatal(err)
		}
		batchLogits, err := run.LogitsBatch(images)
		if err != nil {
			t.Fatal(err)
		}
		if len(batchLabels) != n || batchLogits.Rows != n {
			t.Fatalf("batch %d: %d labels, %d logit rows", n, len(batchLabels), batchLogits.Rows)
		}
		for r, img := range images {
			label, err := run.Infer(img)
			if err != nil {
				t.Fatal(err)
			}
			if batchLabels[r] != label {
				t.Fatalf("batch %d image %d: batched label %d, sequential %d", n, r, batchLabels[r], label)
			}
			single, err := run.LogitsBatch(images[r : r+1])
			if err != nil {
				t.Fatal(err)
			}
			for c := 0; c < batchLogits.Cols; c++ {
				d := math.Abs(float64(batchLogits.At(r, c) - single.At(0, c)))
				if d > logitEnvelopeUlps {
					t.Fatalf("batch %d image %d logit %d: batched %d vs sequential %d (|Δ|=%g ulps, envelope %d)",
						n, r, c, batchLogits.At(r, c), single.At(0, c), d, logitEnvelopeUlps)
				}
			}
		}
	}
}

// TestBatchInferDeterministic pins that the batched pass is a pure
// function of the seeds: two identical deployments reveal bit-identical
// batch logits.
func TestBatchInferDeterministic(t *testing.T) {
	ds := trustddl.SyntheticDataset(23, 8)
	a := batchCluster(t, nil)
	la, err := a.LogitsBatch(ds.Images)
	if err != nil {
		t.Fatal(err)
	}
	b := batchCluster(t, nil)
	lb, err := b.LogitsBatch(ds.Images)
	if err != nil {
		t.Fatal(err)
	}
	for i := range la.Data {
		if la.Data[i] != lb.Data[i] {
			t.Fatalf("logit element %d: %d vs %d across identical deployments", i, la.Data[i], lb.Data[i])
		}
	}
}

// TestBatchInferUnderConsistentLiar reruns the batched pass on a
// deployment whose party 1 corrupts every share it commits to (Case 3,
// the adversary invisible to the hash check): the decision rule must
// discard the liar, keeping every label and leaving each revealed
// logit within the truncation-carry slack of the honest deployment's.
// (Exact bit-identity across the two deployments is not the contract:
// the corruption excludes the canonical reconstruction pair, and the
// next honest candidate may differ by a carry ulp.)
func TestBatchInferUnderConsistentLiar(t *testing.T) {
	ds := trustddl.SyntheticDataset(23, 8)
	honest := batchCluster(t, nil)
	want, err := honest.LogitsBatch(ds.Images)
	if err != nil {
		t.Fatal(err)
	}
	wantLabels, err := honest.InferBatch(context.Background(), ds.Images)
	if err != nil {
		t.Fatal(err)
	}
	byz := batchCluster(t, map[int]trustddl.Adversary{1: trustddl.ConsistentLiar{}})
	got, err := byz.LogitsBatch(ds.Images)
	if err != nil {
		t.Fatal(err)
	}
	gotLabels, err := byz.InferBatch(context.Background(), ds.Images)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Data {
		if d := math.Abs(float64(got.Data[i] - want.Data[i])); d > 2 {
			t.Fatalf("logit element %d: %d under liar vs %d honest (|Δ|=%g exceeds the carry slack; the decision rule must discard the liar)",
				i, got.Data[i], want.Data[i], d)
		}
	}
	for i := range wantLabels {
		if gotLabels[i] != wantLabels[i] {
			t.Fatalf("image %d: label %d under liar vs %d honest", i, gotLabels[i], wantLabels[i])
		}
	}
}
