// Tests of the one online-dealing path at the public API level: a
// cluster's passes, which all deal through the pipelined source, must be
// bit-identical to on-demand dealing, and must collapse the owner-bound
// traffic the pipeline exists to remove.
package trustddl_test

import (
	"context"
	"testing"
	"time"

	trustddl "github.com/trustddl/trustddl"
	"github.com/trustddl/trustddl/internal/core"
	"github.com/trustddl/trustddl/internal/fixed"
	"github.com/trustddl/trustddl/internal/nn"
	"github.com/trustddl/trustddl/internal/party"
	"github.com/trustddl/trustddl/internal/protocol"
	"github.com/trustddl/trustddl/internal/sharing"
	"github.com/trustddl/trustddl/internal/transport"
)

// onDemandSource hides nn.OwnerSource from a served party's pass setup,
// so every pass deals its triples one owner round trip per request
// instead of through the pipelined source: the reference the one
// online-dealing path must match.
type onDemandSource struct{ nn.OwnerSource }

// onlineCluster builds an honest-but-curious online-dealing cluster.
// Its computing parties are the cluster's own, dealing through the
// pipelined source, unless onDemand is set: then they are served over
// the cluster's network and deal on demand. Both kinds get the same
// generous receive timer: an open round that times out flags and
// zero-fills the late peer, which changes the outputs, so a scheduling
// stall on a loaded machine must not read as a fault on one side only.
func onlineCluster(t *testing.T, seed uint64, onDemand bool) *trustddl.Cluster {
	t.Helper()
	cfg := trustddl.Config{
		Mode:    trustddl.HonestButCurious,
		Triples: trustddl.OnlineDealing,
		Seed:    seed,
		Timeout: 60 * time.Second,
	}
	if !onDemand {
		cluster, err := trustddl.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = cluster.Close() })
		return cluster
	}
	netw := transport.NewChanNetwork()
	t.Cleanup(func() { _ = netw.Close() })
	done := make(chan error, sharing.NumParties)
	var ctxs []*protocol.Ctx
	for i := 1; i <= sharing.NumParties; i++ {
		ep, err := netw.Endpoint(i)
		if err != nil {
			t.Fatal(err)
		}
		ctx, err := protocol.NewCtx(party.NewRouter(ep, 60*time.Second), i, fixed.Default(), false)
		if err != nil {
			t.Fatal(err)
		}
		ctxs = append(ctxs, ctx)
		go func() { done <- core.ServeParty(ctx, onDemandSource{nn.OwnerSource{Ctx: ctx}}, core.ServeOptions{}) }()
	}
	t.Cleanup(func() {
		for _, ctx := range ctxs {
			_ = ctx.Router.Send(ctx.Index, "", core.StepShutdown, nil)
		}
		for range ctxs {
			select {
			case err := <-done:
				if err != nil {
					t.Errorf("served party: %v", err)
				}
			case <-time.After(5 * time.Second):
				t.Error("served party did not stop")
				return
			}
		}
	})
	cfg.Net, cfg.RemoteParties = netw, true
	cluster, err := trustddl.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cluster.Close() })
	return cluster
}

// sameOutcome fails unless two sessions predicted the same labels and
// ended with bit-identical weights.
func sameOutcome(t *testing.T, wsOn, wsPf []nn.Mat64, labelsOn, labelsPf []int) {
	t.Helper()
	if len(labelsOn) != len(labelsPf) {
		t.Fatalf("label counts differ: on-demand %d, pipelined %d", len(labelsOn), len(labelsPf))
	}
	for i := range labelsOn {
		if labelsOn[i] != labelsPf[i] {
			t.Fatalf("image %d: on-demand predicted %d, pipelined %d", i, labelsOn[i], labelsPf[i])
		}
	}
	if len(wsOn) != len(wsPf) {
		t.Fatalf("weight counts differ: on-demand %d, pipelined %d", len(wsOn), len(wsPf))
	}
	for wi := range wsOn {
		a, b := wsOn[wi], wsPf[wi]
		if a.Rows != b.Rows || a.Cols != b.Cols {
			t.Fatalf("weight %d shape differs: %dx%d vs %dx%d", wi, a.Rows, a.Cols, b.Rows, b.Cols)
		}
		for i := range a.Data {
			if a.Data[i] != b.Data[i] {
				t.Fatalf("weight %d element %d: on-demand %v, pipelined %v (outputs must be bit-identical)",
					wi, i, a.Data[i], b.Data[i])
			}
		}
	}
}

// prefetchRun trains one batch and infers two images, returning the
// trained weights and predicted labels.
func prefetchRun(t *testing.T, onDemand bool) ([]nn.Mat64, []int) {
	t.Helper()
	cluster := onlineCluster(t, 11, onDemand)
	w, err := trustddl.InitPaperWeights(11)
	if err != nil {
		t.Fatal(err)
	}
	run, err := cluster.NewRun(w)
	if err != nil {
		t.Fatal(err)
	}
	ds := trustddl.SyntheticDataset(11, 4)
	if err := run.TrainBatch(ds.Images[:2], 0.1); err != nil {
		t.Fatal(err)
	}
	var labels []int
	for _, img := range ds.Images[2:] {
		label, err := run.Infer(img)
		if err != nil {
			t.Fatal(err)
		}
		labels = append(labels, label)
	}
	weights, err := run.WeightMatrices()
	if err != nil {
		t.Fatal(err)
	}
	return weights, labels
}

// TestPrefetchEquivalence pins the core property of Beaver-triple
// cancellation: which round trips deliver a step's correlated
// randomness never reaches the opened values, so the pipelined path
// (the training plan spans several segments) and on-demand dealing
// must produce bit-identical weights and predictions.
func TestPrefetchEquivalence(t *testing.T) {
	wsOn, labelsOn := prefetchRun(t, true)
	wsPf, labelsPf := prefetchRun(t, false)
	sameOutcome(t, wsOn, wsPf, labelsOn, labelsPf)
}

// TestPrefetchCollapsesOwnerTraffic asserts the meter-level win: a warm
// pass sends the model owner its 7-request plan in two segments per
// party, at most 6 messages, instead of one message per plan entry.
func TestPrefetchCollapsesOwnerTraffic(t *testing.T) {
	ownerMsgs := func(onDemand bool) int64 {
		cluster := onlineCluster(t, 12, onDemand)
		w, err := trustddl.InitPaperWeights(12)
		if err != nil {
			t.Fatal(err)
		}
		run, err := cluster.NewRun(w)
		if err != nil {
			t.Fatal(err)
		}
		img := trustddl.SyntheticDataset(12, 1).Images[0]
		if _, err := run.Infer(img); err != nil { // warm-up outside the meter
			t.Fatal(err)
		}
		cluster.ResetStats()
		if _, err := run.Infer(img); err != nil {
			t.Fatal(err)
		}
		return cluster.Stats().PerActor[trustddl.ModelOwner].RecvMessages
	}
	onDemand, pipelined := ownerMsgs(true), ownerMsgs(false)
	t.Logf("owner-bound messages per warm pass: on-demand %d, pipelined %d", onDemand, pipelined)
	if pipelined > 6 {
		t.Fatalf("pipelined inference sent the owner %d messages, want ≤ 6 (2 per party)", pipelined)
	}
	if onDemand <= pipelined {
		t.Fatalf("on-demand owner traffic (%d) not above pipelined (%d); the meter assertion is vacuous", onDemand, pipelined)
	}
}

// mixedBatchRun drives a session whose batch size changes between
// steps — the shape every serving deployment produces under dynamic
// batching — and returns the final weights plus all predicted labels.
func mixedBatchRun(t *testing.T, onDemand bool) ([]nn.Mat64, []int) {
	t.Helper()
	cluster := onlineCluster(t, 29, onDemand)
	w, err := trustddl.InitPaperWeights(29)
	if err != nil {
		t.Fatal(err)
	}
	run, err := cluster.NewRun(w)
	if err != nil {
		t.Fatal(err)
	}
	ds := trustddl.SyntheticDataset(29, 10)
	var labels []int
	step := func(op func() ([]int, error)) {
		t.Helper()
		got, err := op()
		if err != nil {
			t.Fatal(err)
		}
		labels = append(labels, got...)
	}
	// Train and infer with four different batch sizes, interleaved, so
	// every step's triple plan has different shapes than its neighbors'.
	if err := run.TrainBatch(ds.Images[:2], 0.1); err != nil {
		t.Fatal(err)
	}
	step(func() ([]int, error) { return run.InferBatch(context.Background(), ds.Images[2:5]) })
	if err := run.TrainBatch(ds.Images[5:6], 0.1); err != nil {
		t.Fatal(err)
	}
	step(func() ([]int, error) { return run.InferBatch(context.Background(), ds.Images[6:10]) })
	step(func() ([]int, error) {
		label, err := run.Infer(ds.Images[0])
		return []int{label}, err
	})
	weights, err := run.WeightMatrices()
	if err != nil {
		t.Fatal(err)
	}
	return weights, labels
}

// TestBatchedPrefetchStableAcrossBatchSizes is the prefetch pinning for
// batched plans: when the batch size varies mid-session, the pipelined
// triple stream must stay bit-identical to on-demand dealing — one
// step's plan segments must not bleed into the next step's dealing
// order.
func TestBatchedPrefetchStableAcrossBatchSizes(t *testing.T) {
	wsOn, labelsOn := mixedBatchRun(t, true)
	wsPf, labelsPf := mixedBatchRun(t, false)
	sameOutcome(t, wsOn, wsPf, labelsOn, labelsPf)
}
