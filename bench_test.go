// Benchmarks regenerating the paper's evaluation (run with
// `go test -bench=. -benchmem`):
//
//   - BenchmarkTable2_* — one benchmark per Table II row (framework ×
//     adversary model × task). The "MB/op" metric is the communication
//     cost column; ns/op is the runtime column. Inference rows price a
//     pass on freshly dealt weights — the paper's experiment, in which
//     every mask is opened; the ablation and scaling benchmarks below
//     run in steady state, where TrustDDL's weight masks are already
//     open (EXPERIMENTS.md gives both).
//   - BenchmarkFig2_* — the unit of work behind each Fig. 2 data point
//     (one secure training epoch and one accuracy evaluation).
//   - BenchmarkAblation_* — the design-choice ablations called out in
//     DESIGN.md §6 (commitment on/off, redundancy on/off, triple
//     dealing online/offline, transport chan/TCP).
package trustddl_test

import (
	"testing"
	"time"

	trustddl "github.com/trustddl/trustddl"
	"github.com/trustddl/trustddl/internal/baselines"
	"github.com/trustddl/trustddl/internal/core"
	"github.com/trustddl/trustddl/internal/mnist"
	"github.com/trustddl/trustddl/internal/nn"
)

// benchFramework runs one Table II measurement as a Go benchmark.
func benchFramework(b *testing.B, build func() (baselines.Framework, error), task string) {
	b.Helper()
	fw, err := build()
	if err != nil {
		b.Fatal(err)
	}
	defer fw.Close()
	w, err := nn.InitPaperWeights(1)
	if err != nil {
		b.Fatal(err)
	}
	if err := fw.Setup(w); err != nil {
		b.Fatal(err)
	}
	img := mnist.Synthetic(1, 1).Images[0]
	if _, err := fw.Infer(img); err != nil { // warm-up
		b.Fatal(err)
	}
	var opBytes int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if task == "infer" {
			b.StopTimer()
			if err := fw.Setup(w); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		before := fw.Stats().Bytes
		switch task {
		case "train":
			if err := fw.TrainStep(img, 0.05); err != nil {
				b.Fatal(err)
			}
		case "infer":
			if _, err := fw.Infer(img); err != nil {
				b.Fatal(err)
			}
		}
		opBytes += fw.Stats().Bytes - before
	}
	b.StopTimer()
	b.ReportMetric(float64(opBytes)/(1<<20)/float64(b.N), "MB/op")
}

func BenchmarkTable2_SecureNN_HbC_Training(b *testing.B) {
	benchFramework(b, func() (baselines.Framework, error) { return baselines.NewSecureNN(1) }, "train")
}

func BenchmarkTable2_SecureNN_HbC_Inference(b *testing.B) {
	benchFramework(b, func() (baselines.Framework, error) { return baselines.NewSecureNN(1) }, "infer")
}

func BenchmarkTable2_Falcon_HbC_Training(b *testing.B) {
	benchFramework(b, func() (baselines.Framework, error) { return baselines.NewFalcon(1, false) }, "train")
}

func BenchmarkTable2_Falcon_HbC_Inference(b *testing.B) {
	benchFramework(b, func() (baselines.Framework, error) { return baselines.NewFalcon(1, false) }, "infer")
}

func BenchmarkTable2_Falcon_Malicious_Training(b *testing.B) {
	benchFramework(b, func() (baselines.Framework, error) { return baselines.NewFalcon(1, true) }, "train")
}

func BenchmarkTable2_Falcon_Malicious_Inference(b *testing.B) {
	benchFramework(b, func() (baselines.Framework, error) { return baselines.NewFalcon(1, true) }, "infer")
}

func BenchmarkTable2_SafeML_CrashFault_Training(b *testing.B) {
	benchFramework(b, func() (baselines.Framework, error) { return baselines.NewSafeML(1) }, "train")
}

func BenchmarkTable2_SafeML_CrashFault_Inference(b *testing.B) {
	benchFramework(b, func() (baselines.Framework, error) { return baselines.NewSafeML(1) }, "infer")
}

func BenchmarkTable2_TrustDDL_HbC_Training(b *testing.B) {
	benchFramework(b, func() (baselines.Framework, error) {
		return baselines.NewTrustDDL(1, core.HonestButCurious)
	}, "train")
}

func BenchmarkTable2_TrustDDL_HbC_Inference(b *testing.B) {
	benchFramework(b, func() (baselines.Framework, error) {
		return baselines.NewTrustDDL(1, core.HonestButCurious)
	}, "infer")
}

func BenchmarkTable2_TrustDDL_Malicious_Training(b *testing.B) {
	benchFramework(b, func() (baselines.Framework, error) {
		return baselines.NewTrustDDL(1, core.Malicious)
	}, "train")
}

func BenchmarkTable2_TrustDDL_Malicious_Inference(b *testing.B) {
	benchFramework(b, func() (baselines.Framework, error) {
		return baselines.NewTrustDDL(1, core.Malicious)
	}, "infer")
}

// fig2Cluster builds a deterministic malicious-mode cluster with a
// distributed Table I model for the Fig. 2 unit-of-work benches.
func fig2Cluster(b *testing.B, triples trustddl.TripleMode) (*trustddl.Cluster, *trustddl.Run) {
	b.Helper()
	cluster, err := trustddl.New(trustddl.Config{Mode: trustddl.Malicious, Triples: triples, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = cluster.Close() })
	w, err := trustddl.InitPaperWeights(2)
	if err != nil {
		b.Fatal(err)
	}
	run, err := cluster.NewRun(w)
	if err != nil {
		b.Fatal(err)
	}
	return cluster, run
}

// BenchmarkFig2_SecureTrainingEpoch measures one epoch of secure
// training over a 32-image set (the repeated unit behind each Fig. 2
// x-position, scaled for benchmarking).
func BenchmarkFig2_SecureTrainingEpoch(b *testing.B) {
	cluster, run := fig2Cluster(b, trustddl.OfflinePrecomputed)
	train := trustddl.SyntheticDataset(3, 32)
	cluster.ResetStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for at := 0; at < train.Len(); at += 8 {
			if err := run.TrainBatch(train.Images[at:at+8], 0.1); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(cluster.Stats().MegaBytes()/float64(b.N), "MB/op")
}

// BenchmarkFig2_SecureAccuracyEvaluation measures the per-epoch test
// accuracy pass over 32 images through the secure inference path.
func BenchmarkFig2_SecureAccuracyEvaluation(b *testing.B) {
	_, run := fig2Cluster(b, trustddl.OfflinePrecomputed)
	test := trustddl.SyntheticDataset(4, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := run.Evaluate(test, 32, 16); err != nil {
			b.Fatal(err)
		}
	}
}

// benchInference measures single-image inference on a cluster config.
func benchInference(b *testing.B, cfg trustddl.Config) {
	b.Helper()
	cfg.Seed = 5
	cluster, err := trustddl.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer cluster.Close()
	w, err := trustddl.InitPaperWeights(5)
	if err != nil {
		b.Fatal(err)
	}
	run, err := cluster.NewRun(w)
	if err != nil {
		b.Fatal(err)
	}
	img := trustddl.SyntheticDataset(5, 1).Images[0]
	if _, err := run.Infer(img); err != nil {
		b.Fatal(err)
	}
	cluster.ResetStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := run.Infer(img); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(cluster.Stats().MegaBytes()/float64(b.N), "MB/op")
}

// Ablation: cost of the commitment phase (DESIGN.md §6).
func BenchmarkAblation_CommitmentOn(b *testing.B) {
	benchInference(b, trustddl.Config{Mode: trustddl.Malicious})
}

func BenchmarkAblation_CommitmentOff(b *testing.B) {
	benchInference(b, trustddl.Config{Mode: trustddl.HonestButCurious})
}

// Ablation: online triple dealing vs offline precomputation.
func BenchmarkAblation_TriplesOnline(b *testing.B) {
	benchInference(b, trustddl.Config{Mode: trustddl.Malicious, Triples: trustddl.OnlineDealing})
}

func BenchmarkAblation_TriplesOffline(b *testing.B) {
	benchInference(b, trustddl.Config{Mode: trustddl.Malicious, Triples: trustddl.OfflinePrecomputed})
}

// Ablation: in-process channels vs TCP loopback framing.
func BenchmarkAblation_TransportChan(b *testing.B) {
	benchInference(b, trustddl.Config{Mode: trustddl.Malicious})
}

func BenchmarkAblation_TransportTCP(b *testing.B) {
	netw, err := trustddl.NewLoopbackTCPNetwork()
	if err != nil {
		b.Fatal(err)
	}
	defer netw.Close()
	benchInference(b, trustddl.Config{Mode: trustddl.Malicious, Net: netw})
}

// Ablation: six-way redundant reconstruction (BT protocols) vs the
// plain HbC 2-of-2 pipeline — the cost of Byzantine recovery itself.
// SecureNN is exactly the non-redundant pipeline over the same
// workload, so the pair quantifies the redundancy overhead.
func BenchmarkAblation_RedundancyOn(b *testing.B) {
	benchFramework(b, func() (baselines.Framework, error) {
		return baselines.NewTrustDDL(1, core.HonestButCurious)
	}, "infer")
}

func BenchmarkAblation_RedundancyOff(b *testing.B) {
	benchFramework(b, func() (baselines.Framework, error) { return baselines.NewSecureNN(1) }, "infer")
}

// Ablation: simulated WAN latency. The paper's testbed is a LAN; this
// replays the Table II inference microbenchmark under a 5 ms one-way
// delay to expose the protocols' round complexity.
func BenchmarkAblation_WANLatency5ms(b *testing.B) {
	base := trustddl.NewChanNetwork()
	defer base.Close()
	benchInference(b, trustddl.Config{
		Mode: trustddl.Malicious,
		Net:  trustddl.WithLatency(base, 5*time.Millisecond),
	})
}

// benchBatchInference measures a batched secure forward pass,
// reporting per-image communication (the amortization the paper's
// single-image microbenchmarks deliberately exclude).
func benchBatchInference(b *testing.B, batch int) {
	cluster, run := fig2Cluster(b, trustddl.OnlineDealing)
	test := trustddl.SyntheticDataset(6, batch)
	if _, err := run.Evaluate(test, batch, batch); err != nil {
		b.Fatal(err)
	}
	cluster.ResetStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := run.Evaluate(test, batch, batch); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	perImage := cluster.Stats().MegaBytes() / float64(b.N) / float64(batch)
	b.ReportMetric(perImage, "MB/image")
}

// Scaling: batched inference amortizes the fixed per-round costs
// (commitments, openings, softmax delegation) and the weight-sized
// triple components over the batch.
func BenchmarkScaling_Batch1(b *testing.B)  { benchBatchInference(b, 1) }
func BenchmarkScaling_Batch8(b *testing.B)  { benchBatchInference(b, 8) }
func BenchmarkScaling_Batch32(b *testing.B) { benchBatchInference(b, 32) }
