package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"github.com/trustddl/trustddl/internal/core"
	"github.com/trustddl/trustddl/internal/mnist"
	"github.com/trustddl/trustddl/internal/nn"
	"github.com/trustddl/trustddl/internal/obs"
	"github.com/trustddl/trustddl/internal/tensor"
)

// ObsConfig parameterizes the observability benchmark: one secure
// training step plus one secure inference with a live metrics registry
// attached, compared against the identical run without one.
type ObsConfig struct {
	// Iterations averages each measurement over this many single-image
	// operations (default 3).
	Iterations int
	// Seed drives all randomness.
	Seed uint64
	// Mode selects the adversary model (zero value = Malicious, the
	// instrumented hot path with the most phases).
	Mode core.Mode
	// Parallelism sets the tensor-kernel worker count
	// (0 = process-wide setting).
	Parallelism int
	// Registry, when non-nil, is the registry the instrumented cluster
	// reports into (so a -metrics-addr listener can watch the benchmark
	// live). Nil creates a private one.
	Registry *obs.Registry
}

// ObsPhase is one latency histogram flattened for the report.
type ObsPhase struct {
	Name        string  `json:"name"`
	Count       int64   `json:"count"`
	MeanMicros  float64 `json:"mean_micros"`
	P50Micros   float64 `json:"p50_micros"`
	P99Micros   float64 `json:"p99_micros"`
	TotalMillis float64 `json:"total_millis"`
}

// ObsResult is the observability benchmark report: the full metrics
// snapshot of the instrumented run, the per-phase latency digest, and
// the overhead of instrumentation against the uninstrumented baseline.
type ObsResult struct {
	// Snapshot is the instrumented cluster's full registry state after
	// the measured operations.
	Snapshot obs.Snapshot `json:"snapshot"`
	// Phases digests every histogram in the snapshot (protocol phases,
	// per-layer nn timings, end-to-end batch/inference).
	Phases []ObsPhase `json:"phases"`

	// TrainSec/InferSec are per-operation wall times with obs attached;
	// the Baseline pair is the same measurement without a registry.
	TrainSec         float64 `json:"train_sec"`
	InferSec         float64 `json:"infer_sec"`
	BaselineTrainSec float64 `json:"baseline_train_sec"`
	BaselineInferSec float64 `json:"baseline_infer_sec"`
	// TrainOverheadPct/InferOverheadPct are the relative slowdowns in
	// percent (negative = instrumented run happened to be faster).
	TrainOverheadPct float64 `json:"train_overhead_pct"`
	InferOverheadPct float64 `json:"infer_overhead_pct"`

	// SentMB/RecvMB are the instrumented run's transport totals as seen
	// by the registry (bit-identical to the transport meter).
	SentMB float64 `json:"sent_mb"`
	RecvMB float64 `json:"recv_mb"`
}

// MeasureObs runs the observability benchmark: an uninstrumented
// baseline cluster and an instrumented one execute the same
// single-image training and inference workload, and the report pairs
// the instrumented run's metrics snapshot with the timing delta.
func MeasureObs(cfg ObsConfig) (ObsResult, error) {
	if cfg.Parallelism > 0 {
		tensor.SetParallelism(cfg.Parallelism)
	}
	if cfg.Iterations <= 0 {
		cfg.Iterations = 3
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Mode == 0 {
		cfg.Mode = core.Malicious
	}
	weights, err := nn.InitPaperWeights(cfg.Seed)
	if err != nil {
		return ObsResult{}, err
	}
	images := mnist.Synthetic(cfg.Seed, cfg.Iterations).Images

	baseTrain, baseInfer, _, _, err := measureObsCluster(cfg, weights, images, nil)
	if err != nil {
		return ObsResult{}, fmt.Errorf("bench: obs baseline: %w", err)
	}

	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry("bench")
	}
	train, infer, stats, snap, err := measureObsCluster(cfg, weights, images, reg)
	if err != nil {
		return ObsResult{}, fmt.Errorf("bench: obs instrumented: %w", err)
	}
	res := ObsResult{
		Snapshot:         snap,
		Phases:           digestPhases(snap),
		TrainSec:         train,
		InferSec:         infer,
		BaselineTrainSec: baseTrain,
		BaselineInferSec: baseInfer,
		TrainOverheadPct: 100 * (train - baseTrain) / baseTrain,
		InferOverheadPct: 100 * (infer - baseInfer) / baseInfer,
		SentMB:           float64(snap.Counters["transport.sent.bytes"]) / (1 << 20),
		RecvMB:           float64(snap.Counters["transport.recv.bytes"]) / (1 << 20),
	}
	// The registry mirrors the transport meter bit for bit; a drift here
	// means an instrumentation bug, which the report should not hide.
	if snap.Counters["transport.sent.bytes"] != stats.SentBytes {
		return res, fmt.Errorf("bench: obs sent bytes %d != transport meter %d",
			snap.Counters["transport.sent.bytes"], stats.SentBytes)
	}
	return res, nil
}

// measureObsCluster times the single-image workload on one cluster,
// instrumented when reg is non-nil. The registry snapshot is captured
// together with the meter stats, before the cluster's own shutdown
// traffic (which only one of the two views would still see) flows.
func measureObsCluster(cfg ObsConfig, weights nn.PaperWeights, images []mnist.Image, reg *obs.Registry) (trainSec, inferSec float64, stats struct{ SentBytes, RecvBytes int64 }, snap obs.Snapshot, err error) {
	cluster, err := core.New(core.Config{Mode: cfg.Mode, Seed: cfg.Seed, Obs: reg})
	if err != nil {
		return 0, 0, stats, snap, err
	}
	defer cluster.Close()
	run, err := cluster.NewRun(weights)
	if err != nil {
		return 0, 0, stats, snap, err
	}
	// Warm-up op outside the measurement.
	if _, err := run.Infer(images[0]); err != nil {
		return 0, 0, stats, snap, err
	}

	start := time.Now()
	for i := 0; i < cfg.Iterations; i++ {
		if err := run.TrainBatch([]mnist.Image{images[i%len(images)]}, 0.05); err != nil {
			return 0, 0, stats, snap, err
		}
	}
	trainSec = time.Since(start).Seconds() / float64(cfg.Iterations)

	start = time.Now()
	for i := 0; i < cfg.Iterations; i++ {
		if _, err := run.Infer(images[i%len(images)]); err != nil {
			return 0, 0, stats, snap, err
		}
	}
	inferSec = time.Since(start).Seconds() / float64(cfg.Iterations)

	s := cluster.Stats()
	stats.SentBytes, stats.RecvBytes = s.Bytes, s.RecvBytes
	snap = reg.Snapshot()
	return trainSec, inferSec, stats, snap, nil
}

// digestPhases flattens every histogram in the snapshot, sorted by
// name, micro-second means and quantiles for human consumption.
func digestPhases(snap obs.Snapshot) []ObsPhase {
	names := make([]string, 0, len(snap.Histograms))
	for name := range snap.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	phases := make([]ObsPhase, 0, len(names))
	for _, name := range names {
		h := snap.Histograms[name]
		phases = append(phases, ObsPhase{
			Name:        name,
			Count:       h.Count,
			MeanMicros:  float64(h.MeanNanos()) / 1e3,
			P50Micros:   float64(h.Quantile(0.5)) / 1e3,
			P99Micros:   float64(h.Quantile(0.99)) / 1e3,
			TotalMillis: float64(h.SumNanos) / 1e6,
		})
	}
	return phases
}

// WriteObsJSON persists the observability report (BENCH_obs.json).
func WriteObsJSON(path string, res ObsResult) error {
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// FormatObs renders the observability report for terminals.
func FormatObs(res ObsResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Observability benchmark (secure single-image ops, %s)\n", "Table I network")
	fmt.Fprintf(&b, "  training:  %.4fs instrumented vs %.4fs baseline (%+.2f%%)\n",
		res.TrainSec, res.BaselineTrainSec, res.TrainOverheadPct)
	fmt.Fprintf(&b, "  inference: %.4fs instrumented vs %.4fs baseline (%+.2f%%)\n",
		res.InferSec, res.BaselineInferSec, res.InferOverheadPct)
	fmt.Fprintf(&b, "  transport: %.2f MB sent, %.2f MB received\n\n", res.SentMB, res.RecvMB)
	fmt.Fprintf(&b, "%-28s %10s %12s %12s %12s %12s\n", "Phase", "Count", "Mean (µs)", "P50 (µs)", "P99 (µs)", "Total (ms)")
	fmt.Fprintln(&b, strings.Repeat("-", 92))
	for _, p := range res.Phases {
		fmt.Fprintf(&b, "%-28s %10d %12.1f %12.1f %12.1f %12.2f\n",
			p.Name, p.Count, p.MeanMicros, p.P50Micros, p.P99Micros, p.TotalMillis)
	}
	return b.String()
}
