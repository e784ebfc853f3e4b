package trustddl

import "github.com/trustddl/trustddl/internal/bench"

// Evaluation harness: regenerates the paper's Table II and Fig. 2 (see
// EXPERIMENTS.md for measured-vs-paper).

// Table2Config parameterizes the Table II reproduction.
type Table2Config = bench.Table2Config

// Table2Row is one line of the Table II reproduction.
type Table2Row = bench.Table2Row

// Table2 measures runtime and communication for single-image training
// and inference across SecureNN, Falcon (HbC + malicious), SafeML and
// TrustDDL (HbC + malicious).
func Table2(cfg Table2Config) ([]Table2Row, error) { return bench.Table2(cfg) }

// FormatTable2 renders rows in the paper's layout.
func FormatTable2(rows []Table2Row) string { return bench.FormatTable2(rows) }

// Fig2Config parameterizes the accuracy-per-epoch experiment.
type Fig2Config = bench.Fig2Config

// Fig2Point is one epoch of the Fig. 2 reproduction.
type Fig2Point = bench.Fig2Point

// Fig2Result carries the CML and TrustDDL accuracy curves.
type Fig2Result = bench.Fig2Result

// Fig2 trains the Table I network with the plaintext CML engine and
// with TrustDDL from identical initial weights and reports per-epoch
// test accuracy for both.
func Fig2(cfg Fig2Config) (Fig2Result, error) { return bench.Fig2(cfg) }

// FormatFig2 renders the accuracy table corresponding to Fig. 2.
func FormatFig2(res Fig2Result) string { return bench.FormatFig2(res) }

// ServeConfig parameterizes the serving measurement: the Table I
// network behind the trustddl-serve gateway, measured once per
// dynamic-batch limit.
type ServeConfig = bench.ServeConfig

// ServeRow is one measured gateway batch limit.
type ServeRow = bench.ServeRow

// ServeBench measures how the inference gateway's dynamic batching
// amortizes protocol rounds: owner-bound messages per image, engine
// latency per image, and end-to-end percentiles under concurrent load.
func ServeBench(cfg ServeConfig) ([]ServeRow, error) { return bench.Serve(cfg) }

// WriteServeJSON persists a ServeBench measurement (BENCH_serve.json).
func WriteServeJSON(path string, cfg ServeConfig, rows []ServeRow) error {
	return bench.WriteServeJSON(path, cfg, rows)
}

// FormatServe renders a ServeBench measurement as a table.
func FormatServe(rows []ServeRow) string { return bench.FormatServe(rows) }

// ObsConfig parameterizes the observability benchmark: the secure
// single-image workload with a live metrics registry attached, compared
// against the identical uninstrumented run.
type ObsConfig = bench.ObsConfig

// ObsResult is the observability benchmark report.
type ObsResult = bench.ObsResult

// ObsPhase is one latency histogram digest inside an ObsResult.
type ObsPhase = bench.ObsPhase

// MeasureObs runs the observability benchmark and reports the metrics
// snapshot, per-phase latency digest and instrumentation overhead.
func MeasureObs(cfg ObsConfig) (ObsResult, error) { return bench.MeasureObs(cfg) }

// WriteObsJSON persists an observability report (BENCH_obs.json).
func WriteObsJSON(path string, res ObsResult) error { return bench.WriteObsJSON(path, res) }

// FormatObs renders an observability report as a table.
func FormatObs(res ObsResult) string { return bench.FormatObs(res) }

// HotpathConfig parameterizes the hot-path before/after measurement:
// buffer pools, bulk wire codec and the fused im2col+matmul kernel,
// each measured with the optimizations off and on.
type HotpathConfig = bench.HotpathConfig

// HotpathCell is one measured (benchmark, variant) cell.
type HotpathCell = bench.HotpathCell

// Hotpath measures the secure-step hot path (batched inference over
// loopback TCP) and its extracted kernels, before and after the
// allocation work: ns/op, B/op and allocs/op per cell.
func Hotpath(cfg HotpathConfig) ([]HotpathCell, error) { return bench.Hotpath(cfg) }

// WriteHotpathJSON persists a Hotpath measurement (BENCH_hotpath.json).
func WriteHotpathJSON(path string, cfg HotpathConfig, cells []HotpathCell) error {
	return bench.WriteHotpathJSON(path, cfg, cells)
}

// FormatHotpath renders a Hotpath measurement as a before/after table.
func FormatHotpath(cells []HotpathCell) string { return bench.FormatHotpath(cells) }

// ScaleConfig parameterizes the committee scale-out measurement:
// sharded epoch wall time and multi-engine gateway throughput over a
// latency-injected transport, plus final accuracy with and without a
// fully poisoned committee, per committee count.
type ScaleConfig = bench.ScaleConfig

// ScaleRow is one measured (committee count, poisoned?) cell.
type ScaleRow = bench.ScaleRow

// ScaleBench measures what committee sharding buys (epoch speedup,
// serving throughput) and what a fully compromised committee costs
// (conviction, re-route, accuracy under robust aggregation).
func ScaleBench(cfg ScaleConfig) ([]ScaleRow, error) { return bench.Scale(cfg) }

// WriteScaleJSON persists a ScaleBench measurement (BENCH_scale.json).
func WriteScaleJSON(path string, cfg ScaleConfig, rows []ScaleRow) error {
	return bench.WriteScaleJSON(path, cfg, rows)
}

// FormatScale renders a ScaleBench measurement as a table.
func FormatScale(rows []ScaleRow) string { return bench.FormatScale(rows) }

// PrecisionConfig parameterizes the fixed-point precision sweep (the
// ablation behind the paper's §IV-B choice of 20 fractional bits).
type PrecisionConfig = bench.PrecisionConfig

// PrecisionPoint is one sweep measurement (FracBits 0 = float64
// baseline).
type PrecisionPoint = bench.PrecisionPoint

// PrecisionSweep trains the Table I network securely under several
// fixed-point precisions and reports final test accuracy per setting.
func PrecisionSweep(cfg PrecisionConfig) ([]PrecisionPoint, error) { return bench.PrecisionSweep(cfg) }

// FormatPrecision renders the sweep as a table.
func FormatPrecision(points []PrecisionPoint) string { return bench.FormatPrecision(points) }

// ResilienceConfig parameterizes the chaos-driven availability
// measurement: phased load at a committee-sharded gateway while fault
// windows (stall, crash, Byzantine) open on one committee.
type ResilienceConfig = bench.ResilienceConfig

// ResilienceResult is the chaos measurement report.
type ResilienceResult = bench.ResilienceResult

// ResilienceRow is one measured fault window.
type ResilienceRow = bench.ResilienceRow

// ResiliencePhase is one before/during/after load slice.
type ResiliencePhase = bench.ResiliencePhase

// ResilienceBench measures serving availability around chaos fault
// windows: per-phase exactly-once load accounting, retry/probe counter
// deltas and recovery time.
func ResilienceBench(cfg ResilienceConfig) (ResilienceResult, error) { return bench.Resilience(cfg) }

// WriteResilienceJSON persists a ResilienceBench measurement
// (BENCH_resilience.json).
func WriteResilienceJSON(path string, res ResilienceResult) error {
	return bench.WriteResilienceJSON(path, res)
}

// FormatResilience renders a ResilienceBench measurement as a table.
func FormatResilience(res ResilienceResult) string { return bench.FormatResilience(res) }
