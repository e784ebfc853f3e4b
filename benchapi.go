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
