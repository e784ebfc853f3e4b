package bench

import (
	"fmt"
	"strings"

	"github.com/trustddl/trustddl/internal/core"
	"github.com/trustddl/trustddl/internal/fixed"
	"github.com/trustddl/trustddl/internal/mnist"
	"github.com/trustddl/trustddl/internal/nn"
)

// Precision sweep — the ablation behind the paper's §IV-B remark that
// 20 fractional bits minimize accuracy loss: train the same model
// securely under several fixed-point precisions and compare final test
// accuracy against the float64 baseline.

// PrecisionConfig parameterizes the sweep.
type PrecisionConfig struct {
	// FracBits lists the precisions to sweep (default {8, 13, 16, 20}).
	FracBits []uint
	// Epochs, TrainN, TestN, Batch, LR follow Fig2Config semantics but
	// default to a smaller workload (the sweep trains once per setting).
	Epochs int
	TrainN int
	TestN  int
	Batch  int
	LR     float64
	Seed   uint64
	// OnPoint, when non-nil, observes each completed setting.
	OnPoint func(fracBits uint, accuracy float64)
}

// PrecisionPoint is one sweep measurement.
type PrecisionPoint struct {
	// FracBits is the precision (0 denotes the float64 CML baseline).
	FracBits uint
	Accuracy float64
}

// PrecisionSweep trains the Table I network once per precision setting
// (secure, malicious mode) plus once in plaintext, from identical
// initial weights and data order, and reports final test accuracy.
func PrecisionSweep(cfg PrecisionConfig) ([]PrecisionPoint, error) {
	if len(cfg.FracBits) == 0 {
		cfg.FracBits = []uint{8, 13, 16, 20}
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 2
	}
	if cfg.TrainN <= 0 {
		cfg.TrainN = 120
	}
	if cfg.TestN <= 0 {
		cfg.TestN = 60
	}
	if cfg.Batch <= 0 {
		cfg.Batch = 10
	}
	if cfg.LR <= 0 {
		cfg.LR = 0.2
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	train, test, _ := mnist.Load("", cfg.TrainN, cfg.TestN, cfg.Seed)
	weights, err := nn.InitPaperWeights(cfg.Seed)
	if err != nil {
		return nil, err
	}

	var out []PrecisionPoint

	// Float64 baseline.
	cml, err := nn.NewPlainPaperNet(weights)
	if err != nil {
		return nil, err
	}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		for at := 0; at < train.Len(); at += cfg.Batch {
			end := at + cfg.Batch
			if end > train.Len() {
				end = train.Len()
			}
			x, labels, err := plainBatch(train.Images[at:end])
			if err != nil {
				return nil, err
			}
			if _, err := cml.TrainBatch(x, labels, cfg.LR); err != nil {
				return nil, err
			}
		}
	}
	acc, err := plainAccuracy(cml, test, 0)
	if err != nil {
		return nil, err
	}
	out = append(out, PrecisionPoint{FracBits: 0, Accuracy: acc})
	if cfg.OnPoint != nil {
		cfg.OnPoint(0, acc)
	}

	for _, f := range cfg.FracBits {
		params, err := fixed.NewParams(f)
		if err != nil {
			return nil, fmt.Errorf("bench: precision %d: %w", f, err)
		}
		cluster, err := core.New(core.Config{
			Mode:    core.Malicious,
			Triples: core.OfflinePrecomputed,
			Params:  params,
			Seed:    cfg.Seed,
		})
		if err != nil {
			return nil, err
		}
		results, _, err := cluster.Train(weights, train, test, core.TrainConfig{
			Epochs: cfg.Epochs,
			Batch:  cfg.Batch,
			LR:     cfg.LR,
		})
		closeErr := cluster.Close()
		if err != nil {
			return nil, fmt.Errorf("bench: precision %d: %w", f, err)
		}
		if closeErr != nil {
			return nil, closeErr
		}
		acc := results[len(results)-1].Accuracy
		out = append(out, PrecisionPoint{FracBits: f, Accuracy: acc})
		if cfg.OnPoint != nil {
			cfg.OnPoint(f, acc)
		}
	}
	return out, nil
}

// FormatPrecision renders the sweep as a table.
func FormatPrecision(points []PrecisionPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %12s\n", "Fixed-point precision", "Accuracy")
	fmt.Fprintln(&b, strings.Repeat("-", 36))
	for _, p := range points {
		label := fmt.Sprintf("F = %d bits", p.FracBits)
		if p.FracBits == 0 {
			label = "float64 (CML)"
		}
		fmt.Fprintf(&b, "%-22s %11.2f%%\n", label, 100*p.Accuracy)
	}
	return b.String()
}
