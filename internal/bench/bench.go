// Package bench regenerates the paper's evaluation artifacts: the
// framework comparison of Table II (runtime and communication cost for
// single-image training and inference across SecureNN, Falcon, SafeML
// and TrustDDL) and the accuracy-per-epoch curves of Fig. 2 (CML vs
// TrustDDL).
package bench

import (
	"fmt"
	"strings"
	"time"

	"github.com/trustddl/trustddl/internal/baselines"
	"github.com/trustddl/trustddl/internal/core"
	"github.com/trustddl/trustddl/internal/mnist"
	"github.com/trustddl/trustddl/internal/nn"
	"github.com/trustddl/trustddl/internal/obs"
	"github.com/trustddl/trustddl/internal/tensor"
)

// Table2Row is one line of the Table II reproduction.
type Table2Row struct {
	Framework string
	Model     string // adversary model column
	Task      string // "Training" | "Inference"
	TimeSec   float64
	// CommMB is the sent volume (the paper's "Comm. (MB)" column).
	CommMB float64
	// RecvMB is the received volume. On the single-process transports
	// used here it mirrors CommMB; in a multi-process deployment each
	// process reports its own directions, so the split shows where the
	// traffic actually lands.
	RecvMB float64
	// SteadySec and SteadyMB, on inference rows, price a repeat pass on
	// unchanged weights. The paper's experiment — TimeSec and CommMB —
	// is the first pass after the weights were dealt, which runs the
	// whole protocol; TrustDDL opens a weight's mask once per weight
	// epoch, so its later passes cost less. For the baselines every
	// pass is the same pass.
	SteadySec float64
	SteadyMB  float64
}

// Table2Config parameterizes the Table II reproduction.
type Table2Config struct {
	// Iterations averages each measurement over this many single-image
	// operations (default 3).
	Iterations int
	// Seed drives all randomness.
	Seed uint64
	// Frameworks filters by framework name (empty = all six rows).
	Frameworks []string
}

// frameworkFactory builds one Table II system under test.
type frameworkFactory struct {
	name  string
	build func(seed uint64) (baselines.Framework, error)
}

func factories() []frameworkFactory {
	return []frameworkFactory{
		{name: "SecureNN", build: func(seed uint64) (baselines.Framework, error) {
			return baselines.NewSecureNN(seed)
		}},
		{name: "Falcon", build: func(seed uint64) (baselines.Framework, error) {
			return baselines.NewFalcon(seed, false)
		}},
		{name: "Falcon-Malicious", build: func(seed uint64) (baselines.Framework, error) {
			return baselines.NewFalcon(seed, true)
		}},
		{name: "SafeML", build: func(seed uint64) (baselines.Framework, error) {
			return baselines.NewSafeML(seed)
		}},
		{name: "TrustDDL", build: func(seed uint64) (baselines.Framework, error) {
			return baselines.NewTrustDDL(seed, core.HonestButCurious)
		}},
		{name: "TrustDDL-Malicious", build: func(seed uint64) (baselines.Framework, error) {
			return baselines.NewTrustDDL(seed, core.Malicious)
		}},
	}
}

// Table2 measures every framework row: single-image training iteration
// and single-image inference, wall time and exchanged megabytes, as in
// the paper's microbenchmarks (§IV-A: batch size 1).
func Table2(cfg Table2Config) ([]Table2Row, error) {
	if cfg.Iterations <= 0 {
		cfg.Iterations = 3
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	weights, err := nn.InitPaperWeights(cfg.Seed)
	if err != nil {
		return nil, err
	}
	images := mnist.Synthetic(cfg.Seed, cfg.Iterations).Images

	wanted := func(name string) bool {
		if len(cfg.Frameworks) == 0 {
			return true
		}
		for _, f := range cfg.Frameworks {
			if strings.EqualFold(f, name) || strings.EqualFold(f, strings.TrimSuffix(name, "-Malicious")) {
				return true
			}
		}
		return false
	}

	var rows []Table2Row
	for _, fac := range factories() {
		if !wanted(fac.name) {
			continue
		}
		fw, err := fac.build(cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("bench: build %s: %w", fac.name, err)
		}
		trainRow, inferRow, err := measureFramework(fw, weights, images, cfg.Iterations)
		closeErr := fw.Close()
		if err != nil {
			return nil, fmt.Errorf("bench: measure %s: %w", fac.name, err)
		}
		if closeErr != nil {
			return nil, fmt.Errorf("bench: close %s: %w", fac.name, closeErr)
		}
		rows = append(rows, trainRow, inferRow)
	}
	// Paper order: all training rows first, then all inference rows.
	ordered := make([]Table2Row, 0, len(rows))
	for _, task := range []string{"Training", "Inference"} {
		for _, r := range rows {
			if r.Task == task {
				ordered = append(ordered, r)
			}
		}
	}
	return ordered, nil
}

func measureFramework(fw baselines.Framework, w nn.PaperWeights, images []mnist.Image, iters int) (train, infer Table2Row, err error) {
	if err = fw.Setup(w); err != nil {
		return train, infer, err
	}
	// Warm-up op outside the measurement.
	if _, err = fw.Infer(images[0]); err != nil {
		return train, infer, err
	}

	fw.ResetStats()
	start := time.Now()
	for i := 0; i < iters; i++ {
		if err = fw.TrainStep(images[i%len(images)], 0.05); err != nil {
			return train, infer, err
		}
	}
	trainTime := time.Since(start).Seconds() / float64(iters)
	trainStats := fw.Stats()
	trainMB := trainStats.MegaBytes() / float64(iters)
	trainRecvMB := trainStats.RecvMegaBytes() / float64(iters)

	// The paper's inference row is the protocol's full cost, every
	// mask opened in the pass: the first pass after the weights are
	// dealt. So each measured pass gets freshly dealt weights, with the
	// dealing outside the measurement.
	base := Table2Row{Framework: fw.Name(), Model: fw.AdversaryModel()}
	train, infer = base, base
	train.Task, train.TimeSec, train.CommMB, train.RecvMB = "Training", trainTime, trainMB, trainRecvMB
	infer.Task = "Inference"
	for i := 0; i < iters; i++ {
		if err = fw.Setup(w); err != nil {
			return train, infer, err
		}
		fw.ResetStats()
		start = time.Now()
		if _, err = fw.Infer(images[i%len(images)]); err != nil {
			return train, infer, err
		}
		infer.TimeSec += time.Since(start).Seconds() / float64(iters)
		st := fw.Stats()
		infer.CommMB += st.MegaBytes() / float64(iters)
		infer.RecvMB += st.RecvMegaBytes() / float64(iters)
	}

	// Steady state: the passes that follow on the same weights.
	fw.ResetStats()
	start = time.Now()
	for i := 0; i < iters; i++ {
		if _, err = fw.Infer(images[i%len(images)]); err != nil {
			return train, infer, err
		}
	}
	infer.SteadySec = time.Since(start).Seconds() / float64(iters)
	infer.SteadyMB = fw.Stats().MegaBytes() / float64(iters)
	return train, infer, nil
}

// FormatTable2 renders rows in the paper's layout, with the byte
// meter's per-direction split appended ("Comm. (MB)" is the sent
// volume, as in the paper; "Recv (MB)" mirrors it on single-process
// transports) and, on inference rows, the steady-state cost of a
// repeat pass on unchanged weights.
func FormatTable2(rows []Table2Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-20s %-10s %12s %12s %12s %12s %12s\n", "Framework", "Model", "Task", "Time (s)", "Comm. (MB)", "Recv (MB)", "Steady (s)", "Steady (MB)")
	fmt.Fprintln(&b, strings.Repeat("-", 109))
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %-20s %-10s %12.4f %12.4f %12.4f", r.Framework, r.Model, r.Task, r.TimeSec, r.CommMB, r.RecvMB)
		if r.Task == "Inference" {
			fmt.Fprintf(&b, " %12.4f %12.4f", r.SteadySec, r.SteadyMB)
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// Fig2Config parameterizes the accuracy experiment. The paper trains
// five epochs over 60 000 images; the defaults scale this down to
// laptop time while preserving the claim under test (secure fixed-point
// training tracks plaintext training).
type Fig2Config struct {
	Epochs    int
	TrainN    int
	TestN     int
	Batch     int
	LR        float64
	Seed      uint64
	DataDir   string // when it holds MNIST IDX files, real data is used
	EvalLimit int
	// OnEpoch, when non-nil, observes progress per engine and epoch.
	OnEpoch func(engine string, epoch int, acc float64)
	// Obs, when non-nil, receives the secure engine's live metrics
	// (protocol phases, transport volume, per-layer timings).
	Obs *obs.Registry
}

// Fig2Point is one x-position of the reproduction of Fig. 2.
type Fig2Point struct {
	Epoch    int
	CML      float64
	TrustDDL float64
}

// Fig2Result carries the curves plus workload provenance.
type Fig2Result struct {
	Points   []Fig2Point
	RealData bool
	// Weights are the secure-trained weight matrices, revealed to the
	// model owner after the last epoch: the model whose accuracy the
	// TrustDDL curve ends on.
	Weights []nn.Mat64
}

// Fig2 trains the Table I network from identical initial weights with
// the plaintext CML engine and with TrustDDL (malicious mode), and
// reports test accuracy per epoch for both.
func Fig2(cfg Fig2Config) (Fig2Result, error) {
	if cfg.Epochs <= 0 {
		cfg.Epochs = 5
	}
	if cfg.TrainN <= 0 {
		cfg.TrainN = 300
	}
	if cfg.TestN <= 0 {
		cfg.TestN = 100
	}
	if cfg.Batch <= 0 {
		cfg.Batch = 10
	}
	if cfg.LR <= 0 {
		cfg.LR = 0.1
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	train, test, real := mnist.Load(cfg.DataDir, cfg.TrainN, cfg.TestN, cfg.Seed)
	weights, err := nn.InitPaperWeights(cfg.Seed)
	if err != nil {
		return Fig2Result{}, err
	}

	// CML: centralized plaintext model learning.
	cml, err := nn.NewPlainPaperNet(weights)
	if err != nil {
		return Fig2Result{}, err
	}
	cmlAcc := make([]float64, cfg.Epochs)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		for at := 0; at < train.Len(); at += cfg.Batch {
			end := at + cfg.Batch
			if end > train.Len() {
				end = train.Len()
			}
			x, labels, err := plainBatch(train.Images[at:end])
			if err != nil {
				return Fig2Result{}, err
			}
			if _, err := cml.TrainBatch(x, labels, cfg.LR); err != nil {
				return Fig2Result{}, err
			}
		}
		acc, err := plainAccuracy(cml, test, cfg.EvalLimit)
		if err != nil {
			return Fig2Result{}, err
		}
		cmlAcc[epoch] = acc
		if cfg.OnEpoch != nil {
			cfg.OnEpoch("CML", epoch+1, acc)
		}
	}

	// TrustDDL: secure training on the same data and initial weights.
	cluster, err := core.New(core.Config{
		Mode:    core.Malicious,
		Triples: core.OfflinePrecomputed, // dealing strategy does not affect accuracy
		Seed:    cfg.Seed,
		Obs:     cfg.Obs,
	})
	if err != nil {
		return Fig2Result{}, err
	}
	defer cluster.Close()
	results, run, err := cluster.Train(weights, train, test, core.TrainConfig{
		Epochs:    cfg.Epochs,
		Batch:     cfg.Batch,
		LR:        cfg.LR,
		EvalLimit: cfg.EvalLimit,
		OnEpoch: func(epoch int, acc float64) {
			if cfg.OnEpoch != nil {
				cfg.OnEpoch("TrustDDL", epoch, acc)
			}
		},
	})
	if err != nil {
		return Fig2Result{}, err
	}
	trained, err := run.WeightMatrices()
	if err != nil {
		return Fig2Result{}, err
	}

	points := make([]Fig2Point, cfg.Epochs)
	for i := 0; i < cfg.Epochs; i++ {
		points[i] = Fig2Point{Epoch: i + 1, CML: cmlAcc[i], TrustDDL: results[i].Accuracy}
	}
	return Fig2Result{Points: points, RealData: real, Weights: trained}, nil
}

// FormatFig2 renders the accuracy table corresponding to Fig. 2.
func FormatFig2(res Fig2Result) string {
	var b strings.Builder
	source := "synthetic MNIST-like data"
	if res.RealData {
		source = "MNIST"
	}
	fmt.Fprintf(&b, "Model accuracy per epoch (%s)\n", source)
	fmt.Fprintf(&b, "%-8s %12s %12s\n", "Epoch", "CML", "TrustDDL")
	fmt.Fprintln(&b, strings.Repeat("-", 34))
	for _, p := range res.Points {
		fmt.Fprintf(&b, "%-8d %11.2f%% %11.2f%%\n", p.Epoch, 100*p.CML, 100*p.TrustDDL)
	}
	return b.String()
}

func plainBatch(images []mnist.Image) (nn.Mat64, []int, error) {
	x := tensor.MustNew[float64](len(images), mnist.NumPixels)
	labels := make([]int, len(images))
	for i, img := range images {
		copy(x.Data[i*mnist.NumPixels:(i+1)*mnist.NumPixels], img.Pixels[:])
		labels[i] = img.Label
	}
	return x, labels, nil
}

func plainAccuracy(net *nn.Network, ds mnist.Dataset, limit int) (float64, error) {
	n := ds.Len()
	if limit > 0 && limit < n {
		n = limit
	}
	if n == 0 {
		return 0, fmt.Errorf("bench: empty test set")
	}
	const batch = 64
	correct := 0
	for at := 0; at < n; at += batch {
		end := at + batch
		if end > n {
			end = n
		}
		x, labels, err := plainBatch(ds.Images[at:end])
		if err != nil {
			return 0, err
		}
		preds, err := net.Predict(x)
		if err != nil {
			return 0, err
		}
		for i, p := range preds {
			if p == labels[i] {
				correct++
			}
		}
	}
	return float64(correct) / float64(n), nil
}
