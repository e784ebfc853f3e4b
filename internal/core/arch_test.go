package core

import (
	"testing"
	"time"

	"github.com/trustddl/trustddl/internal/mnist"
	"github.com/trustddl/trustddl/internal/nn"
	"github.com/trustddl/trustddl/internal/tensor"
	"github.com/trustddl/trustddl/internal/transport"
)

func smallArch() nn.Arch {
	return nn.Arch{
		nn.DenseSpec(mnist.NumPixels, 16),
		nn.ReLUSpec(),
		nn.DenseSpec(16, mnist.NumClasses),
	}
}

func TestNewRunArchInferMatchesPlain(t *testing.T) {
	c := newTestCluster(t, Config{Mode: Malicious, Triples: OfflinePrecomputed})
	arch := smallArch()
	weights, err := arch.InitWeights(31)
	if err != nil {
		t.Fatal(err)
	}
	run, err := c.NewRunArch(arch, weights)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := arch.BuildPlain(weights)
	if err != nil {
		t.Fatal(err)
	}
	for i, img := range mnist.Synthetic(33, 4).Images {
		got, err := run.Infer(img)
		if err != nil {
			t.Fatal(err)
		}
		x := tensor.MustNew[float64](1, mnist.NumPixels)
		copy(x.Data, img.Pixels[:])
		want, err := plain.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		if got != want[0] {
			t.Fatalf("image %d: secure %d, plaintext %d", i, got, want[0])
		}
	}
	if got := run.Arch().NumWeightMatrices(); got != 2 {
		t.Fatalf("arch reports %d weight matrices", got)
	}
}

func TestNewRunArchTrainingAndWeightRecovery(t *testing.T) {
	c := newTestCluster(t, Config{Mode: Malicious, Triples: OfflinePrecomputed})
	arch := smallArch()
	weights, err := arch.InitWeights(35)
	if err != nil {
		t.Fatal(err)
	}
	run, err := c.NewRunArch(arch, weights)
	if err != nil {
		t.Fatal(err)
	}
	imgs := mnist.Synthetic(37, 4).Images
	if err := run.TrainBatch(imgs, 0.1); err != nil {
		t.Fatal(err)
	}
	trained, err := run.WeightMatrices()
	if err != nil {
		t.Fatal(err)
	}
	if len(trained) != 2 {
		t.Fatalf("%d trained matrices", len(trained))
	}
	if trained[0].Equal(weights[0]) {
		t.Fatal("training did not change the first layer")
	}
	// The Table I convenience accessor must refuse a non-paper arch.
	if _, err := run.Weights(); err == nil {
		t.Fatal("Weights() accepted a 2-matrix architecture")
	}
}

func TestNewRunArchValidation(t *testing.T) {
	c := newTestCluster(t, Config{Mode: Malicious})
	arch := smallArch()
	weights, err := arch.InitWeights(39)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.NewRunArch(arch, weights[:1]); err == nil {
		t.Fatal("missing weights accepted")
	}
	badOut := nn.Arch{nn.DenseSpec(mnist.NumPixels, 7)}
	badWeights, err := badOut.InitWeights(39)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.NewRunArch(badOut, badWeights); err == nil {
		t.Fatal("7-class architecture accepted for a 10-class workload")
	}
	wrongShape := append([]nn.Mat64{weights[0].Clone()}, weights[1:]...)
	wrongShape[0].Cols--
	wrongShape[0].Data = wrongShape[0].Data[:wrongShape[0].Rows*wrongShape[0].Cols]
	if _, err := c.NewRunArch(arch, wrongShape); err == nil {
		t.Fatal("weights of the wrong shape accepted")
	}
	if _, err := c.provision(arch, weights, weights[:1], 0.9); err == nil {
		t.Fatal("velocities for fewer weight matrices accepted")
	}
	// The refusals reached no party: the cluster still serves a run.
	run, err := c.NewRunArch(arch, weights)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run.Infer(mnist.Synthetic(39, 1).Images[0]); err != nil {
		t.Fatal(err)
	}
}

func TestServedPartiesCustomArch(t *testing.T) {
	netw := transport.NewChanNetwork()
	startServedParties(t, netw, true)
	c, err := New(Config{Mode: Malicious, Seed: 41, Net: netw, Timeout: 60 * time.Second, RemoteParties: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := c.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
		_ = netw.Close()
	})
	arch := smallArch()
	weights, err := arch.InitWeights(41)
	if err != nil {
		t.Fatal(err)
	}
	run, err := c.NewRunArch(arch, weights)
	if err != nil {
		t.Fatal(err)
	}
	img := mnist.Synthetic(43, 1).Images[0]
	got, err := run.Infer(img)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := arch.BuildPlain(weights)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.MustNew[float64](1, mnist.NumPixels)
	copy(x.Data, img.Pixels[:])
	want, err := plain.Predict(x)
	if err != nil {
		t.Fatal(err)
	}
	if got != want[0] {
		t.Fatalf("served custom-arch inference %d, plaintext %d", got, want[0])
	}
	// Weight recovery over served parties (the reveal command path).
	trained, err := run.WeightMatrices()
	if err != nil {
		t.Fatal(err)
	}
	if len(trained) != 2 {
		t.Fatalf("%d recovered matrices", len(trained))
	}
}

func TestTrainWithMomentum(t *testing.T) {
	c := newTestCluster(t, Config{Mode: Malicious, Triples: OfflinePrecomputed})
	train, test, _ := mnist.Load(t.TempDir(), 30, 20, 19)
	results, run, err := c.Train(paperWeights(t), train, test, TrainConfig{
		Epochs:   1,
		Batch:    10,
		LR:       0.1,
		Momentum: 0.9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || run == nil {
		t.Fatalf("results %v", results)
	}
	// And the plaintext engine with the same momentum must agree.
	plain, err := nn.NewPlainPaperNet(paperWeights(t))
	if err != nil {
		t.Fatal(err)
	}
	plain.SetMomentum(0.9)
	for at := 0; at < 30; at += 10 {
		bx, bl := trainBatchFor(t, train.Images[at:at+10])
		if _, err := plain.TrainBatch(bx, bl, 0.1); err != nil {
			t.Fatal(err)
		}
	}
	trained, err := run.Weights()
	if err != nil {
		t.Fatal(err)
	}
	d, err := trained.FC2.MaxAbsDiff(plain.Layers[4].(*nn.Dense).W)
	if err != nil {
		t.Fatal(err)
	}
	if d > 2e-3 {
		t.Fatalf("secure momentum training deviates from plaintext by %v", d)
	}
}

func trainBatchFor(t *testing.T, images []mnist.Image) (nn.Mat64, []int) {
	t.Helper()
	x := tensor.MustNew[float64](len(images), mnist.NumPixels)
	labels := make([]int, len(images))
	for i, img := range images {
		copy(x.Data[i*mnist.NumPixels:(i+1)*mnist.NumPixels], img.Pixels[:])
		labels[i] = img.Label
	}
	return x, labels
}
