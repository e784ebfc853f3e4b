package core

import (
	"sync"
	"testing"
	"time"

	"github.com/trustddl/trustddl/internal/byzantine"
	"github.com/trustddl/trustddl/internal/mnist"
	"github.com/trustddl/trustddl/internal/nn"
	"github.com/trustddl/trustddl/internal/protocol"
	"github.com/trustddl/trustddl/internal/tensor"
	"github.com/trustddl/trustddl/internal/transport"
)

func newTestCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	if cfg.Seed == 0 {
		cfg.Seed = 11
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := c.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return c
}

func paperWeights(t *testing.T) nn.PaperWeights {
	t.Helper()
	w, err := nn.InitPaperWeights(42)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestModeString(t *testing.T) {
	if HonestButCurious.String() != "Honest-but-Curious" || Malicious.String() != "Malicious" {
		t.Fatal("mode names wrong")
	}
}

func TestInferMatchesPlaintext(t *testing.T) {
	c := newTestCluster(t, Config{Mode: Malicious})
	w := paperWeights(t)
	run, err := c.NewRun(w)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := nn.NewPlainPaperNet(w)
	if err != nil {
		t.Fatal(err)
	}
	ds := mnist.Synthetic(3, 5)
	for i, img := range ds.Images {
		got, err := run.Infer(img)
		if err != nil {
			t.Fatalf("image %d: %v", i, err)
		}
		x := tensor.MustNew[float64](1, mnist.NumPixels)
		copy(x.Data, img.Pixels[:])
		want, err := plain.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		if got != want[0] {
			t.Fatalf("image %d: secure prediction %d, plaintext %d", i, got, want[0])
		}
	}
}

func TestSecureTrainingTracksPlaintext(t *testing.T) {
	// The Fig. 2 claim in miniature: a few secure SGD steps must move
	// the weights (almost) exactly like plaintext SGD.
	c := newTestCluster(t, Config{Mode: Malicious, Triples: OfflinePrecomputed})
	w := paperWeights(t)
	run, err := c.NewRun(w)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := nn.NewPlainPaperNet(w)
	if err != nil {
		t.Fatal(err)
	}
	ds := mnist.Synthetic(5, 6)
	const lr = 0.05
	for at := 0; at < 6; at += 2 {
		batch := ds.Images[at : at+2]
		if err := run.TrainBatch(batch, lr); err != nil {
			t.Fatal(err)
		}
		x := tensor.MustNew[float64](2, mnist.NumPixels)
		labels := make([]int, 2)
		for j, img := range batch {
			copy(x.Data[j*mnist.NumPixels:(j+1)*mnist.NumPixels], img.Pixels[:])
			labels[j] = img.Label
		}
		if _, err := plain.TrainBatch(x, labels, lr); err != nil {
			t.Fatal(err)
		}
	}

	got, err := run.Weights()
	if err != nil {
		t.Fatal(err)
	}
	for _, cmp := range []struct {
		name string
		got  nn.Mat64
		want nn.Mat64
	}{
		{name: "conv", got: got.Conv, want: plain.Layers[0].(*nn.Conv).W},
		{name: "fc1", got: got.FC1, want: plain.Layers[2].(*nn.Dense).W},
		{name: "fc2", got: got.FC2, want: plain.Layers[4].(*nn.Dense).W},
	} {
		d, err := cmp.got.MaxAbsDiff(cmp.want)
		if err != nil {
			t.Fatal(err)
		}
		if d > 1e-3 {
			t.Fatalf("%s weights deviate by %v after 3 secure steps", cmp.name, d)
		}
	}
}

func TestTrainDriverImprovesAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("secure training epoch in -short mode")
	}
	c := newTestCluster(t, Config{Mode: Malicious, Triples: OfflinePrecomputed})
	train, test, _ := mnist.Load(t.TempDir(), 60, 30, 17)
	results, run, err := c.Train(paperWeights(t), train, test, TrainConfig{
		Epochs:    2,
		Batch:     10,
		LR:        0.3,
		EvalLimit: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("%d epoch results", len(results))
	}
	if results[1].Accuracy < 0.3 {
		t.Fatalf("accuracy %.2f after 2 epochs on the synthetic task; secure training is not learning", results[1].Accuracy)
	}
	if run == nil {
		t.Fatal("nil run returned")
	}
}

func TestInferenceUnderByzantineParty(t *testing.T) {
	// A consistent liar on P2 must not change any prediction
	// (guaranteed output delivery with correct outputs).
	honest := newTestCluster(t, Config{Mode: Malicious, Seed: 23})
	byz := newTestCluster(t, Config{
		Mode:        Malicious,
		Seed:        23,
		Adversaries: map[int]protocol.Adversary{2: byzantine.ConsistentLiar{}},
	})
	w := paperWeights(t)
	honestRun, err := honest.NewRun(w)
	if err != nil {
		t.Fatal(err)
	}
	byzRun, err := byz.NewRun(w)
	if err != nil {
		t.Fatal(err)
	}
	ds := mnist.Synthetic(29, 3)
	for i, img := range ds.Images {
		want, err := honestRun.Infer(img)
		if err != nil {
			t.Fatal(err)
		}
		got, err := byzRun.Infer(img)
		if err != nil {
			t.Fatalf("image %d under Byzantine party: %v", i, err)
		}
		if got != want {
			t.Fatalf("image %d: Byzantine run predicted %d, honest run %d", i, got, want)
		}
	}
}

func TestInferenceUnderCommitViolator(t *testing.T) {
	c := newTestCluster(t, Config{
		Mode:        Malicious,
		Adversaries: map[int]protocol.Adversary{3: byzantine.CommitViolator{}},
	})
	run, err := c.NewRun(paperWeights(t))
	if err != nil {
		t.Fatal(err)
	}
	img := mnist.Synthetic(31, 1).Images[0]
	if _, err := run.Infer(img); err != nil {
		t.Fatalf("inference under commit violation: %v", err)
	}
	// Both honest parties must have convicted P3. FlaggedBy runs on
	// the parties' loops; callers may ask from several goroutines.
	got := make([][]int, 4)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = c.FlaggedBy(1 + i%2)
		}(i)
	}
	wg.Wait()
	for i, flagged := range got {
		if len(flagged) != 1 || flagged[0] != 3 {
			t.Fatalf("party %d convicted %v, want [3]", 1+i%2, flagged)
		}
	}
}

func TestInferenceUnderSilentParty(t *testing.T) {
	// P1 drops every opening: timers fire, P1 is excluded, inference
	// still completes correctly against the honest-cluster result.
	honest := newTestCluster(t, Config{Mode: Malicious, Seed: 37})
	silent := newTestCluster(t, Config{
		Mode:         Malicious,
		Seed:         37,
		Timeout:      300 * time.Millisecond,
		Interceptors: map[int]transport.SendInterceptor{1: byzantine.DropOpenings()},
	})
	w := paperWeights(t)
	honestRun, err := honest.NewRun(w)
	if err != nil {
		t.Fatal(err)
	}
	silentRun, err := silent.NewRun(w)
	if err != nil {
		t.Fatal(err)
	}
	img := mnist.Synthetic(41, 1).Images[0]
	want, err := honestRun.Infer(img)
	if err != nil {
		t.Fatal(err)
	}
	got, err := silentRun.Infer(img)
	if err != nil {
		t.Fatalf("inference with silent party: %v", err)
	}
	if got != want {
		t.Fatalf("prediction %d with silent party, want %d", got, want)
	}
}

func TestStatsAccumulateAndReset(t *testing.T) {
	c := newTestCluster(t, Config{Mode: Malicious})
	run, err := c.NewRun(paperWeights(t))
	if err != nil {
		t.Fatal(err)
	}
	c.ResetStats()
	img := mnist.Synthetic(43, 1).Images[0]
	if _, err := run.Infer(img); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Messages == 0 || st.Bytes == 0 {
		t.Fatal("inference produced no metered traffic")
	}
	c.ResetStats()
	if c.Stats().Bytes != 0 {
		t.Fatal("ResetStats did not zero")
	}
}

func TestMaliciousModeCostsMoreThanHbC(t *testing.T) {
	// The Table II shape in miniature: the commitment phase must add
	// traffic relative to the HbC configuration.
	measure := func(mode Mode) int64 {
		c := newTestCluster(t, Config{Mode: mode, Seed: 51})
		run, err := c.NewRun(paperWeights(t))
		if err != nil {
			t.Fatal(err)
		}
		c.ResetStats()
		img := mnist.Synthetic(53, 1).Images[0]
		if _, err := run.Infer(img); err != nil {
			t.Fatal(err)
		}
		return c.Stats().Bytes
	}
	hbc := measure(HonestButCurious)
	mal := measure(Malicious)
	if mal <= hbc {
		t.Fatalf("malicious bytes %d not above HbC bytes %d", mal, hbc)
	}
	// The increase should be moderate (hash exchanges, not data
	// re-sends): well under 50%.
	if float64(mal-hbc)/float64(hbc) > 0.5 {
		t.Fatalf("commitment overhead %.1f%% implausibly high", 100*float64(mal-hbc)/float64(hbc))
	}
}

func TestOfflineTriplesReduceOnlineTraffic(t *testing.T) {
	measure := func(tm TripleMode) int64 {
		c := newTestCluster(t, Config{Mode: Malicious, Triples: tm, Seed: 61})
		run, err := c.NewRun(paperWeights(t))
		if err != nil {
			t.Fatal(err)
		}
		c.ResetStats()
		img := mnist.Synthetic(67, 1).Images[0]
		if _, err := run.Infer(img); err != nil {
			t.Fatal(err)
		}
		return c.Stats().Bytes
	}
	online := measure(OnlineDealing)
	offline := measure(OfflinePrecomputed)
	if offline >= online {
		t.Fatalf("offline-triple traffic %d not below online %d", offline, online)
	}
}

func TestNewRejectsBadTrainConfig(t *testing.T) {
	c := newTestCluster(t, Config{})
	train, test, _ := mnist.Load(t.TempDir(), 4, 2, 3)
	if _, _, err := c.Train(paperWeights(t), train, test, TrainConfig{}); err == nil {
		t.Fatal("zero config accepted")
	}
}

func TestTrainingUnderByzantinePartyMatchesHonestCluster(t *testing.T) {
	// The paper's central robustness claim applies to training, not
	// just inference: several secure SGD steps with a consistent liar
	// at P3 must yield the same model as an honest cluster with the
	// same seeds.
	if testing.Short() {
		t.Skip("multi-step secure training in -short mode")
	}
	trainOn := func(adversaries map[int]protocol.Adversary) nn.PaperWeights {
		c := newTestCluster(t, Config{
			Mode:        Malicious,
			Triples:     OfflinePrecomputed,
			Seed:        91,
			Adversaries: adversaries,
		})
		run, err := c.NewRun(paperWeights(t))
		if err != nil {
			t.Fatal(err)
		}
		ds := mnist.Synthetic(93, 9)
		for at := 0; at < 9; at += 3 {
			if err := run.TrainBatch(ds.Images[at:at+3], 0.1); err != nil {
				t.Fatal(err)
			}
		}
		w, err := run.Weights()
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	honest := trainOn(nil)
	attacked := trainOn(map[int]protocol.Adversary{3: byzantine.ConsistentLiar{}})
	for _, cmp := range []struct {
		name      string
		got, want nn.Mat64
	}{
		{name: "conv", got: attacked.Conv, want: honest.Conv},
		{name: "fc1", got: attacked.FC1, want: honest.FC1},
		{name: "fc2", got: attacked.FC2, want: honest.FC2},
	} {
		d, err := cmp.got.MaxAbsDiff(cmp.want)
		if err != nil {
			t.Fatal(err)
		}
		if d > 1e-3 {
			t.Fatalf("%s weights deviate by %v under a Byzantine trainer", cmp.name, d)
		}
	}
}
