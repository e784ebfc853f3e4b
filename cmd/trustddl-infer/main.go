// Command trustddl-infer serves private inference over a TrustDDL
// cluster: it loads a model (saved by trustddl-train -save, or fresh
// Table I weights when no file is given), secret-shares it across the
// computing parties and classifies test images — optionally with a
// Byzantine party injected to demonstrate recovery.
//
// Usage:
//
//	trustddl-infer [-model FILE] [-n 10] [-data DIR] [-seed 1]
//	               [-byzantine 0] [-hbc]
package main

import (
	"flag"
	"fmt"
	"os"

	trustddl "github.com/trustddl/trustddl"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "trustddl-infer:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("trustddl-infer", flag.ContinueOnError)
	modelPath := fs.String("model", "", "model file saved by trustddl-train -save (empty: fresh Table I weights)")
	n := fs.Int("n", 10, "number of test images to classify")
	dataDir := fs.String("data", "", "directory with MNIST IDX files; empty uses the synthetic workload")
	seed := fs.Uint64("seed", 1, "deterministic seed")
	byz := fs.Int("byzantine", 0, "inject a consistently lying adversary at this party (1..3; 0 = none)")
	hbc := fs.Bool("hbc", false, "honest-but-curious mode (no commitment phase)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var (
		arch    trustddl.Arch
		weights []trustddl.Mat64
		err     error
	)
	if *modelPath != "" {
		arch, weights, err = trustddl.LoadModel(*modelPath)
		if err != nil {
			return err
		}
		fmt.Printf("loaded model %s (%d layers, %d weight matrices)\n", *modelPath, len(arch), len(weights))
	} else {
		arch = trustddl.PaperArch()
		pw, err := trustddl.InitPaperWeights(*seed)
		if err != nil {
			return err
		}
		weights = []trustddl.Mat64{pw.Conv, pw.FC1, pw.FC2}
		fmt.Println("no -model given: using freshly initialized (untrained) Table I weights")
	}

	cfg := trustddl.Config{Mode: trustddl.Malicious, Seed: *seed}
	if *hbc {
		cfg.Mode = trustddl.HonestButCurious
	}
	if *byz != 0 {
		if *byz < 1 || *byz > 3 {
			return fmt.Errorf("-byzantine must be 1..3")
		}
		cfg.Adversaries = map[int]trustddl.Adversary{*byz: trustddl.ConsistentLiar{}}
		fmt.Printf("injecting a consistent liar at P%d\n", *byz)
	}
	cluster, err := trustddl.New(cfg)
	if err != nil {
		return err
	}
	defer cluster.Close()
	run, err := cluster.NewRunArch(arch, weights)
	if err != nil {
		return err
	}

	_, test, real := trustddl.LoadDataset(*dataDir, 1, *n, *seed+1)
	source := "synthetic"
	if real {
		source = "MNIST"
	}
	fmt.Printf("classifying %d %s images privately (%s mode)\n\n", test.Len(), source, cfg.Mode)
	correct := 0
	for i, img := range test.Images {
		label, err := run.Infer(img)
		if err != nil {
			return fmt.Errorf("image %d: %w", i, err)
		}
		mark := " "
		if label == img.Label {
			correct++
			mark = "✓"
		}
		fmt.Printf("  image %2d: predicted %d, true %d %s\n", i, label, img.Label, mark)
	}
	stats := cluster.Stats()
	fmt.Printf("\naccuracy %d/%d — %.2f MB over %d messages\n",
		correct, test.Len(), stats.MegaBytes(), stats.Messages)
	if s := cluster.DataOwnerSuspicions(); s[1]+s[2]+s[3] > 0 {
		fmt.Printf("data-owner suspicions: P1=%d P2=%d P3=%d\n", s[1], s[2], s[3])
	}
	return nil
}
