// Command trustddl-train reproduces Fig. 2 of the TrustDDL paper: test
// accuracy per training epoch of the Table I network, trained with the
// centralized plaintext engine (CML) and with TrustDDL's secure
// fixed-point engine from identical initial weights.
//
// The paper trains 5 epochs over 60 000 MNIST images; the defaults
// scale the workload down so a run finishes in minutes. Point -data at
// a directory containing the original MNIST IDX files to replicate on
// real data, and raise -train/-test toward the paper's sizes as time
// allows.
//
// Usage:
//
//	trustddl-train [-epochs 5] [-train 300] [-test 100] [-batch 10]
//	               [-lr 0.1] [-seed 1] [-data DIR] [-print-config]
//	               [-checkpoint-dir DIR] [-checkpoint-every N] [-resume]
//	               [-suspicion-tol T]
//
// With -checkpoint-dir the secure engine runs as a fault-tolerant
// session: the model owner checkpoints the revealed model plus training
// cursor to DIR (atomically replaced), transient faults are retried
// from the last checkpoint, and SIGINT stops cleanly at the next batch
// boundary after writing a final checkpoint. A later run with -resume
// continues from that snapshot.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"

	trustddl "github.com/trustddl/trustddl"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "trustddl-train:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("trustddl-train", flag.ContinueOnError)
	epochs := fs.Int("epochs", 5, "training epochs (paper: 5)")
	trainN := fs.Int("train", 300, "training samples per epoch (paper: 60000)")
	testN := fs.Int("test", 100, "test samples per accuracy point (paper: 10000)")
	batch := fs.Int("batch", 10, "SGD batch size")
	lr := fs.Float64("lr", 0.1, "learning rate")
	seed := fs.Uint64("seed", 1, "deterministic seed")
	dataDir := fs.String("data", "", "directory with MNIST IDX files (train-images-idx3-ubyte, ...); empty uses the synthetic workload")
	printConfig := fs.Bool("print-config", false, "print the Table I network configuration and exit")
	sweep := fs.Bool("sweep-precision", false, "sweep fixed-point precisions instead of running Fig. 2")
	savePath := fs.String("save", "", "after training, save the secure-trained model to this file")
	ckptDir := fs.String("checkpoint-dir", "", "run the secure engine as a fault-tolerant session, checkpointing to this directory")
	ckptEvery := fs.Int("checkpoint-every", 0, "mid-epoch checkpoint cadence in batches (0 = end of epoch only)")
	resume := fs.Bool("resume", false, "continue from the checkpoint in -checkpoint-dir instead of starting fresh")
	suspTol := fs.Float64("suspicion-tol", 0, "decision-rule suspicion tolerance in raw ring units (0 = per-site defaults)")
	metricsAddr := fs.String("metrics-addr", "", "serve the secure engine's live metrics on this address (/metrics JSON snapshot, /debug/vars, /debug/pprof); empty disables")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *printConfig {
		printTableI()
		return nil
	}
	var reg *trustddl.ObsRegistry
	if *metricsAddr != "" {
		reg = trustddl.NewObsRegistry("train")
		srv, err := trustddl.ServeMetrics(*metricsAddr, reg)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Printf("trustddl-train: metrics at http://%s/metrics (pprof at /debug/pprof/)\n", srv.Addr)
	}
	if *sweep {
		return runPrecisionSweep(*epochs, *trainN, *testN, *batch, *lr, *seed)
	}
	if *resume && *ckptDir == "" {
		return fmt.Errorf("-resume requires -checkpoint-dir")
	}
	if *ckptDir != "" {
		return runSession(sessionParams{
			dir: *ckptDir, every: *ckptEvery, resume: *resume,
			epochs: *epochs, trainN: *trainN, testN: *testN, batch: *batch,
			lr: *lr, seed: *seed, dataDir: *dataDir, suspTol: *suspTol,
			save: *savePath, obs: reg,
		})
	}

	fmt.Println("TrustDDL reproduction — Fig. 2: Model Accuracy per Epoch")
	fmt.Printf("(%d epochs × %d training images, batch %d, lr %g, fixed-point F=20)\n\n",
		*epochs, *trainN, *batch, *lr)

	res, err := trustddl.Fig2(trustddl.Fig2Config{
		Epochs:  *epochs,
		TrainN:  *trainN,
		TestN:   *testN,
		Batch:   *batch,
		LR:      *lr,
		Seed:    *seed,
		DataDir: *dataDir,
		Obs:     reg,
		OnEpoch: func(engine string, epoch int, acc float64) {
			fmt.Printf("  [%s] epoch %d: accuracy %.2f%%\n", engine, epoch, 100*acc)
		},
	})
	if err != nil {
		return err
	}
	fmt.Println()
	fmt.Print(trustddl.FormatFig2(res))
	if *savePath != "" {
		if err := trustddl.SaveModel(*savePath, trustddl.PaperArch(), res.Weights); err != nil {
			return err
		}
		fmt.Printf("\nsecure-trained model saved to %s\n", *savePath)
	}
	return nil
}

type sessionParams struct {
	dir     string
	every   int
	resume  bool
	epochs  int
	trainN  int
	testN   int
	batch   int
	lr      float64
	seed    uint64
	dataDir string
	suspTol float64
	save    string
	obs     *trustddl.ObsRegistry
}

// runSession drives the fault-tolerant secure training session:
// checkpoint/resume, retry-from-checkpoint on transient faults, and a
// graceful SIGINT stop that persists the cursor for a later -resume.
func runSession(p sessionParams) error {
	train, test, _ := trustddl.LoadDataset(p.dataDir, p.trainN, p.testN, p.seed)
	cluster, err := trustddl.New(trustddl.Config{
		Mode:               trustddl.Malicious,
		Triples:            trustddl.OfflinePrecomputed,
		Seed:               p.seed,
		SuspicionTolerance: p.suspTol,
		Obs:                p.obs,
	})
	if err != nil {
		return err
	}
	defer cluster.Close()

	// SIGINT/SIGTERM stop the session at the next batch boundary, after
	// a final checkpoint; a second signal kills the process hard.
	var stopping atomic.Bool
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigs)
	go func() {
		if _, ok := <-sigs; !ok {
			return
		}
		fmt.Println("trustddl-train: stopping at next batch boundary (signal again to force)")
		stopping.Store(true)
		if _, ok := <-sigs; ok {
			os.Exit(1)
		}
	}()

	sc := trustddl.SessionConfig{
		TrainConfig: trustddl.TrainConfig{
			Epochs: p.epochs, Batch: p.batch, LR: p.lr, EvalLimit: p.testN,
			OnEpoch: func(epoch int, acc float64) {
				fmt.Printf("  [TrustDDL] epoch %d: accuracy %.2f%% (checkpointed)\n", epoch, 100*acc)
			},
		},
		CheckpointDir:   p.dir,
		CheckpointEvery: p.every,
		OnFault: func(epoch, at int, err error) {
			fmt.Printf("  [TrustDDL] fault at epoch %d batch %d: %v\n", epoch, at, err)
		},
		OnBatch: func(int, int) error {
			if stopping.Load() {
				return fmt.Errorf("interrupted")
			}
			return nil
		},
	}

	var results []trustddl.EpochResult
	var run *trustddl.Run
	if p.resume {
		ck, err := trustddl.LoadCheckpoint(trustddl.CheckpointPath(p.dir))
		if err != nil {
			return err
		}
		fmt.Printf("trustddl-train: resuming at epoch %d, batch offset %d (%d epochs done)\n",
			ck.Epoch, ck.Batch, len(ck.Results))
		results, run, err = cluster.ResumeTrain(ck, train, test, sc)
		if err != nil {
			if errors.Is(err, trustddl.ErrSessionStopped) {
				fmt.Printf("trustddl-train: session stopped; continue with -resume (%v)\n", err)
				return nil
			}
			return err
		}
	} else {
		weights, err := trustddl.InitPaperWeights(p.seed)
		if err != nil {
			return err
		}
		results, run, err = cluster.TrainSession(weights, train, test, sc)
		if err != nil {
			if errors.Is(err, trustddl.ErrSessionStopped) {
				fmt.Printf("trustddl-train: session stopped; continue with -resume (%v)\n", err)
				return nil
			}
			return err
		}
	}

	fmt.Printf("\ntrustddl-train: session complete — %d epoch(s), final accuracy %.2f%%\n",
		len(results), 100*finalAccuracy(results))
	if report := cluster.Suspicions(); len(report.Convicted) > 0 {
		fmt.Printf("suspicion ledger convicted parties %v:\n%s\n", report.Convicted, report.String())
	}
	if p.save != "" {
		trained, err := run.WeightMatrices()
		if err != nil {
			return err
		}
		if err := trustddl.SaveModel(p.save, trustddl.PaperArch(), trained); err != nil {
			return err
		}
		fmt.Printf("secure-trained model saved to %s\n", p.save)
	}
	return nil
}

func finalAccuracy(results []trustddl.EpochResult) float64 {
	if len(results) == 0 {
		return 0
	}
	return results[len(results)-1].Accuracy
}

func runPrecisionSweep(epochs, trainN, testN, batch int, lr float64, seed uint64) error {
	fmt.Println("TrustDDL ablation — fixed-point precision sweep (§IV-B)")
	fmt.Printf("(%d epochs × %d training images per setting)\n\n", epochs, trainN)
	points, err := trustddl.PrecisionSweep(trustddl.PrecisionConfig{
		Epochs: epochs,
		TrainN: trainN,
		TestN:  testN,
		Batch:  batch,
		LR:     lr,
		Seed:   seed,
		OnPoint: func(f uint, acc float64) {
			if f == 0 {
				fmt.Printf("  [float64 baseline] accuracy %.2f%%\n", 100*acc)
				return
			}
			fmt.Printf("  [F=%d] accuracy %.2f%%\n", f, 100*acc)
		},
	})
	if err != nil {
		return err
	}
	fmt.Println()
	fmt.Print(trustddl.FormatPrecision(points))
	return nil
}

func printTableI() {
	fmt.Print(`Table I: Neural Network Configuration for the MNIST workload
  Input:          28 x 28 image
  Convolution:    (28x28) -> (14x14x5)
                  kernel (5x5), padding 2, stride 2, 5 output channels
  ReLU:           (980) -> (980)
  FullyConnected: (980) -> (100)
  ReLU:           (100) -> (100)
  FullyConnected: (100) -> (10)
  Softmax:        (10) -> (10)   [delegated to the model owner]
`)
}
