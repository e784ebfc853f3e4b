// Command trustddl-serve runs private inference as a long-lived HTTP
// service: it loads a model (saved by trustddl-train -save, or fresh
// Table I weights), secret-shares it across an in-process three-party
// cluster, and classifies images POSTed by concurrent clients.
//
// Concurrent requests are coalesced into dynamic batches (-max-batch /
// -max-delay), so one secure pass — one triple deal, one commitment
// round, one reveal — serves the whole batch. Admission control is a
// bounded queue (-queue); overflow is answered 429 + Retry-After
// instead of buffered without bound. Latency quantiles, queue depth
// and batch sizes are exported via -metrics-addr.
//
// With -committees N > 1 the model is provisioned into N independent
// 3-party clusters, each with its own dealer seed, and the gateway runs
// one dispatcher per engine over the shared admission queue —
// least-loaded dispatch, N secure passes in flight at once.
//
// Serving is fault-tolerant (DESIGN.md §15): every secure pass runs
// under -request-timeout, a failed or expired batch is re-dispatched
// onto a different healthy engine under -retry-budget, and a circuit
// breaker per engine quarantines after consecutive failures.
// Re-admission requires a clean pass over a held-out probe batch
// (every -probe-every), and an engine whose suspicion ledger convicts
// two of its three parties is evicted from rotation permanently.
//
// The -chaos-stall-* flags open a one-shot fault window on a running
// server (a stalled writer inside one engine's cluster), so
// availability under partial failure can be demonstrated against the
// real binary — the CI chaos smoke job drives exactly that.
//
// Usage:
//
//	trustddl-serve [-addr 127.0.0.1:8088] [-max-batch 8] [-max-delay 2ms]
//	               [-queue 256] [-metrics-addr :9090] [-model FILE]
//	               [-seed 1] [-hbc]
//	               [-committees 1]
//	               [-request-timeout 30s] [-retry-budget 1] [-probe-every 1s]
//	               [-chaos-stall-committee 0] [-chaos-stall-after 5s] [-chaos-stall-for 10s]
//
// API:
//
//	POST /infer    {"pixels":[...784 floats...]} → {"label":N}
//	GET  /healthz  liveness probe (the process is up)
//	GET  /readyz   readiness probe (503 until an engine is healthy)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	trustddl "github.com/trustddl/trustddl"
	"github.com/trustddl/trustddl/internal/byzantine"
	"github.com/trustddl/trustddl/internal/serve"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "trustddl-serve:", err)
		os.Exit(1)
	}
}

// engineSeedStride spreads the engines' dealer seeds across the u64 ring
// (the golden-ratio increment). No two engines may share a mask stream:
// openings x₁ − a and x₂ − a under one mask a would reveal x₁ − x₂.
const engineSeedStride = 0x9e3779b97f4a7c15

// probeSeedTag derives the re-admission probe batch's seed from -seed,
// so the probe is held out from anything the seed itself generates.
const probeSeedTag = 0xc2b2ae3d27d4eb4f

// convictedMajority is the conviction count that voids an engine's
// honest-majority assumption: two of its three parties.
const convictedMajority = 2

// engineConfigs returns the cluster configuration of each of n engines:
// base with engine i's own dealer seed (engine 0 keeps base.Seed, and a
// zero seed stays zero, i.e. live randomness), and the stall
// interceptor on party 1 of engine stallEngine (1-based; 0 is none).
func engineConfigs(base trustddl.Config, n, stallEngine int, stall trustddl.SendInterceptor) []trustddl.Config {
	cfgs := make([]trustddl.Config, n)
	for i := range cfgs {
		cfg := base
		if cfg.Seed != 0 {
			cfg.Seed += uint64(i) * engineSeedStride
		}
		if i+1 == stallEngine {
			cfg.Interceptors = map[int]trustddl.SendInterceptor{1: stall}
		}
		cfgs[i] = cfg
	}
	return cfgs
}

func run(args []string) error {
	fs := flag.NewFlagSet("trustddl-serve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8088", "HTTP listen address for the inference API")
	maxBatch := fs.Int("max-batch", 8, "max images coalesced into one secure pass")
	maxDelay := fs.Duration("max-delay", 2*time.Millisecond, "max wait after a batch's first request for more to arrive")
	queue := fs.Int("queue", 256, "admission queue bound; overflow is answered 429")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics, expvar and pprof on this address (empty: off)")
	modelPath := fs.String("model", "", "model file saved by trustddl-train -save (empty: fresh Table I weights)")
	seed := fs.Uint64("seed", 1, "deterministic seed")
	hbc := fs.Bool("hbc", false, "honest-but-curious mode (no commitment phase)")
	committees := fs.Int("committees", 1, "independent 3-party committees serving in parallel (one gateway dispatcher each)")
	requestTimeout := fs.Duration("request-timeout", 30*time.Second, "per-pass deadline; an expired batch is retried on another engine (negative: no deadline)")
	retryBudget := fs.Int("retry-budget", 1, "re-dispatches allowed per request after a failed or expired pass (negative: none)")
	probeEvery := fs.Duration("probe-every", time.Second, "re-admission probe cadence for quarantined engines (also the eviction-watcher poll interval)")
	chaosStallCommittee := fs.Int("chaos-stall-committee", 0, "fault injection: stall a party of this committee (1-based) for one window; 0 disables")
	chaosStallAfter := fs.Duration("chaos-stall-after", 5*time.Second, "with -chaos-stall-committee, when the stall window opens after serving starts")
	chaosStallFor := fs.Duration("chaos-stall-for", 10*time.Second, "with -chaos-stall-committee, how long the stall window stays open")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *committees < 1:
		return fmt.Errorf("-committees %d: need at least one", *committees)
	case *chaosStallCommittee < 0 || *chaosStallCommittee > *committees:
		return fmt.Errorf("-chaos-stall-committee %d out of range (0..%d)", *chaosStallCommittee, *committees)
	case *probeEvery <= 0:
		return fmt.Errorf("-probe-every %s: must be positive", *probeEvery)
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

	reg := trustddl.NewObsRegistry("serve")
	mode := trustddl.Malicious
	if *hbc {
		mode = trustddl.HonestButCurious
	}
	scfg := serve.Config{
		MaxBatch:       *maxBatch,
		MaxDelay:       *maxDelay,
		QueueBound:     *queue,
		RequestTimeout: *requestTimeout,
		RetryBudget:    *retryBudget,
		ProbeEvery:     *probeEvery,
		Obs:            reg,
	}
	// The chaos window wires a gated stalled-writer interceptor into the
	// target engine at construction; the schedule below opens and closes
	// it while the server runs.
	var stallGate byzantine.Gate
	cfgs := engineConfigs(trustddl.Config{
		Mode: mode,
		Seed: *seed,
		Obs:  reg,
	}, *committees, *chaosStallCommittee, byzantine.StallWhile(&stallGate, ""))
	clusters := make([]*trustddl.Cluster, len(cfgs))
	engines := make([]serve.Inferencer, len(cfgs))
	for i, cfg := range cfgs {
		cluster, err := trustddl.New(cfg)
		if err != nil {
			return err
		}
		defer cluster.Close()
		engine, err := cluster.NewRunArch(arch, weights)
		if err != nil {
			return err
		}
		clusters[i], engines[i] = cluster, engine
	}
	// Quarantined engines must re-earn rotation with a clean pass over a
	// held-out probe batch; the expected labels come from one engine now,
	// before any chaos window opens (every engine holds the same model).
	scfg.Probe = trustddl.SyntheticDataset(*seed^probeSeedTag, 8).Images
	scfg.ProbeExpect, err = engines[0].InferBatch(context.Background(), scfg.Probe)
	if err != nil {
		return err
	}
	gw := serve.NewMulti(engines, scfg)
	if *chaosStallCommittee > 0 {
		go func() {
			time.Sleep(*chaosStallAfter)
			fmt.Printf("chaos: stalling committee %d for %s\n", *chaosStallCommittee, *chaosStallFor)
			stallGate.Set(true)
			time.Sleep(*chaosStallFor)
			stallGate.Set(false)
			fmt.Printf("chaos: committee %d released\n", *chaosStallCommittee)
		}()
	}
	defer gw.Close()
	// Eviction watcher: an engine whose suspicion ledger convicts a
	// majority of its parties is removed from rotation for good.
	stopWatch := make(chan struct{})
	defer close(stopWatch)
	go func() {
		tick := time.NewTicker(*probeEvery)
		defer tick.Stop()
		for {
			select {
			case <-stopWatch:
				return
			case <-tick.C:
			}
			for i, c := range clusters {
				if len(c.Suspicions().Convicted) >= convictedMajority {
					gw.Evict(i)
				}
			}
		}
	}()

	if *metricsAddr != "" {
		ms, err := trustddl.ServeMetrics(*metricsAddr, reg)
		if err != nil {
			return err
		}
		defer ms.Close()
		fmt.Printf("metrics on http://%s/metrics\n", ms.Addr)
	}

	srv := &http.Server{Addr: *addr, Handler: gw.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Printf("serving private inference on http://%s/infer (%s mode, %d engine(s), max-batch %d, max-delay %s, queue %d)\n",
		*addr, mode, gw.Engines(), *maxBatch, *maxDelay, *queue)
	fmt.Printf("resilience: request-timeout %s, retry-budget %d, probe-every %s\n",
		*requestTimeout, *retryBudget, *probeEvery)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case s := <-sig:
		fmt.Printf("\n%s: draining and shutting down\n", s)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			return err
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
	}
	return nil
}
