// Command trustddl-bench reproduces Table II of the TrustDDL paper:
// runtime and communication cost of single-image training and inference
// for SecureNN, Falcon (honest-but-curious and malicious), SafeML and
// TrustDDL (honest-but-curious and malicious) over the Table I network.
//
// Usage:
//
//	trustddl-bench [-iters N] [-seed S] [-frameworks a,b,...] [-parallelism P]
//	               [-pooling=true] [-bulk-codec=true]
//	               [-obs] [-obs-json PATH] [-metrics-addr HOST:PORT]
//	               [-serve] [-serve-batches 1,2,4,8] [-serve-json PATH]
//	               [-hotpath] [-hotpath-batch N] [-hotpath-json PATH]
//	               [-scale] [-scale-committees 1,2,4] [-scale-json PATH]
//	               [-resilience] [-resilience-committees 2] [-resilience-json PATH]
//
// With -resilience the chaos-driven availability benchmark runs
// instead: phased client load at a committee-sharded gateway while
// fault windows (stalled writer, crash-dark party, gated Byzantine
// liar) open on one committee — per-phase availability, latency
// percentiles, retry/probe counters and recovery time.
//
// With -scale the committee scale-out benchmark runs instead: the
// training epoch sharded across N independent 3-party committees over a
// latency-injected transport, honest and with one committee fully
// poisoned — epoch speedup, multi-engine gateway throughput, and final
// accuracy under Byzantine-robust delta aggregation.
//
// With -hotpath the hot-path benchmark runs instead: the batched secure
// inference pass over loopback TCP plus its extracted kernels (fused
// im2col+matmul, bulk wire codec), each measured with the allocation
// optimizations off and on — ns/op, B/op and allocs/op per cell.
//
// With -serve the serving benchmark runs instead: the Table I network
// behind the trustddl-serve gateway, measured once per dynamic-batch
// limit — owner-bound protocol messages per image, engine latency per
// image, and end-to-end percentiles under concurrent load.
//
// With -obs the observability benchmark runs instead: the secure
// workload executes once without and once with a live metrics registry
// attached, and the report shows every protocol-phase latency histogram
// plus the instrumentation overhead. -obs-json persists that report;
// -metrics-addr additionally serves the live registry over HTTP
// (/metrics, /debug/vars, /debug/pprof) while the benchmark runs.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	trustddl "github.com/trustddl/trustddl"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "trustddl-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("trustddl-bench", flag.ContinueOnError)
	iters := fs.Int("iters", 3, "single-image operations averaged per measurement")
	seed := fs.Uint64("seed", 1, "deterministic seed for weights, data and shares")
	frameworks := fs.String("frameworks", "", "comma-separated framework filter (SecureNN, Falcon, SafeML, TrustDDL); empty runs all")
	parallelism := fs.Int("parallelism", 0, "tensor-kernel worker goroutines (0 = NumCPU, 1 = serial)")
	obsRun := fs.Bool("obs", false, "run the observability benchmark (per-phase latency histograms + instrumentation overhead) instead of Table II")
	obsJSON := fs.String("obs-json", "", "with -obs, also write the report to this file (e.g. BENCH_obs.json)")
	metricsAddr := fs.String("metrics-addr", "", "with -obs, serve the live registry on this address while the benchmark runs")
	serveRun := fs.Bool("serve", false, "run the serving benchmark (gateway batch amortization across -serve-batches) instead of Table II")
	serveBatches := fs.String("serve-batches", "1,2,4,8", "with -serve, comma-separated gateway MaxBatch grid")
	serveJSON := fs.String("serve-json", "", "with -serve, also write the report to this file (e.g. BENCH_serve.json)")
	hotpathRun := fs.Bool("hotpath", false, "run the hot-path benchmark (buffer pools, bulk codec, fused conv: before/after ns, B and allocs per op) instead of Table II")
	hotpathBatch := fs.Int("hotpath-batch", 4, "with -hotpath, images per secure pass")
	hotpathJSON := fs.String("hotpath-json", "", "with -hotpath, also write the report to this file (e.g. BENCH_hotpath.json)")
	scaleRun := fs.Bool("scale", false, "run the committee scale-out benchmark (epoch speedup, serve throughput, poisoned-committee robustness) instead of Table II")
	scaleCommittees := fs.String("scale-committees", "1,2,4", "with -scale, comma-separated committee-count grid")
	scaleJSON := fs.String("scale-json", "", "with -scale, also write the report to this file (e.g. BENCH_scale.json)")
	resilienceRun := fs.Bool("resilience", false, "run the chaos availability benchmark (fault windows on one committee under phased load) instead of Table II")
	resilienceCommittees := fs.Int("resilience-committees", 2, "with -resilience, committee count behind the gateway (committee 1 is faulted)")
	resilienceJSON := fs.String("resilience-json", "", "with -resilience, also write the report to this file (e.g. BENCH_resilience.json)")
	pooling := fs.Bool("pooling", true, "hot-path buffer pools (matrix + transport frame reuse)")
	bulkCodec := fs.Bool("bulk-codec", true, "bulk-copy wire codec for matrix bodies")
	if err := fs.Parse(args); err != nil {
		return err
	}
	trustddl.SetPooling(*pooling)
	trustddl.SetBulkCodec(*bulkCodec)

	if *resilienceRun || *resilienceJSON != "" {
		return runResilience(*seed, *resilienceCommittees, *resilienceJSON)
	}
	if *scaleRun || *scaleJSON != "" {
		return runScale(*seed, *scaleCommittees, *scaleJSON)
	}
	if *hotpathRun || *hotpathJSON != "" {
		return runHotpath(*iters, *seed, *hotpathBatch, *parallelism, *hotpathJSON)
	}
	if *serveRun || *serveJSON != "" {
		return runServe(*seed, *serveBatches, *serveJSON)
	}
	if *obsRun || *obsJSON != "" {
		return runObs(*iters, *seed, *parallelism, *obsJSON, *metricsAddr)
	}

	cfg := trustddl.Table2Config{Iterations: *iters, Seed: *seed, Parallelism: *parallelism}
	if *frameworks != "" {
		cfg.Frameworks = strings.Split(*frameworks, ",")
	}

	fmt.Println("TrustDDL reproduction — Table II: Runtime and Communication Cost")
	fmt.Printf("(single-image operations, averaged over %d iterations, Table I network)\n\n", *iters)
	rows, err := trustddl.Table2(cfg)
	if err != nil {
		return err
	}
	fmt.Print(trustddl.FormatTable2(rows))
	fmt.Println("\nSee EXPERIMENTS.md for the paper-vs-measured comparison.")
	return nil
}

// runHotpath drives the hot-path before/after benchmark.
func runHotpath(iters int, seed uint64, batch, parallelism int, jsonPath string) error {
	cfg := trustddl.HotpathConfig{
		Iterations:  iters,
		Batch:       batch,
		Seed:        seed,
		Parallelism: parallelism,
	}
	fmt.Println("TrustDDL hot-path benchmark (buffer pools, bulk wire codec, fused im2col+matmul)")
	fmt.Printf("(batched secure inference over loopback TCP, batch %d, averaged over %d passes)\n\n", batch, iters)
	cells, err := trustddl.Hotpath(cfg)
	if err != nil {
		return err
	}
	fmt.Print(trustddl.FormatHotpath(cells))
	if jsonPath != "" {
		if err := trustddl.WriteHotpathJSON(jsonPath, cfg, cells); err != nil {
			return err
		}
		fmt.Printf("\nreport written to %s\n", jsonPath)
	}
	return nil
}

// runScale drives the committee scale-out benchmark.
func runScale(seed uint64, committees, jsonPath string) error {
	cfg := trustddl.ScaleConfig{Seed: seed}
	for _, tok := range strings.Split(committees, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil || n <= 0 {
			return fmt.Errorf("bad -scale-committees entry %q", tok)
		}
		cfg.Committees = append(cfg.Committees, n)
	}

	fmt.Println("TrustDDL scale-out benchmark (committee-sharded training + serving)")
	fmt.Println("(honest rows plus one-committee-poisoned rows, Byzantine-robust delta aggregation)")
	fmt.Println()
	rows, err := trustddl.ScaleBench(cfg)
	if err != nil {
		return err
	}
	fmt.Print(trustddl.FormatScale(rows))
	if jsonPath != "" {
		if err := trustddl.WriteScaleJSON(jsonPath, cfg, rows); err != nil {
			return err
		}
		fmt.Printf("\nreport written to %s\n", jsonPath)
	}
	return nil
}

// runResilience drives the chaos-driven availability benchmark.
func runResilience(seed uint64, committees int, jsonPath string) error {
	cfg := trustddl.ResilienceConfig{Seed: seed, Committees: committees}
	fmt.Println("TrustDDL resilience benchmark (chaos fault windows under phased serving load)")
	fmt.Println("(stall / crash / byzantine on committee 1; availability before, during and after each window)")
	fmt.Println()
	res, err := trustddl.ResilienceBench(cfg)
	if err != nil {
		return err
	}
	fmt.Print(trustddl.FormatResilience(res))
	if jsonPath != "" {
		if err := trustddl.WriteResilienceJSON(jsonPath, res); err != nil {
			return err
		}
		fmt.Printf("\nreport written to %s\n", jsonPath)
	}
	return nil
}

// runServe drives the gateway batch-amortization benchmark.
func runServe(seed uint64, batches, jsonPath string) error {
	cfg := trustddl.ServeConfig{Seed: seed}
	for _, tok := range strings.Split(batches, ",") {
		b, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil || b <= 0 {
			return fmt.Errorf("bad -serve-batches entry %q", tok)
		}
		cfg.Batches = append(cfg.Batches, b)
	}

	fmt.Println("TrustDDL serving benchmark (inference gateway, dynamic batching)")
	fmt.Println("(Table I network, concurrent clients per row)")
	fmt.Println()
	rows, err := trustddl.ServeBench(cfg)
	if err != nil {
		return err
	}
	fmt.Print(trustddl.FormatServe(rows))
	if jsonPath != "" {
		if err := trustddl.WriteServeJSON(jsonPath, cfg, rows); err != nil {
			return err
		}
		fmt.Printf("\nreport written to %s\n", jsonPath)
	}
	return nil
}

// runObs drives the observability benchmark, optionally serving the
// live registry while it runs and persisting the report.
func runObs(iters int, seed uint64, parallelism int, jsonPath, metricsAddr string) error {
	cfg := trustddl.ObsConfig{
		Iterations:  iters,
		Seed:        seed,
		Parallelism: parallelism,
	}
	if metricsAddr != "" {
		cfg.Registry = trustddl.NewObsRegistry("bench")
		srv, err := trustddl.ServeMetrics(metricsAddr, cfg.Registry)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Printf("metrics at http://%s/metrics (pprof at /debug/pprof/)\n", srv.Addr)
	}

	fmt.Println("TrustDDL observability benchmark (secure single-image training + inference)")
	fmt.Printf("(averaged over %d iterations, Table I network, malicious mode)\n\n", iters)
	res, err := trustddl.MeasureObs(cfg)
	if err != nil {
		return err
	}
	fmt.Print(trustddl.FormatObs(res))
	if jsonPath != "" {
		if err := trustddl.WriteObsJSON(jsonPath, res); err != nil {
			return err
		}
		fmt.Printf("\nreport written to %s\n", jsonPath)
	}
	return nil
}
