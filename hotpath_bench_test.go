// The hot-path measurement at the public API level: the buffer pools,
// bulk wire codec and fused conv kernel exist to cut per-step
// allocation, so the optimized variant of every cell must allocate
// less than its baseline.
package trustddl_test

import (
	"testing"

	trustddl "github.com/trustddl/trustddl"
)

// TestBenchHotpathJSON runs the before/after hot-path measurement,
// asserts the allocation collapse, and persists BENCH_hotpath.json for
// trend tracking across PRs.
func TestBenchHotpathJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("full loopback-TCP cluster measurement; skipped in -short runs")
	}
	// Serial kernels make the allocation counters deterministic (no
	// worker-goroutine or closure allocations muddying the deltas).
	prev := trustddl.Parallelism()
	defer trustddl.SetParallelism(prev)
	cfg := trustddl.HotpathConfig{Iterations: 3, Batch: 4, Seed: 1, Parallelism: 1}
	cells, err := trustddl.Hotpath(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 6 {
		t.Fatalf("got %d cells, want 6 (3 benchmarks × 2 variants)", len(cells))
	}
	baseline := map[string]trustddl.HotpathCell{}
	optimized := map[string]trustddl.HotpathCell{}
	for _, c := range cells {
		switch c.Variant {
		case "baseline":
			baseline[c.Name] = c
		case "optimized":
			optimized[c.Name] = c
		default:
			t.Fatalf("unknown variant %q", c.Variant)
		}
	}
	for _, name := range []string{"secure-infer", "conv-kernel", "wire-codec"} {
		b, okB := baseline[name]
		o, okO := optimized[name]
		if !okB || !okO {
			t.Fatalf("missing cells for %q", name)
		}
		if b.NsPerOp <= 0 || o.NsPerOp <= 0 {
			t.Errorf("%s: non-positive timings (baseline %d ns, optimized %d ns)", name, b.NsPerOp, o.NsPerOp)
		}
	}
	// The acceptance properties. Allocation counters are deterministic
	// under serial kernels and overwhelmingly one-sided for the secure
	// pass, so they gate hard; wall time gates nothing (on a shared
	// host even the memcpy-vs-loop codec ratio inverts one run in five).
	for _, name := range []string{"secure-infer", "conv-kernel"} {
		b, o := baseline[name], optimized[name]
		if o.AllocsPerOp >= b.AllocsPerOp {
			t.Errorf("%s: allocs/op did not drop: baseline %d, optimized %d", name, b.AllocsPerOp, o.AllocsPerOp)
		}
		if o.BytesPerOp >= b.BytesPerOp {
			t.Errorf("%s: B/op did not drop: baseline %d, optimized %d", name, b.BytesPerOp, o.BytesPerOp)
		}
	}
	// The fused kernel writes into a caller-owned output: its serial
	// steady state must be allocation-free.
	if got := optimized["conv-kernel"].AllocsPerOp; got != 0 {
		t.Errorf("conv-kernel optimized: %d allocs/op, want 0 (fused, caller-owned output)", got)
	}
	if err := trustddl.WriteHotpathJSON("BENCH_hotpath.json", cfg, cells); err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + trustddl.FormatHotpath(cells))
}
