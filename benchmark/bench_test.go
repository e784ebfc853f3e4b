package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

const contractPath = "../BENCHMARK.json"

// TestContractShape checks BENCHMARK.json against the limits its
// consumer enforces before a single run.
func TestContractShape(t *testing.T) {
	raw, err := os.ReadFile(contractPath)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("missing key %q", k)
		}
		delete(keys, k)
	}
	for k := range keys {
		t.Errorf("unexpected key %q", k)
	}
	con, err := loadContract(contractPath)
	if err != nil {
		t.Fatal(err)
	}
	if con.RunSeconds < 1 || con.RunSeconds > 60 {
		t.Errorf("run_seconds %d out of [1, 60]", con.RunSeconds)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	once := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("bad name %q", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if len(con.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(con.Workloads), len(workloads))
	}
	for i, w := range con.Workloads {
		once(w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q, the benchmark runs %q", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	setup := false
	for _, m := range con.EndToEnd {
		once(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: bad unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v out of [0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == mSetup && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Errorf("end_to_end lacks %s in s, lower is better", mSetup)
	}
	if n := len(con.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	for _, m := range con.PerLayer {
		once(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: bad unit %q", m.Name, m.Unit)
		}
	}
}

// TestSmoke runs every workload for a second, timed and traced, and
// checks that each prints exactly the metrics BENCHMARK.json names,
// finite and with their units, that every output check passes, and that
// nothing is written outside the test's temporary directory.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the real system for several seconds")
	}
	con, err := loadContract(contractPath)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for trace, want := range [][]contractMetric{con.EndToEnd, con.PerLayer} {
		var stdout, stderr bytes.Buffer
		args := []string{"-contract", contractPath, "-seconds", "1", "-trace", []string{"0", "1"}[trace],
			"-json", filepath.Join(dir, "result.json"), "-trace-out", dir}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("trace %d: exit %d\n%s\n%s", trace, code, stderr.String(), stdout.String())
		}
		var outcomes []outcome
		for _, line := range strings.Split(stdout.String(), "\n") {
			if strings.HasPrefix(line, "{") {
				var o outcome
				if err := json.Unmarshal([]byte(line), &o); err != nil {
					t.Fatalf("result line: %v\n%s", err, line)
				}
				outcomes = append(outcomes, o)
			}
		}
		if len(outcomes) != len(workloads) {
			t.Fatalf("trace %d: %d result lines for %d workloads\n%s", trace, len(outcomes), len(workloads), stdout.String())
		}
		for i, o := range outcomes {
			w := workloads[i].name
			if !o.Correct || o.Failed != 0 || o.Attempted < 1 {
				t.Errorf("%s trace %d: correct=%v attempted=%d failed=%d", w, trace, o.Correct, o.Attempted, o.Failed)
			}
			if len(o.Metrics) != len(want) {
				t.Errorf("%s trace %d: %d metrics, BENCHMARK.json names %d", w, trace, len(o.Metrics), len(want))
			}
			for _, c := range want {
				m, ok := o.Metrics[c.Name]
				switch {
				case !ok:
					t.Errorf("%s: metric %s missing", w, c.Name)
				case m.Unit != c.Unit:
					t.Errorf("%s: metric %s in %q, want %q", w, c.Name, m.Unit, c.Unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s: metric %s is %v", w, c.Name, m.Value)
				case trace == 0 && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v, must be positive", w, c.Name, m.Value)
				}
			}
		}
	}

	// The trace loads, and every request span names the gateway pass it
	// rode in.
	raw, err := os.ReadFile(filepath.Join(dir, "serve_open_b8.trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string
			Dur  float64
			Args struct{ ID, Parent int64 }
		}
	}
	if err := json.Unmarshal(raw, &trace); err != nil {
		t.Fatal(err)
	}
	passes, requests := map[int64]bool{}, 0
	for _, e := range trace.TraceEvents {
		if e.Name == spanGatewayPass {
			passes[e.Args.ID] = true
		}
	}
	for _, e := range trace.TraceEvents {
		if e.Name == spanRequest {
			requests++
			if !passes[e.Args.Parent] {
				t.Errorf("request span %d has parent %d, which is no gateway pass", e.Args.ID, e.Args.Parent)
			}
		}
	}
	if requests == 0 || len(passes) == 0 {
		t.Errorf("trace holds %d request and %d pass spans", requests, len(passes))
	}
}

// TestThroughputSubWindows pins throughput_img_s on a closed loop: the
// median over the window's parts, each measured between completions, so
// a stall that covers less than half of them leaves it alone.
func TestThroughputSubWindows(t *testing.T) {
	r := &result{workload: workload{kind: kindInfer}, wall: 10500 * time.Millisecond}
	for _, at := range []int{1, 2, 3, 4, 7, 8, 9, 10} { // one pass a second, stalled from 4 s to 7 s
		r.samples = append(r.samples, opSample{at: time.Duration(at) * time.Second, images: 8})
	}
	rate, parts := throughput(r)
	if rate != 8 || parts != 4 {
		t.Errorf("throughput = %v img/s over %d parts, want 8 over 4", rate, parts)
	}
}

// TestQuantile pins the interpolation the percentiles use.
func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {0.9, 3.7}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v", got)
	}
}
