// Command benchmark is the repository's one benchmark: four workloads
// over the real system (a secure training step, a secure inference pass
// on a socket transport, the same pass under attack, and requests
// through the serving gateway), the end-to-end metrics a user would
// see, and a traced run that attributes them to layers. BENCHMARK.json
// at the repository root names every metric with its unit, direction
// and regression bound; README.md says what each one means.
//
//	go run ./benchmark [-workload name] [-seed N] [-seconds S] [-trace 0|1]
//	                   [-trace-out dir] [-json path] [-selfcheck]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// How a traced run's -seconds are spent: the traced window, an untraced
// window of the same workload to price the tracing, and the layer
// probes.
const (
	tracedShare = 0.5
	plainShare  = 0.2
	probeShare  = 0.3
)

type options struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     int
	traceOut  string
	jsonPath  string
	contract  string
	selfcheck bool
}

// report is the result file -json writes: where and how the numbers
// were taken, then one entry per workload run.
type report struct {
	Commit     string           `json:"commit"`
	GoVersion  string           `json:"go_version"`
	CPU        string           `json:"cpu"`
	NumCPU     int              `json:"nproc"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Seed       uint64           `json:"seed"`
	Seconds    float64          `json:"seconds"`
	Trace      int              `json:"trace"`
	Workloads  []workloadReport `json:"workloads"`
}

type workloadReport struct {
	Name string `json:"name"`
	outcome
	// Extra holds figures that are not in BENCHMARK.json because they
	// are zero or undefined on some workload.
	Extra      map[string]metric `json:"extra,omitempty"`
	Steps      []rateStep        `json:"rate_steps,omitempty"`
	Digest     string            `json:"train_digest,omitempty"`
	Accuracy   float64           `json:"train_accuracy,omitempty"`
	Convicted  []int             `json:"convicted"`
	Evidence   []string          `json:"evidence,omitempty"`
	Failures   []string          `json:"failures,omitempty"`
	Anomalies  []string          `json:"anomalies,omitempty"`
	WindowSecs float64           `json:"window_seconds"`
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run only this workload (default: all four)")
	fs.Uint64Var(&o.seed, "seed", 1, "seed of every generated input and of the dealers")
	fs.Float64Var(&o.seconds, "seconds", 0, "seconds one run measures (default: run_seconds of BENCHMARK.json)")
	fs.IntVar(&o.trace, "trace", 0, "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics")
	fs.StringVar(&o.traceOut, "trace-out", "", "with -trace 1, write <workload>.trace.json (Chrome trace format) into this directory")
	fs.StringVar(&o.jsonPath, "json", "", "write the stamped result file here")
	fs.StringVar(&o.contract, "contract", "BENCHMARK.json", "path of BENCHMARK.json")
	fs.BoolVar(&o.selfcheck, "selfcheck", false, "run the timed suite twice and fail when the two disagree by more than the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := realMain(o, stdout); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return 0
}

func realMain(o options, out io.Writer) error {
	con, err := loadContract(o.contract)
	if err != nil {
		return fmt.Errorf("read contract (run from the repository root, or pass -contract): %w", err)
	}
	if o.seconds <= 0 {
		o.seconds = float64(con.RunSeconds)
	}
	if o.seed == 0 {
		return fmt.Errorf("-seed 0 would select crypto/rand dealers; inputs must come from the seed")
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", o.trace)
	}
	selected := workloads
	if o.workload != "" {
		w, ok := findWorkload(o.workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		selected = []workload{w}
	}
	if o.selfcheck {
		return selfcheck(o, con, selected, out)
	}
	rep, err := suite(o, con, selected, out)
	if err != nil {
		return err
	}
	if o.jsonPath != "" {
		if err := writeReport(o.jsonPath, rep); err != nil {
			return err
		}
	}
	for _, w := range rep.Workloads {
		if !w.Correct {
			return fmt.Errorf("%s: %d of %d operations failed: %s", w.Name, w.Failed, w.Attempted, strings.Join(w.Failures, "; "))
		}
	}
	return nil
}

// suite runs the selected workloads once each, prints every metric and,
// after each workload, the contract's result line.
func suite(o options, con contract, selected []workload, out io.Writer) (*report, error) {
	rep := &report{
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
	}
	if o.jsonPath != "" {
		rep.Commit, rep.CPU = gitCommit(), cpuModel()
	}
	in, err := makeInputs(o.seed)
	if err != nil {
		return nil, err
	}
	var ref []int
	for _, w := range selected {
		if w.kind != kindTrain {
			n := min(poolImages, max(minRefImages, int(refPerSecond*o.seconds)))
			if ref, err = referenceLabels(in, n); err != nil {
				return nil, err
			}
			break
		}
	}
	window := func(share float64) time.Duration {
		return time.Duration(share * o.seconds * float64(time.Second))
	}
	for _, w := range selected {
		var wr workloadReport
		if o.trace == 0 {
			res, err := runWorkload(w, in, ref, runOpts{window: window(1)})
			if err != nil {
				return nil, err
			}
			if wr, err = timedReport(res, con); err != nil {
				return nil, err
			}
		} else {
			plain, err := runWorkload(w, in, ref, runOpts{window: window(plainShare)})
			if err != nil {
				return nil, err
			}
			traced, err := runWorkload(w, in, ref, runOpts{window: window(tracedShare), traced: true})
			if err != nil {
				return nil, err
			}
			probes, err := runProbes(w, in, window(probeShare))
			if err != nil {
				return nil, fmt.Errorf("%s: probes: %w", w.name, err)
			}
			if wr, err = tracedReport(plain, traced, probes, con); err != nil {
				return nil, err
			}
			if o.traceOut != "" {
				if err := os.MkdirAll(o.traceOut, 0o755); err != nil {
					return nil, err
				}
				if err := writeChromeTrace(filepath.Join(o.traceOut, w.name+".trace.json"), traced.spans); err != nil {
					return nil, err
				}
			}
		}
		printWorkload(out, wr, con, o.trace)
		rep.Workloads = append(rep.Workloads, wr)
	}
	return rep, nil
}

func baseReport(r *result) workloadReport {
	wr := workloadReport{
		Name:       r.workload.name,
		Steps:      r.steps,
		Digest:     r.digest,
		Accuracy:   r.accuracy,
		Convicted:  append([]int{}, r.suspicion.Convicted...),
		Failures:   r.failures,
		Anomalies:  r.anomalies,
		WindowSecs: r.wall.Seconds(),
	}
	for _, e := range r.suspicion.Evidence {
		wr.Evidence = append(wr.Evidence, fmt.Sprintf("party %d %s ×%d, first at %s step %s", e.Party, e.Kind, e.Count, e.Session, e.Step))
	}
	return wr
}

func timedReport(r *result, con contract) (workloadReport, error) {
	wr := baseReport(r)
	ms, err := endToEnd(r)
	if err != nil {
		return wr, err
	}
	if wr.outcome, err = newOutcome(r, ms); err != nil {
		return wr, err
	}
	if err := covers(wr.Metrics, con.EndToEnd); err != nil {
		return wr, err
	}
	wr.Extra = map[string]metric{
		"failed_share":  {Value: float64(wr.Failed) / float64(wr.Attempted), Unit: "ratio"},
		"ops_attempted": {Value: float64(wr.Attempted), Unit: "count"},
		"ops_failed":    {Value: float64(wr.Failed), Unit: "count"},
	}
	for _, m := range ms {
		if m.N > 0 {
			wr.Extra[m.Name+".samples"] = metric{Value: float64(m.N), Unit: "count"}
		}
	}
	if r.workload.kind == kindServe {
		wr.Extra["max_rate_rps"] = metric{Value: maxRate(r.steps), Unit: "req/s"}
	}
	if r.workload.byz {
		wr.Extra["reply_mismatches"] = metric{Value: float64(r.mismatches), Unit: "count"}
	}
	return wr, nil
}

func tracedReport(plain, traced *result, probes []metric, con contract) (workloadReport, error) {
	ms, err := perLayer(plain, traced)
	if err != nil {
		return workloadReport{}, err
	}
	wr := baseReport(traced)
	ms = append(ms, probes...)
	if wr.outcome, err = newOutcome(traced, ms); err != nil {
		return wr, err
	}
	// The untraced comparison window's operations were checked too.
	wr.Attempted += plain.ops + plain.checks
	wr.Failed += plain.failed
	wr.Correct = wr.Failed == 0
	wr.Failures = append(wr.Failures, plain.failures...)
	return wr, covers(wr.Metrics, con.PerLayer)
}

// covers reports contract metrics the run did not produce or produced
// under another unit, and metrics the contract does not name.
func covers(got map[string]metric, want []contractMetric) error {
	named := make(map[string]bool, len(want))
	for _, c := range want {
		named[c.Name] = true
		m, ok := got[c.Name]
		if !ok {
			return fmt.Errorf("metric %s of BENCHMARK.json was not measured", c.Name)
		}
		if m.Unit != c.Unit {
			return fmt.Errorf("metric %s has unit %q, BENCHMARK.json says %q", c.Name, m.Unit, c.Unit)
		}
	}
	for name := range got {
		if !named[name] {
			return fmt.Errorf("metric %s is not in BENCHMARK.json", name)
		}
	}
	return nil
}

func printWorkload(out io.Writer, wr workloadReport, con contract, trace int) {
	fmt.Fprintf(out, "== %s (%.1f s window)\n", wr.Name, wr.WindowSecs)
	order := con.EndToEnd
	if trace == 1 {
		order = con.PerLayer
	}
	for _, c := range order {
		m := wr.Metrics[c.Name]
		fmt.Fprintf(out, "%-36s %14.6g %s\n", c.Name, m.Value, m.Unit)
	}
	for _, name := range sortedKeys(wr.Extra) {
		m := wr.Extra[name]
		fmt.Fprintf(out, "%-36s %14.6g %s\n", name, m.Value, m.Unit)
	}
	for _, st := range wr.Steps {
		fmt.Fprintf(out, "rate %3.0f req/s: sent %4d failed %d rejected %d  p50 %7.2f ms  p95 %7.2f ms  generator late max %5.2f ms  drain %6.1f ms  sustained %v\n",
			st.Rate, st.Sent, st.Failed, st.Rejected, st.P50, st.P95, st.LateMaxMs, st.DrainMs, st.Sustained)
	}
	if wr.Digest != "" {
		fmt.Fprintf(out, "train digest after %s\n", wr.Digest)
	}
	if wr.Accuracy > 0 {
		fmt.Fprintf(out, "train accuracy on %d held-out images: %.3f\n", heldOut, wr.Accuracy)
	}
	fmt.Fprintf(out, "convicted %v\n", wr.Convicted)
	for _, e := range wr.Evidence {
		fmt.Fprintln(out, "evidence:", e)
	}
	for _, a := range wr.Anomalies {
		fmt.Fprintln(out, "ANOMALY:", a)
	}
	for _, f := range wr.Failures {
		fmt.Fprintln(out, "FAILED:", f)
	}
	line, err := json.Marshal(wr.outcome)
	if err != nil {
		// outcome holds only finite numbers and strings.
		panic(err)
	}
	fmt.Fprintf(out, "%s\n", line)
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func writeReport(path string, rep *report) error {
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return fmt.Errorf("encode report: %w", err)
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return fmt.Errorf("write report: %w", err)
	}
	return nil
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	commit := strings.TrimSpace(string(out))
	if dirty, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(dirty) > 0 {
		commit += "+dirty"
	}
	return commit
}

func cpuModel() string {
	buf, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}
