package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
)

// wireExact is the relative difference below which two wire_mb_per_img
// figures count as equal: frames carry the session label, whose pass
// counter gains a digit now and then, so runs of different length
// differ in the seventh digit and a protocol change differs in the
// third.
const wireExact = 1e-5

// selfcheck states and tests the benchmark's own noise: the timed suite
// runs twice on the same code, and every end-to-end metric of the second
// run must be within its BENCHMARK.json bound of the first. What the
// program computes rather than times — bytes on the wire per image and
// the training digest — must not differ.
//
// Each workload of each round runs in a process of its own, as it does
// under the contract's driver: a process that has already run a
// workload sets the next one up a third faster (its heap is grown), so
// two suites in one process would not measure the same setup_s.
func selfcheck(o options, con contract, selected []workload, out io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("selfcheck: %w", err)
	}
	dir, err := os.MkdirTemp("", "trustddl-selfcheck")
	if err != nil {
		return fmt.Errorf("selfcheck: %w", err)
	}
	defer os.RemoveAll(dir)

	var rounds [2][]workloadReport
	for i := range rounds {
		fmt.Fprintf(out, "# selfcheck run %d of 2\n", i+1)
		var rep report
		for _, w := range selected {
			path := filepath.Join(dir, "result.json")
			cmd := exec.Command(exe, "-contract", o.contract, "-workload", w.name, "-json", path,
				"-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds))
			cmd.Stdout, cmd.Stderr = out, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("selfcheck: %s: %w", w.name, err)
			}
			buf, err := os.ReadFile(path)
			if err != nil {
				return fmt.Errorf("selfcheck: %w", err)
			}
			var one report
			if err := json.Unmarshal(buf, &one); err != nil {
				return fmt.Errorf("selfcheck: %s: %w", path, err)
			}
			if len(rep.Workloads) == 0 {
				rep = one // the stamp is the same for every child
			} else {
				rep.Workloads = append(rep.Workloads, one.Workloads...)
			}
		}
		rounds[i] = rep.Workloads
		if o.jsonPath != "" {
			if err := writeReport(fmt.Sprintf("%s.%d", o.jsonPath, i+1), &rep); err != nil {
				return err
			}
		}
	}

	fmt.Fprintf(out, "# selfcheck: second run against first\n")
	bad := 0
	flag := func(ok bool) string {
		if ok {
			return "ok"
		}
		bad++
		return "EXCEEDS"
	}
	for i, w := range selected {
		a, b := rounds[0][i], rounds[1][i]
		for _, c := range con.EndToEnd {
			va, vb := a.Metrics[c.Name].Value, b.Metrics[c.Name].Value
			gap := math.Abs(vb-va) / va
			limit := c.Bound
			if c.Name == mWire {
				limit = wireExact
			}
			fmt.Fprintf(out, "%-14s %-18s %14.6g %14.6g  gap %7.3f%%  bound %6.3f%%  %s\n",
				w.name, c.Name, va, vb, 100*gap, 100*limit, flag(gap <= limit))
		}
		if a.Digest != b.Digest {
			fmt.Fprintf(out, "%-14s train digest differs: %s vs %s  %s\n", w.name, a.Digest, b.Digest, flag(false))
		}
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d comparisons outside their bound", bad)
	}
	return nil
}
