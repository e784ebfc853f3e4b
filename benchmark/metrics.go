package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"
)

// metric is one named figure. N is the number of samples behind it
// (0 when it is a count or a ratio of totals).
type metric struct {
	Name  string  `json:"-"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// contract is BENCHMARK.json: the names, units, directions and
// regression bounds every result is checked against.
type contract struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadContract(path string) (contract, error) {
	var c contract
	buf, err := os.ReadFile(path)
	if err != nil {
		return c, err
	}
	if err := json.Unmarshal(buf, &c); err != nil {
		return c, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}

// Names of the end-to-end metrics.
const (
	mSetup      = "setup_s"
	mThroughput = "throughput_img_s"
	mLatencyP50 = "latency_ms_p50"
	mLatencyP90 = "latency_ms_p90"
	mWire       = "wire_mb_per_img"
	mCPU        = "cpu_s_per_img"
)

// endToEnd derives the metrics a user of the system would see from a
// timed run. Every workload reports every one of them: an operation is
// a TrainBatch/InferBatch call in the closed loops and a request, timed
// from its due instant at the reference rate, in the open loop. Every
// figure is taken over the whole timed window.
func endToEnd(r *result) ([]metric, error) {
	if r.images == 0 || len(r.samples) == 0 {
		return nil, fmt.Errorf("%s: no operation completed (%d attempted): %v", r.workload.name, r.ops, r.failures)
	}
	lat := make([]float64, len(r.samples))
	for i, s := range r.samples {
		lat[i] = s.ms
	}
	rate, parts := throughput(r)
	return []metric{
		{Name: mSetup, Value: median(r.setups), Unit: "s", N: len(r.setups)},
		{Name: mThroughput, Value: rate, Unit: "img/s", N: parts},
		{Name: mLatencyP50, Value: quantile(lat, 0.5), Unit: "ms", N: len(lat)},
		{Name: mLatencyP90, Value: quantile(lat, 0.9), Unit: "ms", N: len(lat)},
		{Name: mWire, Value: wirePerImage(r), Unit: "MB"},
		{Name: mCPU, Value: cpuPerImage(r), Unit: "s"},
	}, nil
}

// subWindows is how many equal parts a closed loop's window is cut into
// for throughput_img_s (5 s each at the contract's run length).
const subWindows = 5

// throughput is images completed per second and the number of
// sub-windows behind it. Closed loop: the median over the window's
// sub-windows, each running from the last completion before it to its
// own last completion, so that no pass is cut in two and a stall of a
// few seconds moves one part, not the figure. Open loop: requests
// completed over the whole ladder, which completes what its schedule
// offers.
func throughput(r *result) (float64, int) {
	if r.workload.kind == kindServe {
		return float64(r.images) / r.wall.Seconds(), 1
	}
	part := r.wall / subWindows
	var rates []float64
	images, from := 0, time.Duration(0)
	for i, s := range r.samples {
		images += s.images
		if last := i == len(r.samples)-1; last || r.samples[i+1].at/part != s.at/part {
			rates = append(rates, float64(images)/(s.at-from).Seconds())
			images, from = 0, s.at
		}
	}
	return median(rates), len(rates)
}

// cpuPerImage is the process CPU the window consumed per image.
func cpuPerImage(r *result) float64 { return r.proc.cpu.Seconds() / float64(r.images) }

// wirePerImage is the bytes the five actors sent per image, in MB.
// Closed loop: over the window, where every pass is the same. Open
// loop: over the passes that carried the fullest batch (the gateway's
// MaxBatch in any run long enough to queue), because a pass's bytes are
// a fixed part plus a part per image and how requests fall into batches
// is the machine's speed, not the program's traffic.
func wirePerImage(r *result) float64 {
	if r.workload.kind == kindServe {
		return mbOf(r.fullest.bytes) / float64(r.fullest.images)
	}
	return mbOf(r.wire.Bytes) / float64(r.images)
}

func mbOf(bytes int64) float64 { return float64(bytes) / (1 << 20) }

// maxRate is the highest offered rate the open loop sustained (0 when
// none, or on a closed-loop workload).
func maxRate(steps []rateStep) float64 {
	best := 0.0
	for _, st := range steps {
		if st.Sustained {
			best = max(best, st.Rate)
		}
	}
	return best
}

// outcome is the line the benchmark's contract asks for: whether every
// output check held, how many operations were attempted and failed,
// and the metrics by name.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func newOutcome(r *result, ms []metric) (outcome, error) {
	o := outcome{
		Correct:   r.failed == 0,
		Attempted: r.ops + r.checks,
		Failed:    r.failed,
		Metrics:   make(map[string]metric, len(ms)),
	}
	for _, m := range ms {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return o, fmt.Errorf("%s: metric %s is %v", r.workload.name, m.Name, m.Value)
		}
		// The contract's line carries value and unit only.
		o.Metrics[m.Name] = metric{Value: m.Value, Unit: m.Unit}
	}
	return o, nil
}
