package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	mathrand "math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"sync"
	"time"

	"github.com/trustddl/trustddl/internal/mnist"
	"github.com/trustddl/trustddl/internal/obs"
	"github.com/trustddl/trustddl/internal/protocol"
	"github.com/trustddl/trustddl/internal/serve"
	"github.com/trustddl/trustddl/internal/suspicion"
	"github.com/trustddl/trustddl/internal/transport"
)

// Span names.
const (
	spanRequest     = "request"            // one request through the gateway handler, from its due instant
	spanPass        = "pass"               // one TrainBatch/InferBatch call of a closed loop
	spanGatewayPass = "gateway.InferBatch" // one pass the gateway issued
)

const (
	// digestSteps is how many training steps precede the weight digest;
	// they double as the training warm-up. Runs shorter than smokeBelow
	// warm up for smokeSteps only.
	digestSteps = 20
	smokeSteps  = 2
	smokeBelow  = 5 * time.Second
	// A run that trained accuracySteps steps or more must classify the
	// held-out images at minAccuracy or better when its window ends
	// (seeds 1-3 reach 0.72 or more by step 60; chance is 0.1).
	accuracySteps = 60
	minAccuracy   = 0.5
	// maxMismatchShare is the share of infer_byz_b4's passes that may
	// differ from the honest reference before the run fails: the system
	// gets about one attacked pass in 3000 wrong (README, known
	// anomalies), a broken decision rule gets most of them wrong.
	maxMismatchShare = 0.01
	// setupRepeats is how many times the system is set up per run;
	// setup_s is the median.
	setupRepeats = 9
	// setupPauseShare: the pause before each set-up is the window
	// divided by this.
	setupPauseShare = 200
	// maxWarmup caps the time-based warm-up (pools fill, TCP dials,
	// lazy initialisation); shorter runs warm up for a quarter of
	// their window.
	maxWarmup = 2 * time.Second
)

// The open loop's arrival rates (requests per second) and each rate's
// share of the window. Latency is reported at refRate, which gets most
// of the window so its percentiles have enough samples; the other rates
// locate the knee.
var (
	serveRates  = []float64{20, 30, 40, 60, 90}
	serveShares = []float64{0.1, 0.6, 0.1, 0.1, 0.1}
)

const (
	refRate = 30.0
	// A rate is sustained when its p95 stays under latencyLimit, no
	// request fails or is refused, and the backlog left at the last
	// send drains within drainLimit.
	latencyLimit = 250 * time.Millisecond
	drainLimit   = time.Second
)

// runOpts selects one run of one workload.
type runOpts struct {
	window time.Duration
	traced bool // obs registry attached and spans recorded
}

// opSample is one successful operation of the timed window.
type opSample struct {
	at     time.Duration // when it completed (closed loop) or was due (open loop), from the window's start
	ms     float64       // its latency
	images int
}

// rateStep is one open-loop step at a fixed arrival rate.
type rateStep struct {
	Rate      float64 `json:"rate_rps"`
	Seconds   float64 `json:"seconds"`
	Sent      int     `json:"sent"`
	Failed    int     `json:"failed"`
	Rejected  int     `json:"rejected"`
	P50       float64 `json:"req_ms_p50"`
	P95       float64 `json:"req_ms_p95"`
	LateMaxMs float64 `json:"generator_late_ms_max"`
	DrainMs   float64 `json:"drain_ms"`
	Sustained bool    `json:"sustained"`
	// From the spans of a traced run.
	QueueWaitP50 float64 `json:"queue_wait_ms_p50,omitempty"`
	QueueWaitP95 float64 `json:"queue_wait_ms_p95,omitempty"`
	MeanBatch    float64 `json:"mean_batch,omitempty"`
	PassesPerS   float64 `json:"passes_per_s,omitempty"`
	PassP50      float64 `json:"pass_ms_p50,omitempty"`

	samples    []opSample // successful requests, in due order
	errs       []error    // failed requests
	start, end time.Time
}

// result is everything one run of one workload measured.
type result struct {
	workload workload

	setups    []float64     // seconds, one per repeat
	provision time.Duration // the Cluster.NewRun part of the last set-up

	wall     time.Duration // timed window, as run
	images   int           // images (requests) completed in the window
	ops      int           // passes (requests) attempted in the window
	failed   int           // of ops, plus failed checks
	checks   int           // output checks made beside the per-op ones
	failures []string      // first few, for the report
	// Replies of the attacked workload that differed from the honest
	// reference: a known anomaly of the system (README), reported and
	// bounded by maxMismatchShare, not counted one by one in failed.
	mismatches int
	anomalies  []string // first few, for the report
	// samples holds every successful operation whose latency the
	// workload reports: all passes of a closed loop, the reference-rate
	// requests of the open loop.
	samples   []opSample
	passes    int64      // secure passes in the window (== ops in closed loops; from the registry, so traced runs only, in the open loop)
	steps     []rateStep // serve only
	wire      transport.Stats
	fullest   batchTally // serve only: the window's passes that carried the fullest batch
	proc      procDelta
	owner     protocol.OwnerStats
	suspicion suspicion.Report
	reg       obs.Snapshot // window delta; traced runs only
	spans     []span

	digest   string  // train only
	accuracy float64 // train only
}

func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// check records one output check beside the per-op ones.
func (r *result) check(ok bool, format string, args ...any) {
	r.checks++
	if !ok {
		r.fail(format, args...)
	}
}

// runWorkload sets the system up, warms it, measures one window and
// verifies the outputs. ref holds the honest reference labels of the
// pool images the inference workloads draw from (unused by training).
func runWorkload(w workload, in inputs, ref []int, opts runOpts) (*result, error) {
	res := &result{workload: w}
	var reg *obs.Registry
	var spans *spanLog
	if opts.traced {
		reg = obs.NewRegistry("benchmark")
		spans = &spanLog{}
	}

	// Set up several times and keep the last; the earlier ones exist
	// only to give setup_s a median.
	var d *deployment
	for i := 0; i < setupRepeats; i++ {
		if d != nil {
			if err := d.close(); err != nil {
				return nil, fmt.Errorf("%s: close: %w", w.name, err)
			}
		}
		// Collect first, so that no set-up pays for the previous one's
		// garbage: without this their times scatter by 30-50 %, with it
		// by 3-10 %. Then pause, so that the repeats span about a second
		// of a full-length run and not all of them land in one burst of
		// a noisy neighbour.
		runtime.GC()
		time.Sleep(opts.window / setupPauseShare)
		var err error
		if d, err = deploy(w, in, reg, spans); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		res.setups = append(res.setups, d.total.Seconds())
	}
	res.provision = d.provision

	var err error
	switch w.kind {
	case kindTrain:
		err = res.trainLoop(d, in, opts, spans)
	case kindInfer:
		err = res.inferLoop(d, in, ref, opts, spans)
	case kindServe:
		err = res.openLoop(d, in, ref, opts, spans)
	}
	if err != nil {
		_ = d.close()
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}

	res.suspicion = d.cluster.Suspicions()
	if w.byz {
		c := res.suspicion.Convicted
		res.check(slices.Contains(c, byzParty), "convicted %v, want party %d among them", c, byzParty)
		res.check(float64(res.mismatches) <= maxMismatchShare*float64(res.ops),
			"%d of %d attacked passes differed from the honest reference, want at most %.0f %%", res.mismatches, res.ops, 100*maxMismatchShare)
	}
	res.spans = spans.snapshot()
	if err := d.close(); err != nil {
		return nil, fmt.Errorf("%s: close: %w", w.name, err)
	}
	return res, nil
}

// counters is a reading of everything the benchmark meters from
// outside the program, taken at both ends of the timed window.
type counters struct {
	proc  procCounters
	wire  transport.Stats
	owner protocol.OwnerStats
	reg   obs.Snapshot
}

func readCounters(d *deployment) counters {
	return counters{
		wire:  d.cluster.Stats(),
		owner: d.cluster.OwnerStats(),
		reg:   d.cluster.Obs().Snapshot(),
		proc:  readProc(),
	}
}

// window records what the timed window consumed: b minus a.
func (r *result) window(a, b counters) {
	r.wall = b.proc.at.Sub(a.proc.at)
	r.proc = a.proc.until(b.proc)
	r.wire = statsDelta(a.wire, b.wire)
	r.owner = protocol.OwnerStats{
		Calls:        b.owner.Calls - a.owner.Calls,
		TriplesDealt: b.owner.TriplesDealt - a.owner.TriplesDealt,
	}
	r.reg = snapshotDelta(a.reg, b.reg)
}

func statsDelta(a, b transport.Stats) transport.Stats {
	d := transport.Stats{Messages: b.Messages - a.Messages, Bytes: b.Bytes - a.Bytes}
	for i := range d.PerActor {
		d.PerActor[i] = transport.ActorStats{
			Messages: b.PerActor[i].Messages - a.PerActor[i].Messages,
			Bytes:    b.PerActor[i].Bytes - a.PerActor[i].Bytes,
		}
	}
	return d
}

// snapshotDelta subtracts counters and histogram totals; gauges keep
// their final value.
func snapshotDelta(a, b obs.Snapshot) obs.Snapshot {
	d := obs.Snapshot{
		Name:       b.Name,
		Counters:   make(map[string]int64, len(b.Counters)),
		Gauges:     b.Gauges,
		Histograms: make(map[string]obs.HistogramSnapshot, len(b.Histograms)),
	}
	for name, v := range b.Counters {
		d.Counters[name] = v - a.Counters[name]
	}
	for name, h := range b.Histograms {
		prev := a.Histograms[name]
		d.Histograms[name] = obs.HistogramSnapshot{Count: h.Count - prev.Count, SumNanos: h.SumNanos - prev.SumNanos}
	}
	return d
}

// closedLoop is the one-caller generator: op(i) runs the i-th pass and
// returns how many images it carried; the next pass starts when the
// previous one returned. warm bounds the untimed warm-up, by time or —
// when warmOps > 0 — by pass count.
func (r *result) closedLoop(d *deployment, opts runOpts, spans *spanLog, warmOps int, afterWarm func() error, op func(i int) (int, error)) error {
	i := 0
	warmStart := time.Now()
	warming := func() bool {
		if warmOps > 0 {
			return i < warmOps
		}
		return time.Since(warmStart) < min(maxWarmup, opts.window/4)
	}
	for ; warming(); i++ {
		if _, err := op(i); err != nil {
			return fmt.Errorf("warm-up pass %d: %w", i, err)
		}
	}
	if afterWarm != nil {
		if err := afterWarm(); err != nil {
			return err
		}
	}

	before := readCounters(d)
	start := before.proc.at
	for ; time.Since(start) < opts.window; i++ {
		s := spans.begin(spanPass, 0, int64(i))
		t0 := time.Now()
		n, err := op(i)
		end := time.Now()
		s.end()
		r.ops++
		if err != nil {
			r.fail("pass %d: %v", i, err)
			continue
		}
		r.images += n
		r.samples = append(r.samples, opSample{at: end.Sub(start), ms: ms(end.Sub(t0)), images: n})
	}
	after := readCounters(d)
	r.window(before, after)
	r.passes = int64(r.ops)
	return nil
}

func (r *result) trainLoop(d *deployment, in inputs, opts runOpts, spans *spanLog) error {
	w := r.workload
	train := in.images[:len(in.images)-heldOut]
	held := mnist.Dataset{Images: in.images[len(in.images)-heldOut:]}
	batches := len(train) / w.batch
	warmOps := digestSteps
	if opts.window < smokeBelow {
		warmOps = smokeSteps
	}
	digest := func() error {
		weights, err := d.run.WeightMatrices()
		if err != nil {
			return fmt.Errorf("reveal weights: %w", err)
		}
		h := sha256.New()
		var word [8]byte
		for _, m := range weights {
			for _, v := range m.Data {
				binary.LittleEndian.PutUint64(word[:], math.Float64bits(v))
				h.Write(word[:])
			}
		}
		r.digest = fmt.Sprintf("%d steps: %s", warmOps, hex.EncodeToString(h.Sum(nil)))
		return nil
	}
	err := r.closedLoop(d, opts, spans, warmOps, digest, func(i int) (int, error) {
		at := (i % batches) * w.batch
		return w.batch, d.run.TrainBatch(train[at:at+w.batch], trainLR)
	})
	if err != nil {
		return err
	}
	steps := warmOps + r.ops
	if steps < accuracySteps {
		return nil
	}
	if r.accuracy, err = d.run.Evaluate(held, 0, 32); err != nil {
		return fmt.Errorf("evaluate: %w", err)
	}
	r.check(r.accuracy >= minAccuracy, "accuracy %.3f on %d held-out images after %d steps, want >= %.2f", r.accuracy, heldOut, steps, minAccuracy)
	return nil
}

func (r *result) inferLoop(d *deployment, in inputs, ref []int, opts runOpts, spans *spanLog) error {
	w := r.workload
	batches := len(ref) / w.batch
	return r.closedLoop(d, opts, spans, 0, nil, func(i int) (int, error) {
		at := (i % batches) * w.batch
		labels, err := d.run.InferBatch(context.Background(), in.images[at:at+w.batch])
		if err != nil {
			return 0, err
		}
		for j, got := range labels {
			if got == ref[at+j] {
				continue
			}
			if !w.byz {
				return 0, fmt.Errorf("image %d: label %d, honest reference %d", at+j, got, ref[at+j])
			}
			r.mismatches++
			if len(r.anomalies) < 8 {
				r.anomalies = append(r.anomalies, fmt.Sprintf("pass %d: image %d: label %d, honest reference %d", i, at+j, got, ref[at+j]))
			}
			break
		}
		return w.batch, nil
	})
}

// openLoop is the independent-users generator: one pacing goroutine
// releases requests on a Poisson schedule drawn from the seed, whatever
// the system's state; each in-flight request is a parked goroutine
// calling the gateway's handler in-process. A request is timed from the
// instant it was due.
func (r *result) openLoop(d *deployment, in inputs, ref []int, opts runOpts, spans *spanLog) error {
	handler := d.gateway.Handler()
	bodies := make([][]byte, len(ref))
	for i, img := range in.images[:len(ref)] {
		body, err := json.Marshal(serve.Request{Pixels: img.Pixels[:]})
		if err != nil {
			return fmt.Errorf("encode request %d: %w", i, err)
		}
		bodies[i] = body
	}
	rng := mathrand.New(mathrand.NewPCG(in.seed, 0x0be1100b))

	// request sends image k mod len(ref) and verifies the reply.
	request := func(k int) error {
		i := k % len(bodies)
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/infer", bytes.NewReader(bodies[i])))
		if rec.Code != http.StatusOK {
			return statusError(rec.Code)
		}
		var reply serve.Response
		if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
			return fmt.Errorf("decode reply: %w", err)
		}
		if reply.Label != ref[i] {
			return fmt.Errorf("image %d: label %d, honest reference %d", i, reply.Label, ref[i])
		}
		return nil
	}

	// step offers rate req/s for dur and waits for the backlog to drain.
	// A Poisson process that releases n requests within dur releases them
	// at n instants drawn uniformly from it; n is fixed at rate·dur, so
	// every seed offers the same load.
	next := 0
	step := func(rate float64, dur time.Duration) rateStep {
		dues := make([]time.Duration, int(math.Round(rate*dur.Seconds())))
		for i := range dues {
			dues[i] = time.Duration(rng.Float64() * float64(dur))
		}
		slices.Sort(dues)
		st := rateStep{Rate: rate, start: time.Now()}
		type sent struct {
			opSample
			err error
		}
		var all []*sent // appended by the pacer only; each request fills its own
		var wg sync.WaitGroup
		lastSend := st.start
		for _, at := range dues {
			due := st.start.Add(at)
			time.Sleep(time.Until(due))
			lastSend = time.Now()
			st.LateMaxMs = max(st.LateMaxMs, ms(lastSend.Sub(due)))
			k := next
			next++
			req := &sent{opSample: opSample{at: at, images: 1}}
			all = append(all, req)
			wg.Add(1)
			go func(due time.Time) {
				defer wg.Done()
				s := spans.beginAt(spanRequest, due, int64(k))
				req.err = request(k)
				if s != nil {
					s.s.Parent = d.passes.passOf(k % len(bodies))
				}
				s.end()
				req.ms = ms(time.Since(due))
			}(due)
		}
		wg.Wait()
		st.end = time.Now()
		st.Sent = len(all)
		st.DrainMs = ms(st.end.Sub(lastSend))
		st.Seconds = st.end.Sub(st.start).Seconds()
		var latencies []float64
		for _, req := range all {
			switch {
			case req.err == nil:
				st.samples = append(st.samples, req.opSample)
				latencies = append(latencies, req.ms)
			case req.err == statusError(http.StatusTooManyRequests):
				st.Rejected++
				fallthrough
			default:
				st.Failed++
				st.errs = append(st.errs, req.err)
			}
		}
		st.P50, st.P95 = quantile(latencies, 0.5), quantile(latencies, 0.95)
		st.Sustained = st.Failed == 0 && st.Sent > 0 &&
			st.P95 <= ms(latencyLimit) && st.DrainMs <= ms(drainLimit)
		return st
	}

	warm := step(refRate, min(maxWarmup, opts.window/4))
	if warm.Failed > 0 {
		return fmt.Errorf("warm-up: %d of %d requests failed: %w", warm.Failed, warm.Sent, warm.errs[0])
	}
	before, talliesBefore := readCounters(d), d.passes.tallies()
	for i, rate := range serveRates {
		st := step(rate, time.Duration(serveShares[i]*float64(opts.window)))
		r.steps = append(r.steps, st)
		r.ops += st.Sent
		r.images += len(st.samples)
		for _, err := range st.errs {
			r.fail("%.0f req/s: %v", rate, err)
		}
		if rate == refRate {
			r.samples = st.samples
		}
	}
	after := readCounters(d)
	r.window(before, after)
	r.fullest = fullestBatch(talliesBefore, d.passes.tallies())
	r.passes = r.reg.Counters["core.infer.ops"]
	return nil
}

type statusError int

func (s statusError) Error() string { return fmt.Sprintf("HTTP %d", int(s)) }
