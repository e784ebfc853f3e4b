// Package serve is the TrustDDL inference gateway: it fronts the
// batched secure engine with a long-lived service that coalesces
// concurrent client requests into dynamic batches, so every protocol
// round (triple deal, commitment, exchange, reveal) is amortized
// over the whole batch instead of paid per image.
//
// Admission control is a bounded queue with load shedding: when the
// queue is full, requests are rejected immediately (HTTP 429) rather
// than buffered without bound, so overload degrades into backpressure
// instead of memory growth.
//
// The gateway drives one or more engines (NewMulti): each engine gets
// its own dispatcher goroutine pulling batches from the shared queue.
// A secure pass holds its engine's whole three-party cluster, so
// passes are serialized per engine — with one engine, batching is the
// only source of intra-pass parallelism; with N engines the shared
// queue is itself the least-loaded dispatch policy, because an engine
// competes for the next batch exactly when it is idle.
//
// On top of dispatch sits the resilience layer (this file, DESIGN.md
// §15): every pass runs under a deadline, a failed or expired batch is
// re-dispatched onto a different healthy engine under a per-request
// retry budget, and a circuit breaker per engine turns consecutive
// pass failures into quarantine — the dispatcher parks, re-admission
// requires a clean probe pass, and a suspicion-ledger conviction
// (Evict) removes the engine permanently.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"github.com/trustddl/trustddl/internal/mnist"
	"github.com/trustddl/trustddl/internal/obs"
)

// Inferencer is the batched classification engine the gateway drives;
// core.Run implements it. InferBatch must return one label per input
// image, in input order, and must honor the context deadline: a pass
// that cannot finish by it returns an error wrapping
// context.DeadlineExceeded instead of blocking indefinitely.
type Inferencer interface {
	InferBatch(ctx context.Context, images []mnist.Image) ([]int, error)
}

// Config parameterizes a Gateway. The zero value selects the defaults
// documented on each field.
type Config struct {
	// MaxBatch caps how many queued requests one secure pass carries
	// (default 8).
	MaxBatch int
	// MaxDelay bounds how long the dispatcher waits after the first
	// request of a batch for more to arrive (default 2ms). Zero keeps
	// the default; negative disables waiting (greedy drain only).
	MaxDelay time.Duration
	// QueueBound is the admission-control queue capacity (default 256).
	// Requests beyond it are rejected with ErrOverloaded.
	QueueBound int

	// RequestTimeout is the per-pass deadline: a secure pass that has
	// not completed by it fails (and its batch is retried elsewhere).
	// Zero selects 30s; negative disables the deadline.
	RequestTimeout time.Duration
	// RetryBudget is how many times one request may be re-dispatched
	// after a failed or expired pass before its caller gets the error.
	// Zero selects 1; negative disables retries.
	RetryBudget int
	// FailThreshold is the consecutive pass-failure count at which an
	// engine is quarantined (default 2; negative disables the breaker).
	FailThreshold int
	// ProbeEvery is how often a quarantined engine attempts a probe
	// pass to earn re-admission (default 1s).
	ProbeEvery time.Duration
	// Probe is the held-out probe batch a quarantined engine must
	// classify cleanly before re-admission. Empty selects a plain cooldown:
	// after ProbeEvery the engine is re-admitted half-open and the next
	// real batch decides.
	Probe []mnist.Image
	// ProbeExpect, when non-empty, holds the reference label per probe
	// image; a probe pass whose labels disagree fails re-admission even
	// when the pass itself succeeds.
	ProbeExpect []int

	// Obs receives gateway metrics (serve.* names). Nil disables
	// metering.
	Obs *obs.Registry
}

// Errors returned by Classify (the HTTP handler maps them to
// 429/503).
var (
	// ErrOverloaded means the admission queue was full; retry later.
	ErrOverloaded = errors.New("serve: request queue full")
	// ErrClosed means the gateway shut down before serving the request.
	ErrClosed = errors.New("serve: gateway closed")
	// ErrRetriesExhausted means every allowed dispatch of the request's
	// batch failed; the last pass error is wrapped alongside it.
	ErrRetriesExhausted = errors.New("serve: retries exhausted")
	// ErrNoHealthyEngines means every engine has been evicted; the
	// gateway cannot serve until it is rebuilt.
	ErrNoHealthyEngines = errors.New("serve: no healthy engines")
)

// Engine circuit-breaker states.
const (
	engineHealthy = iota
	engineQuarantined
	engineEvicted
)

// engineHealth is one engine's circuit breaker: consecutive pass
// failures trip it into quarantine, a clean probe pass re-admits it,
// and Evict (suspicion-ledger conviction) removes it permanently.
type engineHealth struct {
	mu          sync.Mutex
	state       int
	consecFails int
}

func (h *engineHealth) current() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.state
}

// success resets the failure streak (and closes a half-open breaker).
func (h *engineHealth) success() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.consecFails = 0
	if h.state == engineQuarantined {
		h.state = engineHealthy
	}
}

// failure records one failed pass; with threshold > 0 it trips the
// breaker once the streak reaches it. Reports whether the engine is
// quarantined after this failure.
func (h *engineHealth) failure(threshold int) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.state == engineEvicted {
		return false
	}
	h.consecFails++
	if threshold > 0 && h.consecFails >= threshold {
		h.state = engineQuarantined
	}
	return h.state == engineQuarantined
}

// admit re-admits a quarantined engine after a clean probe.
func (h *engineHealth) admit() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.state == engineQuarantined {
		h.state = engineHealthy
		h.consecFails = 0
	}
}

// evict removes the engine permanently. Idempotent; reports whether
// this call did the eviction.
func (h *engineHealth) evict() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.state == engineEvicted {
		return false
	}
	h.state = engineEvicted
	return true
}

type reply struct {
	label int
	err   error
}

type pending struct {
	ctx   context.Context
	img   mnist.Image
	enq   time.Time
	reply chan reply

	// attempts counts failed dispatches so far; tried is the bitmask of
	// engines that already failed this request (engines ≥ 64 simply
	// don't participate in affinity — retries may land on them again).
	attempts int
	tried    uint64
}

// passResult carries one secure pass's outcome from its runner
// goroutine; the channel doubles as the orphan handle when the pass
// outlives its deadline.
type passResult struct {
	labels []int
	err    error
}

// Gateway batches concurrent Classify calls into secure passes.
type Gateway struct {
	engines []Inferencer
	health  []*engineHealth
	cfg     Config
	queue   chan *pending
	stop    chan struct{}
	wg      sync.WaitGroup

	mu     sync.RWMutex
	closed bool

	requests  *obs.Counter // admitted + rejected
	rejected  *obs.Counter // load-shed by the bounded queue
	cancelled *obs.Counter // dropped before dispatch: caller's ctx ended
	responses *obs.Counter // successful replies
	errored   *obs.Counter // replies carrying an engine error
	batches   *obs.Counter // secure passes dispatched
	images    *obs.Counter // images carried by those passes
	retries   *obs.Counter // entries re-dispatched after a failed pass
	exhausted *obs.Counter // entries failed after the retry budget
	probes    *obs.Counter // probe passes attempted by quarantined engines
	probeFail *obs.Counter // probe passes that failed
	depth     *obs.Gauge   // queue occupancy after the last enqueue/drain
	healthyG  *obs.Gauge   // engines currently healthy
	quarG     *obs.Gauge   // engines currently quarantined
	evictedG  *obs.Gauge   // engines evicted so far
	latency   *obs.Histogram
	passTime  *obs.Histogram

	perEngine []*obs.Counter // serve.engine.<i>.batches: dispatch balance
}

// New starts a gateway over a single engine. Close releases its
// dispatcher.
func New(inf Inferencer, cfg Config) *Gateway {
	return NewMulti([]Inferencer{inf}, cfg)
}

// NewMulti starts a gateway over several engines, each its own
// three-party cluster. Each engine gets its own dispatcher pulling
// from the shared admission queue, which yields least-loaded dispatch
// without a balancer: an idle engine is exactly one that is back at the
// queue competing for the next batch. Panics on an empty engine list.
func NewMulti(engines []Inferencer, cfg Config) *Gateway {
	if len(engines) == 0 {
		panic("serve: NewMulti with no engines")
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 8
	}
	if cfg.MaxDelay == 0 {
		cfg.MaxDelay = 2 * time.Millisecond
	}
	if cfg.QueueBound <= 0 {
		cfg.QueueBound = 256
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	if cfg.RetryBudget == 0 {
		cfg.RetryBudget = 1
	}
	if cfg.RetryBudget < 0 {
		cfg.RetryBudget = 0
	}
	if cfg.FailThreshold == 0 {
		cfg.FailThreshold = 2
	}
	if cfg.ProbeEvery <= 0 {
		cfg.ProbeEvery = time.Second
	}
	g := &Gateway{
		engines:   engines,
		cfg:       cfg,
		queue:     make(chan *pending, cfg.QueueBound),
		stop:      make(chan struct{}),
		requests:  cfg.Obs.Counter("serve.requests"),
		rejected:  cfg.Obs.Counter("serve.rejected"),
		cancelled: cfg.Obs.Counter("serve.cancelled"),
		responses: cfg.Obs.Counter("serve.responses"),
		errored:   cfg.Obs.Counter("serve.errors"),
		batches:   cfg.Obs.Counter("serve.batches"),
		images:    cfg.Obs.Counter("serve.images"),
		retries:   cfg.Obs.Counter("serve.retries"),
		exhausted: cfg.Obs.Counter("serve.retries.exhausted"),
		probes:    cfg.Obs.Counter("serve.probes"),
		probeFail: cfg.Obs.Counter("serve.probes.failed"),
		depth:     cfg.Obs.Gauge("serve.queue.depth"),
		healthyG:  cfg.Obs.Gauge("serve.healthy_engines"),
		quarG:     cfg.Obs.Gauge("serve.quarantined"),
		evictedG:  cfg.Obs.Gauge("serve.evicted"),
		latency:   cfg.Obs.Histogram("serve.latency"),
		passTime:  cfg.Obs.Histogram("serve.pass"),
	}
	cfg.Obs.Gauge("serve.engines").Set(int64(len(engines)))
	for i := range engines {
		g.health = append(g.health, &engineHealth{})
		g.perEngine = append(g.perEngine, cfg.Obs.Counter(fmt.Sprintf("serve.engine.%d.batches", i)))
	}
	g.updateHealthGauges()
	for i := range engines {
		g.wg.Add(1)
		go g.dispatch(i)
	}
	return g
}

// Engines returns the engine count.
func (g *Gateway) Engines() int { return len(g.engines) }

// HealthyEngines counts the engines currently in rotation (neither
// quarantined nor evicted). /readyz gates on it.
func (g *Gateway) HealthyEngines() int {
	n := 0
	for _, h := range g.health {
		if h.current() == engineHealthy {
			n++
		}
	}
	return n
}

// countState counts engines in one breaker state.
func (g *Gateway) countState(state int) int {
	n := 0
	for _, h := range g.health {
		if h.current() == state {
			n++
		}
	}
	return n
}

// servable reports whether any engine can still (eventually) serve:
// healthy now, or quarantined and thus eligible for re-admission.
func (g *Gateway) servable() bool {
	for _, h := range g.health {
		if h.current() != engineEvicted {
			return true
		}
	}
	return false
}

func (g *Gateway) updateHealthGauges() {
	g.healthyG.Set(int64(g.countState(engineHealthy)))
	g.quarG.Set(int64(g.countState(engineQuarantined)))
	g.evictedG.Set(int64(g.countState(engineEvicted)))
}

// Evict permanently removes an engine from rotation. The owner's
// suspicion watcher drives it: an engine whose ledger convicts a
// majority of its parties can no longer be trusted with passes, probe
// or not. Idempotent.
func (g *Gateway) Evict(engine int) {
	if engine < 0 || engine >= len(g.health) {
		return
	}
	if g.health[engine].evict() {
		g.updateHealthGauges()
	}
}

// Classify queues one image and blocks until its batch is served or
// ctx ends. Returns ErrOverloaded without blocking when the admission
// queue is full, ErrClosed when the gateway shuts down first,
// ErrNoHealthyEngines when every engine has been evicted, and
// ctx.Err() when the caller gives up — in that case the queued entry
// is dropped before dispatch (it never wastes a secure-pass slot) and
// counted in serve.cancelled.
func (g *Gateway) Classify(ctx context.Context, img mnist.Image) (int, error) {
	g.requests.Inc()
	if err := ctx.Err(); err != nil {
		// Dead on arrival: don't occupy a queue slot at all.
		g.cancelled.Inc()
		return 0, err
	}
	if !g.servable() {
		g.errored.Inc()
		return 0, ErrNoHealthyEngines
	}
	p := &pending{ctx: ctx, img: img, enq: time.Now(), reply: make(chan reply, 1)}
	// The enqueue happens under the read lock so Close (write lock)
	// cannot slip between the closed check and the send: once closed is
	// set, nothing new enters the queue, and everything already in it is
	// drained by the dispatcher's shutdown path. Every admitted request
	// therefore gets exactly one reply.
	g.mu.RLock()
	if g.closed {
		g.mu.RUnlock()
		return 0, ErrClosed
	}
	select {
	case g.queue <- p:
		g.depth.Set(int64(len(g.queue)))
		g.mu.RUnlock()
	default:
		g.mu.RUnlock()
		g.rejected.Inc()
		return 0, ErrOverloaded
	}
	select {
	case r := <-p.reply:
		if r.err != nil {
			g.errored.Inc()
			return 0, r.err
		}
		g.responses.Inc()
		g.latency.Observe(time.Since(p.enq))
		return r.label, nil
	case <-ctx.Done():
		// The entry stays queued; the dispatcher notices the dead ctx
		// and drops it before the next pass. The reply channel is
		// buffered, so a reply that races the cancellation is simply
		// discarded and nothing blocks.
		return 0, ctx.Err()
	}
}

// dispatch is one engine's batcher loop: take one request, wait at
// most MaxDelay for the batch to fill, run one secure pass on this
// engine, fan the labels back out. With several engines the loops
// compete for the shared queue, so batches land on whichever engine is
// idle. The loop also owns the engine's breaker life cycle: a
// quarantined engine parks here, probing for re-admission, and an
// evicted engine's loop exits once another engine can carry the queue.
func (g *Gateway) dispatch(engine int) {
	defer g.wg.Done()
	// orphan, when non-nil, is the result channel of a pass abandoned at
	// its deadline. The engine's cluster is single-consumer: no new pass
	// (probe included) may start until the abandoned one has fully
	// unwound, so the loop head always settles the orphan first. A
	// truly wedged pass keeps the engine parked — exactly right, the
	// committee is unusable — while the other engines carry the load.
	var orphan chan passResult
	for {
		if orphan != nil {
			select {
			case <-orphan:
				orphan = nil
			case <-g.stop:
				g.drain()
				return
			}
		}
		switch g.health[engine].current() {
		case engineEvicted:
			if g.servable() {
				// Another engine owns the queue now.
				return
			}
			// Every engine is gone: fail queued work fast instead of
			// letting deadline-less callers block forever.
			select {
			case p := <-g.queue:
				p.reply <- reply{err: ErrNoHealthyEngines}
			case <-g.stop:
				g.drain()
				return
			}
			continue
		case engineQuarantined:
			select {
			case <-time.After(g.cfg.ProbeEvery):
			case <-g.stop:
				g.drain()
				return
			}
			var ok bool
			ok, orphan = g.probe(engine)
			if ok {
				g.health[engine].admit()
				g.updateHealthGauges()
			}
			continue
		}
		var first *pending
		select {
		case first = <-g.queue:
		case <-g.stop:
			g.drain()
			return
		}
		if g.health[engine].current() == engineEvicted {
			// Evicted while blocked on the queue: never serve on a
			// convicted committee, not even the batch just pulled.
			g.requeue(first, ErrNoHealthyEngines, false)
			continue
		}
		batch := g.collect(first)
		g.depth.Set(int64(len(g.queue)))
		orphan = g.serve(engine, batch)
	}
}

// collect grows a batch around its first request until MaxBatch is
// reached or MaxDelay elapses.
func (g *Gateway) collect(first *pending) []*pending {
	batch := []*pending{first}
	if g.cfg.MaxBatch == 1 {
		return batch
	}
	// Greedy phase: anything already queued joins for free.
	for len(batch) < g.cfg.MaxBatch {
		select {
		case p := <-g.queue:
			batch = append(batch, p)
			continue
		default:
		}
		break
	}
	if len(batch) == g.cfg.MaxBatch || g.cfg.MaxDelay < 0 {
		return batch
	}
	timer := time.NewTimer(g.cfg.MaxDelay)
	defer timer.Stop()
	for len(batch) < g.cfg.MaxBatch {
		select {
		case p := <-g.queue:
			batch = append(batch, p)
		case <-timer.C:
			return batch
		case <-g.stop:
			// Serve what we have; the next loop iteration shuts down.
			return batch
		}
	}
	return batch
}

// runPass executes one deadline-bounded secure pass. On success or
// engine error the orphan channel is nil; when the deadline expires
// first, the pass result channel is returned so the dispatcher can
// wait out the abandoned pass before reusing the engine.
func (g *Gateway) runPass(engine int, imgs []mnist.Image) ([]int, error, chan passResult) {
	ctx := context.Background()
	cancel := context.CancelFunc(func() {})
	if g.cfg.RequestTimeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, g.cfg.RequestTimeout)
	}
	ch := make(chan passResult, 1)
	go func() {
		defer cancel()
		labels, err := g.engines[engine].InferBatch(ctx, imgs)
		ch <- passResult{labels: labels, err: err}
	}()
	select {
	case r := <-ch:
		return r.labels, r.err, nil
	case <-ctx.Done():
		// Deadline first: the pass is abandoned. Usually the engine's
		// own deadline plumbing makes it return moments later; if it is
		// wedged (a peer stalled mid-send), the orphan handle keeps the
		// engine parked until it unwinds.
		return nil, fmt.Errorf("serve: pass deadline: %w", ctx.Err()), ch
	}
}

// shouldBounce reports whether the entry already failed on this engine
// while some other engine, not yet tried, could take it — the failover
// half of the retry story.
func (g *Gateway) shouldBounce(engine int, p *pending) bool {
	if engine >= 64 || p.tried&(1<<uint(engine)) == 0 {
		return false
	}
	for i, h := range g.health {
		if i == engine || i >= 64 {
			continue
		}
		if h.current() == engineHealthy && p.tried&(1<<uint(i)) == 0 {
			return true
		}
	}
	return false
}

// serve runs one secure pass over the batch on the given engine and
// replies to every member. A pass error no longer fans out directly:
// each affected entry is re-dispatched under its retry budget, and
// only exhaustion surfaces the error to the caller. Entries whose
// caller already gave up are dropped here, after collection and before
// the pass, so a cancelled request never occupies a secure-pass slot.
// Entries that already failed on this engine bounce back to the queue
// for a different engine when one is available. Returns the orphan
// handle of a deadline-abandoned pass (nil otherwise).
func (g *Gateway) serve(engine int, batch []*pending) chan passResult {
	live := batch[:0]
	bounced := 0
	for _, p := range batch {
		if err := p.ctx.Err(); err != nil {
			g.cancelled.Inc()
			p.reply <- reply{err: err} // buffered; discarded by the gone caller
			continue
		}
		if g.shouldBounce(engine, p) {
			select {
			case g.queue <- p:
				bounced++
				continue
			default:
				// Queue full: a same-engine retry beats failing the entry.
			}
		}
		live = append(live, p)
	}
	batch = live
	if len(batch) == 0 {
		if bounced > 0 {
			// Everything bounced and the queue is otherwise empty: yield
			// briefly so this dispatcher doesn't spin re-pulling entries
			// that are waiting for a different engine.
			select {
			case <-time.After(time.Millisecond):
			case <-g.stop:
			}
		}
		return nil
	}
	imgs := make([]mnist.Image, len(batch))
	for i, p := range batch {
		imgs[i] = p.img
	}
	start := time.Now()
	labels, err, orphan := g.runPass(engine, imgs)
	g.passTime.Observe(time.Since(start))
	g.batches.Inc()
	g.perEngine[engine].Inc()
	g.images.Add(int64(len(batch)))
	if err == nil && len(labels) != len(batch) {
		err = fmt.Errorf("serve: engine returned %d labels for %d images", len(labels), len(batch))
	}
	if err == nil {
		g.health[engine].success()
		g.updateHealthGauges()
		for i, p := range batch {
			p.reply <- reply{label: labels[i]}
		}
		return nil
	}
	if g.health[engine].failure(g.cfg.FailThreshold) {
		g.updateHealthGauges()
	}
	for _, p := range batch {
		if engine < 64 {
			p.tried |= 1 << uint(engine)
		}
		g.requeue(p, err, true)
	}
	return orphan
}

// requeue re-dispatches one entry after a failed pass, spending one
// unit of its retry budget when charge is set (an eviction race
// re-queues without charging — the entry was never attempted). When
// the budget is spent, the queue is full, or the gateway is closing,
// the caller gets the terminal error instead.
func (g *Gateway) requeue(p *pending, passErr error, charge bool) {
	if err := p.ctx.Err(); err != nil {
		g.cancelled.Inc()
		p.reply <- reply{err: err}
		return
	}
	if charge {
		p.attempts++
		if p.attempts > g.cfg.RetryBudget {
			g.exhausted.Inc()
			p.reply <- reply{err: fmt.Errorf("%w (%d attempts): %v", ErrRetriesExhausted, p.attempts, passErr)}
			return
		}
		g.retries.Inc()
	}
	g.mu.RLock()
	if g.closed {
		g.mu.RUnlock()
		p.reply <- reply{err: ErrClosed}
		return
	}
	select {
	case g.queue <- p:
		g.mu.RUnlock()
	default:
		g.mu.RUnlock()
		g.exhausted.Inc()
		p.reply <- reply{err: fmt.Errorf("%w (queue full during retry): %v", ErrRetriesExhausted, passErr)}
	}
}

// probe runs the re-admission check for a quarantined engine: a
// deadline-bounded pass over the configured probe batch, with labels
// checked against ProbeExpect when present. With no probe batch
// configured the breaker degrades to a plain cooldown (half-open:
// ProbeEvery elapsed, next real batch decides). Returns ok and the
// orphan handle of a deadline-abandoned probe.
func (g *Gateway) probe(engine int) (bool, chan passResult) {
	if len(g.cfg.Probe) == 0 {
		return true, nil
	}
	g.probes.Inc()
	labels, err, orphan := g.runPass(engine, g.cfg.Probe)
	if err != nil {
		g.probeFail.Inc()
		return false, orphan
	}
	if len(labels) != len(g.cfg.Probe) {
		g.probeFail.Inc()
		return false, nil
	}
	for i, want := range g.cfg.ProbeExpect {
		if labels[i] != want {
			g.probeFail.Inc()
			return false, nil
		}
	}
	return true, nil
}

// drain answers everything still queued at shutdown with ErrClosed.
// Every dispatcher runs it on exit; the concurrent receives are safe
// and between them leave the queue empty.
func (g *Gateway) drain() {
	for {
		select {
		case p := <-g.queue:
			p.reply <- reply{err: ErrClosed}
		default:
			g.depth.Set(0)
			return
		}
	}
}

// Close stops admitting requests, fails everything still queued with
// ErrClosed and waits for every dispatcher to exit. The final drain
// after the join sweeps entries a dispatcher re-queued (retry or
// bounce) after another dispatcher's drain had already run, and the
// queue of an all-evicted gateway whose dispatchers exited early —
// every admitted request still gets exactly one reply. Idempotent.
func (g *Gateway) Close() {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return
	}
	g.closed = true
	g.mu.Unlock()
	close(g.stop)
	g.wg.Wait()
	g.drain()
}

// Request is the JSON body of POST /infer: one flattened 28×28 image.
type Request struct {
	Pixels []float64 `json:"pixels"`
}

// Response is the JSON body of a successful inference.
type Response struct {
	Label int `json:"label"`
}

// errorBody is the JSON body of a failed inference.
type errorBody struct {
	Error string `json:"error"`
}

// maxBodyBytes bounds an /infer request body (784 float64 literals fit
// comfortably; anything larger is malformed or hostile).
const maxBodyBytes = 1 << 20

// retryAfterSeconds derives the backpressure hint from live state:
// the queued work ahead of a new request, over the gateway's observed
// drain rate (mean pass time across healthy engines, batch-granular).
// With no pass history yet it falls back to 1s; the hint is clamped to
// [1, 60] seconds because it is a hint, not a contract.
func (g *Gateway) retryAfterSeconds() int {
	healthy := g.HealthyEngines()
	if healthy == 0 {
		// Quarantined engines re-probe on the ProbeEvery cadence; tell
		// clients to stay away at least that long.
		s := int((g.cfg.ProbeEvery + time.Second - 1) / time.Second)
		if s < 1 {
			s = 1
		}
		if s > 60 {
			s = 60
		}
		return s
	}
	n := g.passTime.Count()
	if n == 0 {
		return 1
	}
	meanPass := g.passTime.Sum() / time.Duration(n)
	batches := (len(g.queue) + g.cfg.MaxBatch - 1) / g.cfg.MaxBatch
	wait := time.Duration(batches) * meanPass / time.Duration(healthy)
	s := int((wait + time.Second - 1) / time.Second)
	if s < 1 {
		s = 1
	}
	if s > 60 {
		s = 60
	}
	return s
}

// Handler exposes the gateway over HTTP:
//
//	POST /infer    {"pixels":[...784 floats...]} → {"label":N}
//	GET  /healthz  liveness probe: the process is up and answering
//	GET  /readyz   readiness probe: 200 only while at least one engine
//	               is healthy, 503 otherwise (load balancers route away)
//
// Overload maps to 429 with a Retry-After hint derived from queue
// depth and observed pass time; retry-budget exhaustion and engine
// failures map to 503 (with the same hint where retrying can help).
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/infer", g.handleInfer)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if g.HealthyEngines() == 0 {
			w.Header().Set("Retry-After", fmt.Sprint(g.retryAfterSeconds()))
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "no healthy engines")
			return
		}
		fmt.Fprintln(w, "ok")
	})
	return mux
}

func (g *Gateway) handleInfer(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "POST only"})
		return
	}
	var req Request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad request body: " + err.Error()})
		return
	}
	if len(req.Pixels) != mnist.NumPixels {
		writeJSON(w, http.StatusBadRequest, errorBody{
			Error: fmt.Sprintf("want %d pixels, got %d", mnist.NumPixels, len(req.Pixels)),
		})
		return
	}
	var img mnist.Image
	copy(img.Pixels[:], req.Pixels)
	label, err := g.Classify(r.Context(), img)
	switch {
	case errors.Is(err, ErrOverloaded):
		w.Header().Set("Retry-After", fmt.Sprint(g.retryAfterSeconds()))
		writeJSON(w, http.StatusTooManyRequests, errorBody{Error: err.Error()})
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// The client hung up; nobody is reading the response. 499 in
		// nginx parlance — net/http has no name for it.
		w.WriteHeader(499)
	case errors.Is(err, ErrRetriesExhausted), errors.Is(err, ErrNoHealthyEngines):
		// Transient capacity loss: a retry after the hint may land on a
		// re-admitted or different engine.
		w.Header().Set("Retry-After", fmt.Sprint(g.retryAfterSeconds()))
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
	case err != nil:
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
	default:
		writeJSON(w, http.StatusOK, Response{Label: label})
	}
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(body); err != nil {
		// The status line is already gone; nothing useful left to do.
		_ = err
	}
}
