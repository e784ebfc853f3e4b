// Package committee is TrustDDL's horizontal scale-out layer: an
// inter-committee coordinator that runs N independent 3-party
// committees, shards training batches data-parallel across them, and
// merges their per-epoch weight deltas under a Byzantine-robust
// aggregation rule (coordinate-median or CenteredClip), so an entirely
// compromised committee — not just one party — is outvoted.
//
// Each committee is a full TrustDDL deployment (three computing
// parties, model owner, data owner) over its own transport, with its
// own deterministic dealer seeds, its own suspicion ledger and its own
// Byzantine-fault containment. The coordinator sits above them in the
// model owner's trust domain: it holds the global plaintext weights
// (which the model owner reveals every epoch anyway — that is the
// paper's training output), distributes them to every committee at
// epoch start, and captures each committee's trained weights at epoch
// end. The plaintext never crosses into any computing party's domain;
// inside a committee the weights exist only as shares.
//
// Fault handling is tiered (see screen.go): a probe batch catches
// catastrophic poisoning with attribution, statistical screening
// catches outliers at N ≥ 3, the robust rule bounds whatever survives
// screening, and each committee's internal ledger rolls up into a
// global one — a committee whose internal majority is convicted is
// itself convicted. Convicted or repeatedly failing committees are
// excluded and their shards re-routed to the survivors within the same
// epoch, so no training data is lost with the committee.
package committee

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/trustddl/trustddl/internal/core"
	"github.com/trustddl/trustddl/internal/mnist"
	"github.com/trustddl/trustddl/internal/nn"
	"github.com/trustddl/trustddl/internal/obs"
	"github.com/trustddl/trustddl/internal/protocol"
	"github.com/trustddl/trustddl/internal/suspicion"
	"github.com/trustddl/trustddl/internal/tensor"
	"github.com/trustddl/trustddl/internal/transport"
)

// Config parameterizes a coordinator. The zero value of every optional
// field selects the documented default.
type Config struct {
	// Committees is the committee count N (default 1).
	Committees int
	// Rule selects the delta aggregation (default RuleMedian).
	Rule Rule
	// Mode is each committee's adversary model (default core.Malicious).
	Mode core.Mode
	// Triples selects each committee's dealing strategy (default
	// OnlineDealing).
	Triples core.TripleMode
	// Seed, when nonzero, makes every committee deterministic: committee
	// i derives its own dealer seed, so the N triple streams are
	// independent of each other and of N itself. Zero selects live
	// randomness per committee.
	Seed uint64
	// Timeout is each committee's per-message receive timer.
	Timeout time.Duration
	// Optimistic enables the reduced-redundancy opening per committee.
	Optimistic bool
	// SuspicionThreshold configures both each committee's internal
	// ledger and the coordinator's global ledger (0 selects
	// suspicion.DefaultThreshold).
	SuspicionThreshold int
	// SuspicionTolerance is passed through to each committee.
	SuspicionTolerance float64
	// Latency, when positive, wraps every committee's transport in a
	// simulated one-way propagation delay (scaling experiments on one
	// machine; DESIGN.md §14).
	Latency time.Duration
	// Adversaries makes parties Byzantine: committee ID (1-based) →
	// party ID → adversary. A fully poisoned committee is
	// Adversaries[c] = {1: adv, 2: adv, 3: adv}.
	Adversaries map[int]map[int]protocol.Adversary
	// Interceptors rewrites parties' outbound traffic (drops, stalls,
	// delays): committee ID (1-based) → party ID → interceptor. The
	// chaos drills use gated interceptors (byzantine.CrashRestart,
	// byzantine.StallWhile) to open fault windows on one committee
	// while the gateway keeps serving on the others.
	Interceptors map[int]map[int]transport.SendInterceptor

	// ProbeSize is the held-out screening batch size (default 32).
	ProbeSize int
	// ProbeMargin is the probe-loss regression beyond which a delta
	// earns attributable evidence (default 1.0 nats).
	ProbeMargin float64
	// ProbeHardFactor and ProbeHardSlack set the proven-tier bound:
	// loss > base×factor + slack convicts outright (defaults 3 and 3).
	ProbeHardFactor float64
	ProbeHardSlack  float64
	// DeviationFactor is the statistical-tier outlier bound: a delta
	// farther than this multiple of the median distance from the
	// aggregate is flagged (default 4; only applied at N ≥ 3).
	DeviationFactor float64
	// MaxFailures is the consecutive-error count after which a
	// committee is excluded operationally (default 2). Errors are
	// circumstantial — a crashed committee is excluded but never
	// convicted.
	MaxFailures int

	// ClipRadius is the CenteredClip clipping radius (0 self-tunes to
	// the median delta distance); ClipIters its iteration count
	// (default 3).
	ClipRadius float64
	ClipIters  int

	// Obs, when non-nil, receives committee-tier metrics (committee.*)
	// and every committee's full metric stream.
	Obs *obs.Registry
}

func (cfg *Config) defaults() {
	if cfg.Committees <= 0 {
		cfg.Committees = 1
	}
	if cfg.Rule == "" {
		cfg.Rule = RuleMedian
	}
	if cfg.Mode == 0 {
		cfg.Mode = core.Malicious
	}
	if cfg.Triples == 0 {
		cfg.Triples = core.OnlineDealing
	}
	if cfg.ProbeSize <= 0 {
		cfg.ProbeSize = 32
	}
	if cfg.ProbeMargin <= 0 {
		cfg.ProbeMargin = 1.0
	}
	if cfg.ProbeHardFactor <= 0 {
		cfg.ProbeHardFactor = 3
	}
	if cfg.ProbeHardSlack <= 0 {
		cfg.ProbeHardSlack = 3
	}
	if cfg.DeviationFactor <= 0 {
		cfg.DeviationFactor = 4
	}
	if cfg.MaxFailures <= 0 {
		cfg.MaxFailures = 2
	}
	if cfg.ClipIters <= 0 {
		cfg.ClipIters = 3
	}
}

// memberSeedStride spreads committee dealer seeds across the u64 ring
// (the golden-ratio increment), so committee i's triple stream shares
// no prefix with committee j's regardless of N.
const memberSeedStride = 0x9e3779b97f4a7c15

// member is one committee plus the coordinator's bookkeeping about it.
type member struct {
	id      int // 1-based committee ID
	cluster *core.Cluster
	run     *core.Run
	net     transport.Network // owned by the coordinator, not the cluster

	failures int  // consecutive epoch errors (operational, resets on success)
	excluded bool // out of sharding, aggregation and serving
	rolledUp bool // internal compromise already in the global ledger
}

// Coordinator shards training across committees and merges their
// updates. It is not safe for concurrent use by multiple goroutines —
// like core.Cluster, it is a single driver; concurrency lives inside
// the committees (and, for serving, in the gateway above Engines()).
type Coordinator struct {
	cfg     Config
	arch    nn.Arch
	weights []nn.Mat64 // the global plaintext model, model-owner domain
	members []*member
	ledger  *suspicion.Ledger // party index = committee ID
	probe   *probe
	epoch   int

	epochs   *obs.Counter
	flagged  *obs.Counter
	rerouted *obs.Counter
	excluded *obs.Gauge
	live     *obs.Gauge
	epochHst *obs.Histogram
}

// New builds a coordinator and its N committees, and provisions every
// committee with the initial weights. On error, everything already
// started is torn down.
func New(arch nn.Arch, weights []nn.Mat64, cfg Config) (*Coordinator, error) {
	cfg.defaults()
	if _, err := arch.Validate(mnist.NumPixels); err != nil {
		return nil, err
	}
	probe, err := newProbe(cfg.Seed, cfg.ProbeSize)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		cfg:      cfg,
		arch:     arch,
		weights:  cloneWeights(weights),
		ledger:   suspicion.NewLedger(cfg.SuspicionThreshold),
		probe:    probe,
		epochs:   cfg.Obs.Counter("committee.epochs"),
		flagged:  cfg.Obs.Counter("committee.flagged"),
		rerouted: cfg.Obs.Counter("committee.rerouted.shards"),
		excluded: cfg.Obs.Gauge("committee.excluded"),
		live:     cfg.Obs.Gauge("committee.live"),
	}
	c.ledger.SetObs(cfg.Obs)
	c.epochHst = cfg.Obs.Histogram("committee.epoch")
	for id := 1; id <= cfg.Committees; id++ {
		m, err := c.startMember(id)
		if err != nil {
			_ = c.Close()
			return nil, fmt.Errorf("committee %d: %w", id, err)
		}
		c.members = append(c.members, m)
	}
	if err := c.provisionAll(); err != nil {
		_ = c.Close()
		return nil, err
	}
	c.live.Set(int64(len(c.members)))
	return c, nil
}

// startMember stands up one committee over its own in-process
// transport (optionally behind a simulated propagation delay).
func (c *Coordinator) startMember(id int) (*member, error) {
	var net transport.Network = transport.NewChanNetwork()
	if c.cfg.Latency > 0 {
		net = transport.WithLatency(net, c.cfg.Latency)
	}
	seed := c.cfg.Seed
	if seed != 0 {
		seed += uint64(id) * memberSeedStride
		if seed == 0 {
			seed = memberSeedStride // keep determinism even on wraparound
		}
	}
	cluster, err := core.New(core.Config{
		Mode:               c.cfg.Mode,
		Triples:            c.cfg.Triples,
		Net:                net,
		Timeout:            c.cfg.Timeout,
		Seed:               seed,
		Adversaries:        c.cfg.Adversaries[id],
		Interceptors:       c.cfg.Interceptors[id],
		Optimistic:         c.cfg.Optimistic,
		SuspicionThreshold: c.cfg.SuspicionThreshold,
		SuspicionTolerance: c.cfg.SuspicionTolerance,
		Obs:                c.cfg.Obs,
	})
	if err != nil {
		_ = net.Close()
		return nil, err
	}
	return &member{id: id, cluster: cluster, net: net}, nil
}

// provisionAll re-deals the global weights to every live committee.
// Re-provisioning at each epoch boundary discards the committees' local
// drift (their shard-trained weights) in favor of the aggregated model
// — that is the synchronization point of data-parallel training.
func (c *Coordinator) provisionAll() error {
	return c.forEachLive(func(m *member) error {
		run, err := m.cluster.NewRunArch(c.arch, cloneWeights(c.weights))
		if err != nil {
			return fmt.Errorf("committee %d: provision: %w", m.id, err)
		}
		m.run = run
		return nil
	})
}

// liveMembers returns the committees still in rotation.
func (c *Coordinator) liveMembers() []*member {
	var out []*member
	for _, m := range c.members {
		if !m.excluded {
			out = append(out, m)
		}
	}
	return out
}

// forEachLive runs fn concurrently on every live committee and joins
// the errors. Committees are independent deployments; overlapping their
// protocol rounds is the entire point of the scale-out.
func (c *Coordinator) forEachLive(fn func(*member) error) error {
	live := c.liveMembers()
	errs := make([]error, len(live))
	var wg sync.WaitGroup
	for i, m := range live {
		wg.Add(1)
		go func(i int, m *member) {
			defer wg.Done()
			errs[i] = fn(m)
		}(i, m)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// shard partitions n samples into k contiguous, balanced ranges.
func shard(n, k int) [][2]int {
	out := make([][2]int, k)
	base, rem := n/k, n%k
	at := 0
	for i := range out {
		size := base
		if i < rem {
			size++
		}
		out[i] = [2]int{at, at + size}
		at += size
	}
	return out
}

// trainShard drives one committee through its shard in batches.
func trainShard(m *member, images []mnist.Image, batch int, lr float64) error {
	for at := 0; at < len(images); at += batch {
		end := at + batch
		if end > len(images) {
			end = len(images)
		}
		if err := m.run.TrainBatch(images[at:end], lr); err != nil {
			return fmt.Errorf("committee %d: batch at %d: %w", m.id, at, err)
		}
	}
	return nil
}

// EpochReport summarizes one coordinator epoch.
type EpochReport struct {
	// Epoch is 1-based.
	Epoch int `json:"epoch"`
	// Aggregated is the number of committee deltas merged into the
	// global update.
	Aggregated int `json:"aggregated"`
	// Flagged lists committees whose delta was screened out this epoch.
	Flagged []int `json:"flagged,omitempty"`
	// Failed lists committees whose epoch errored (circumstantial).
	Failed []int `json:"failed,omitempty"`
	// Rerouted is the number of shards re-trained on survivors.
	Rerouted int `json:"rerouted"`
	// Excluded lists committees out of rotation after this epoch.
	Excluded []int `json:"excluded,omitempty"`
}

// TrainEpoch shards one pass over the training set across the live
// committees, screens and merges their weight deltas, re-routes the
// shards of flagged or failed committees to the survivors, applies the
// aggregated update to the global model and re-provisions every live
// committee with it.
func (c *Coordinator) TrainEpoch(train mnist.Dataset, batch int, lr float64) (EpochReport, error) {
	if batch <= 0 || lr <= 0 {
		return EpochReport{}, fmt.Errorf("committee: invalid batch %d / lr %v", batch, lr)
	}
	c.epoch++
	rep := EpochReport{Epoch: c.epoch}
	start := time.Now()
	defer func() {
		c.epochs.Inc()
		c.epochHst.Observe(time.Since(start))
	}()

	live := c.liveMembers()
	if len(live) == 0 {
		return rep, fmt.Errorf("committee: no live committees")
	}
	shards := shard(train.Len(), len(live))

	// Phase A: every live committee trains its shard and the
	// coordinator captures its delta, concurrently.
	type outcome struct {
		d   delta
		err error
	}
	outcomes := make(map[int]*outcome, len(live))
	for _, m := range live {
		outcomes[m.id] = &outcome{}
	}
	var wg sync.WaitGroup
	for i, m := range live {
		wg.Add(1)
		go func(m *member, span [2]int) {
			defer wg.Done()
			out := outcomes[m.id]
			if out.err = trainShard(m, train.Images[span[0]:span[1]], batch, lr); out.err != nil {
				return
			}
			var trained []nn.Mat64
			if trained, out.err = m.run.WeightMatrices(); out.err != nil {
				return
			}
			out.d, out.err = subWeights(trained, c.weights)
		}(m, shards[i])
	}
	wg.Wait()

	// Phase B: screening. Probe tier first (attributed, per committee),
	// then — with enough peers — the statistical tier against a
	// provisional aggregate.
	base, err := c.probe.loss(c.arch, c.weights)
	if err != nil {
		return rep, err
	}
	session := fmt.Sprintf("epoch/%d", c.epoch)
	flagged := make(map[int]bool)
	var ids []int
	var ds []delta
	for _, m := range live {
		out := outcomes[m.id]
		if out.err != nil {
			m.failures++
			rep.Failed = append(rep.Failed, m.id)
			c.ledger.Record(m.id, suspicion.KindOpenTimeout, session, out.err.Error())
			flagged[m.id] = true
			continue
		}
		m.failures = 0
		if v := c.screenProbe(m.id, base, out.d); v.flagged() {
			c.ledger.Record(v.committee, v.kind, session, v.detail)
			c.flagged.Inc()
			flagged[m.id] = true
			rep.Flagged = append(rep.Flagged, m.id)
			continue
		}
		ids = append(ids, m.id)
		ds = append(ds, out.d)
	}
	if len(ds) == 0 {
		return rep, fmt.Errorf("committee: epoch %d: every committee's delta was flagged or failed", c.epoch)
	}
	if agg, err := aggregateDeltas(c.cfg.Rule, ds, c.cfg.ClipRadius, c.cfg.ClipIters); err == nil {
		for _, v := range c.screenDistance(ids, ds, agg) {
			c.ledger.Record(v.committee, v.kind, session, v.detail)
			c.flagged.Inc()
			flagged[v.committee] = true
			rep.Flagged = append(rep.Flagged, v.committee)
		}
	}

	// Phase C: re-route. The flagged/failed committees' shards carry
	// real training data; the survivors absorb them (split round-robin)
	// on top of their own shard before the final capture, so the merged
	// update still covers the whole epoch.
	survivors := make([]*member, 0, len(live))
	for _, m := range live {
		if !flagged[m.id] {
			survivors = append(survivors, m)
		}
	}
	if len(survivors) == 0 {
		return rep, fmt.Errorf("committee: epoch %d: no surviving committees", c.epoch)
	}
	if len(survivors) < len(live) {
		var rerouteErr error
		var rwg sync.WaitGroup
		var mu sync.Mutex
		next := 0
		for i, m := range live {
			if !flagged[m.id] {
				continue
			}
			span := shards[i]
			tgt := survivors[next%len(survivors)]
			next++
			rep.Rerouted++
			c.rerouted.Inc()
			rwg.Add(1)
			go func(tgt *member, span [2]int) {
				defer rwg.Done()
				if err := trainShard(tgt, train.Images[span[0]:span[1]], batch, lr); err != nil {
					mu.Lock()
					rerouteErr = errors.Join(rerouteErr, err)
					mu.Unlock()
				}
			}(tgt, span)
		}
		rwg.Wait()
		if rerouteErr != nil {
			return rep, fmt.Errorf("committee: epoch %d reroute: %w", c.epoch, rerouteErr)
		}
		// Recapture the survivors: their deltas now include the
		// re-routed shards.
		ids = ids[:0]
		ds = ds[:0]
		var cwg sync.WaitGroup
		caps := make([]outcome, len(survivors))
		for i, m := range survivors {
			cwg.Add(1)
			go func(i int, m *member) {
				defer cwg.Done()
				var trained []nn.Mat64
				if trained, caps[i].err = m.run.WeightMatrices(); caps[i].err != nil {
					return
				}
				caps[i].d, caps[i].err = subWeights(trained, c.weights)
			}(i, m)
		}
		cwg.Wait()
		for i, m := range survivors {
			if caps[i].err != nil {
				return rep, fmt.Errorf("committee %d: recapture: %w", m.id, caps[i].err)
			}
			ids = append(ids, m.id)
			ds = append(ds, caps[i].d)
		}
	}

	// Phase D: the final aggregate over the surviving deltas becomes
	// the global update. The robust center of K per-shard deltas has
	// the magnitude of ONE shard's progress, so it is scaled by K —
	// the local-SGD summation rule with the robust center replacing
	// the mean — and a coordinator epoch advances the model like one
	// full sequential pass regardless of the committee count.
	// Robustness is unaffected: every surviving delta already passed
	// screening, the center is bounded by the honest deltas
	// coordinate-wise, and the scale is a public constant.
	agg, err := aggregateDeltas(c.cfg.Rule, ds, c.cfg.ClipRadius, c.cfg.ClipIters)
	if err != nil {
		return rep, err
	}
	scaleDelta(agg, float64(len(ds)))
	rep.Aggregated = len(ds)
	c.weights = addWeights(c.weights, agg)

	// Phase E: ledger rollup, exclusion, re-provision.
	for _, m := range c.members {
		if !m.excluded {
			c.rollupInternal(m, c.epoch)
		}
	}
	c.updateExclusions()
	rep.Excluded = c.ExcludedCommittees()
	if err := c.provisionAll(); err != nil {
		return rep, err
	}
	return rep, nil
}

// updateExclusions takes committees out of rotation: global-ledger
// convictions (Byzantine) and repeated operational failures (crashed).
func (c *Coordinator) updateExclusions() {
	convicted := make(map[int]bool)
	for _, id := range c.ledger.Convicted() {
		convicted[id] = true
	}
	var excluded int64
	for _, m := range c.members {
		if convicted[m.id] || m.failures >= c.cfg.MaxFailures {
			m.excluded = true
		}
		if m.excluded {
			excluded++
		}
	}
	c.excluded.Set(excluded)
	c.live.Set(int64(len(c.members)) - excluded)
}

// ExcludedCommittees lists the committees out of rotation, ascending.
func (c *Coordinator) ExcludedCommittees() []int {
	var out []int
	for _, m := range c.members {
		if m.excluded {
			out = append(out, m.id)
		}
	}
	return out
}

// TrainConfig parameterizes Train (mirrors core.TrainConfig).
type TrainConfig struct {
	Epochs    int
	Batch     int
	LR        float64
	EvalLimit int
	// OnEpoch, when non-nil, observes each epoch's accuracy and report.
	OnEpoch func(rep EpochReport, accuracy float64)
}

// EpochResult is one accuracy data point.
type EpochResult struct {
	Epoch    int
	Accuracy float64
	Report   EpochReport
}

// Train runs the full sharded training experiment: epochs of
// committee-parallel secure SGD with per-epoch robust aggregation and
// plaintext test accuracy on the global model.
func (c *Coordinator) Train(train, test mnist.Dataset, tc TrainConfig) ([]EpochResult, error) {
	if tc.Epochs <= 0 || tc.Batch <= 0 || tc.LR <= 0 {
		return nil, fmt.Errorf("committee: invalid train config %+v", tc)
	}
	results := make([]EpochResult, 0, tc.Epochs)
	for epoch := 1; epoch <= tc.Epochs; epoch++ {
		rep, err := c.TrainEpoch(train, tc.Batch, tc.LR)
		if err != nil {
			return results, fmt.Errorf("committee: epoch %d: %w", epoch, err)
		}
		acc, err := c.Evaluate(test, tc.EvalLimit)
		if err != nil {
			return results, err
		}
		results = append(results, EpochResult{Epoch: epoch, Accuracy: acc, Report: rep})
		if tc.OnEpoch != nil {
			tc.OnEpoch(rep, acc)
		}
	}
	return results, nil
}

// Evaluate computes test accuracy of the global model over up to limit
// samples (0 = all) — plaintext, in the model owner's domain, like the
// per-epoch probe.
func (c *Coordinator) Evaluate(ds mnist.Dataset, limit int) (float64, error) {
	n := ds.Len()
	if limit > 0 && limit < n {
		n = limit
	}
	if n == 0 {
		return 0, fmt.Errorf("committee: empty evaluation set")
	}
	net, err := c.arch.BuildPlain(c.weights)
	if err != nil {
		return 0, err
	}
	correct := 0
	const evalBatch = 64
	for at := 0; at < n; at += evalBatch {
		end := at + evalBatch
		if end > n {
			end = n
		}
		x, err := imagesMatrix(ds.Images[at:end])
		if err != nil {
			return 0, err
		}
		pred, err := net.Predict(x)
		if err != nil {
			return 0, err
		}
		for i, label := range pred {
			if label == ds.Images[at+i].Label {
				correct++
			}
		}
	}
	return float64(correct) / float64(n), nil
}

// imagesMatrix flattens images into an input matrix.
func imagesMatrix(images []mnist.Image) (nn.Mat64, error) {
	if len(images) == 0 {
		return nn.Mat64{}, fmt.Errorf("committee: empty batch")
	}
	x := tensor.MustNew[float64](len(images), mnist.NumPixels)
	for i, img := range images {
		copy(x.Data[i*mnist.NumPixels:(i+1)*mnist.NumPixels], img.Pixels[:])
	}
	return x, nil
}

// Weights returns a copy of the global plaintext model.
func (c *Coordinator) Weights() []nn.Mat64 { return cloneWeights(c.weights) }

// Arch returns the architecture the coordinator trains.
func (c *Coordinator) Arch() nn.Arch { return c.arch }

// Engines returns the live committees' secure inference engines, one
// per committee, for a multi-engine serving gateway. Each implements
// serve.Inferencer (InferBatch); the package does not import serve so
// the dependency points gateway → committee.
func (c *Coordinator) Engines() []*core.Run {
	var out []*core.Run
	for _, m := range c.liveMembers() {
		if m.run != nil {
			out = append(out, m.run)
		}
	}
	return out
}

// ServeProbe draws the gateway's held-out probe batch from the same
// stream as the screening probe (newProbe), so a quarantined engine's
// re-admission check never collides with any committee's training
// shard. The gateway runs this batch through a quarantined engine
// before letting real traffic back onto it.
func (c *Coordinator) ServeProbe(size int) []mnist.Image {
	if size <= 0 {
		size = 8
	}
	return mnist.Synthetic(c.cfg.Seed^probeSeedTag, size).Images
}

// CompromisedEngines reports, as indices into the engine list that
// Engines() returned at provision time, the committees whose internal
// suspicion ledger has reached a conviction majority — the serving-
// time mirror of rollupInternal. A serving gateway polls it and evicts
// those engines permanently: a committee whose honest-majority
// assumption is void cannot be trusted with passes, probe or not.
// Safe to call while the engines are serving — it only reads the
// per-committee ledgers, which are internally locked.
func (c *Coordinator) CompromisedEngines() []int {
	var out []int
	idx := 0
	for _, m := range c.members {
		if m.excluded || m.run == nil {
			continue
		}
		if len(m.cluster.Suspicions().Convicted) >= internalMajority {
			out = append(out, idx)
		}
		idx++
	}
	return out
}

// Verdict is the global view of one committee.
type Verdict struct {
	// Committee is the 1-based committee ID.
	Committee int `json:"committee"`
	// Excluded reports whether the committee is out of rotation.
	Excluded bool `json:"excluded"`
	// Internal is the committee's own suspicion report (its parties'
	// ledger).
	Internal suspicion.Report `json:"internal"`
}

// GlobalReport is the coordinator's exportable suspicion snapshot: the
// committee-tier ledger plus every committee's internal report.
type GlobalReport struct {
	// Global is the committee-tier ledger (party index = committee ID).
	Global suspicion.Report `json:"global"`
	// Committees holds one verdict per committee, in ID order.
	Committees []Verdict `json:"committees"`
}

// Suspicions snapshots the global ledger and every committee's
// internal one.
func (c *Coordinator) Suspicions() GlobalReport {
	rep := GlobalReport{Global: c.ledger.Report()}
	for _, m := range c.members {
		rep.Committees = append(rep.Committees, Verdict{
			Committee: m.id,
			Excluded:  m.excluded,
			Internal:  m.cluster.Suspicions(),
		})
	}
	return rep
}

// Ledger exposes the committee-tier ledger (tests, metrics dumps).
func (c *Coordinator) Ledger() *suspicion.Ledger { return c.ledger }

// Close tears down every committee and its transport. The coordinator
// owns the member networks (it passed them to core.New), so it closes
// them after the clusters.
func (c *Coordinator) Close() error {
	var errs []error
	for _, m := range c.members {
		if m.cluster != nil {
			if err := m.cluster.Close(); err != nil {
				errs = append(errs, fmt.Errorf("committee %d: %w", m.id, err))
			}
		}
		if m.net != nil {
			if err := m.net.Close(); err != nil {
				errs = append(errs, fmt.Errorf("committee %d net: %w", m.id, err))
			}
		}
	}
	return errors.Join(errs...)
}
