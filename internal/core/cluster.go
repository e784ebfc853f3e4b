// Package core wires TrustDDL's actors into a runnable deployment: the
// three computing parties of the proxy layer, the model owner (weight
// distribution, Beaver-triple dealing, softmax delegation) and the data
// owner (input/label sharing, prediction reveal) — the system
// architecture of Fig. 1 — over a pluggable transport. It provides the
// training and inference drivers used by the examples, the Fig. 2
// accuracy experiment and the Table II cost benchmarks.
package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/trustddl/trustddl/internal/fixed"
	"github.com/trustddl/trustddl/internal/nn"
	"github.com/trustddl/trustddl/internal/obs"
	"github.com/trustddl/trustddl/internal/party"
	"github.com/trustddl/trustddl/internal/protocol"
	"github.com/trustddl/trustddl/internal/sharing"
	"github.com/trustddl/trustddl/internal/suspicion"
	"github.com/trustddl/trustddl/internal/transport"
)

// Mode selects the adversary model the deployment defends against
// (the two TrustDDL rows of Table II).
type Mode int

// Modes.
const (
	// HonestButCurious runs the redundant three-set protocols without
	// the commitment phase.
	HonestButCurious Mode = iota + 1
	// Malicious adds the commitment phase, enabling detection and
	// attribution of share/hash equivocation.
	Malicious
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case HonestButCurious:
		return "Honest-but-Curious"
	case Malicious:
		return "Malicious"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// TripleMode selects where Beaver triples come from.
type TripleMode int

// Triple modes.
const (
	// OnlineDealing requests triples from the model owner during the
	// protocol run; their transfer is part of the metered traffic.
	OnlineDealing TripleMode = iota + 1
	// OfflinePrecomputed consumes triples from a local pre-dealt pool,
	// separating offline from online cost.
	OfflinePrecomputed
)

// Config parameterizes a deployment.
type Config struct {
	// Mode selects the adversary model (default Malicious).
	Mode Mode
	// Triples selects the dealing strategy (default OnlineDealing).
	Triples TripleMode
	// Params is the fixed-point encoding (default fixed.Default()).
	Params fixed.Params
	// Net is the transport (default: in-process channels).
	Net transport.Network
	// Timeout is the per-message receive timer (default
	// party.DefaultTimeout).
	Timeout time.Duration
	// Seed, when nonzero, makes all dealer randomness deterministic
	// (experiments); zero selects crypto/rand.
	Seed uint64
	// Adversaries makes the listed computing parties Byzantine at the
	// protocol layer (share corruption).
	Adversaries map[int]protocol.Adversary
	// Interceptors rewrites the listed parties' outbound traffic
	// (drops, delays, bit flips).
	Interceptors map[int]transport.SendInterceptor
	// Optimistic enables the reduced-redundancy opening (the paper's
	// §V future work): redundant hat copies are exchanged only when the
	// partial reconstructions disagree, trading one vote round for one
	// third of the opening volume in the honest case.
	Optimistic bool
	// PrefetchDepth pipelines online triple dealing: each party derives
	// the pass's triple plan and fetches it in batched segments of this
	// many requests, overlapping owner round-trips with the layer
	// compute/exchange rounds. 0 selects the process-wide default
	// (protocol.SetDefaultPrefetchDepth, normally off), negative forces
	// the on-demand path. Only effective with OnlineDealing.
	PrefetchDepth int
	// RemoteParties indicates the computing parties run in other
	// processes (cmd/trustddl-party with ServeParty); the cluster then
	// acts purely as the owners' driver and does not attach the party
	// endpoints.
	RemoteParties bool
	// SuspicionThreshold is the attributable-evidence count at which
	// Suspicions() convicts a party (0 selects
	// suspicion.DefaultThreshold).
	SuspicionThreshold int
	// SuspicionTolerance bounds honest reconstruction disagreement (raw
	// ring units) at every decision-rule suspicion site: the owner
	// service, the data owner's reveals, and — in local mode — the
	// parties' joint decisions. 0 keeps the per-site defaults (16 at the
	// owners, 64 at the data owner's logits reveal, whose truncation
	// slack accumulates across the network depth). Deep architectures
	// raise it to keep honest parties out of the ledger.
	SuspicionTolerance float64
	// Obs, when non-nil, is the live metrics registry the whole stack
	// records into: the transport meter mirror, per-phase protocol
	// timing, per-layer nn wall time, owner-service counters, session
	// events and suspicion evidence. Nil disables all of it at
	// nil-check cost.
	Obs *obs.Registry
}

// Cluster is a wired TrustDDL deployment.
type Cluster struct {
	cfg    Config
	net    transport.Network
	ownNet bool

	ctxs    [sharing.NumParties]*protocol.Ctx
	sources [sharing.NumParties]nn.TripleSource

	ownerEP   transport.Endpoint
	ownerSvc  *protocol.OwnerService
	ownerDone chan error
	modelDlr  *sharing.Dealer

	dataRouter *party.Router
	dataDealer *sharing.Dealer

	ledger *suspicion.Ledger

	// maskEpochs is the last mask epoch handed to a Run
	// (Run.renewMaskEpoch).
	maskEpochs atomic.Uint64

	mu             sync.Mutex
	opCounter      int
	revealed       map[string]protocol.Mat
	dataSuspicions [sharing.NumParties + 1]int
	rejoinPending  map[int]bool

	revealCond *sync.Cond
}

// New builds and starts a deployment: endpoints are attached, party
// contexts created and the model-owner service launched.
func New(cfg Config) (*Cluster, error) {
	if cfg.Mode == 0 {
		cfg.Mode = Malicious
	}
	if cfg.Triples == 0 {
		cfg.Triples = OnlineDealing
	}
	if cfg.Params.FracBits == 0 {
		cfg.Params = fixed.Default()
	}
	c := &Cluster{
		cfg:           cfg,
		revealed:      make(map[string]protocol.Mat),
		rejoinPending: make(map[int]bool),
		ledger:        suspicion.NewLedger(cfg.SuspicionThreshold),
	}
	c.revealCond = sync.NewCond(&c.mu)
	if cfg.Net != nil {
		c.net = cfg.Net
	} else {
		c.net = transport.NewChanNetwork()
		c.ownNet = true
	}
	if cfg.Obs != nil {
		// Attach before any traffic flows so the registry mirror and the
		// transport meter agree bit-for-bit.
		transport.SetObs(c.net, cfg.Obs)
		c.ledger.SetObs(cfg.Obs)
	}

	newSource := func(tag uint64) sharing.Source {
		if cfg.Seed != 0 {
			return sharing.NewSeededSource(cfg.Seed*1_000_003 + tag)
		}
		return &sharing.CryptoSource{}
	}
	c.modelDlr = sharing.NewDealer(newSource(1), cfg.Params)
	c.dataDealer = sharing.NewDealer(newSource(2), cfg.Params)
	if cfg.Obs != nil {
		c.modelDlr.SetObs(cfg.Obs)
		c.dataDealer.SetObs(cfg.Obs)
	}

	var pre *sharing.PreDealer
	if cfg.Triples == OfflinePrecomputed {
		pre = sharing.NewPreDealer(sharing.NewDealer(newSource(3), cfg.Params))
	}

	for i := 1; i <= sharing.NumParties; i++ {
		if cfg.RemoteParties {
			break
		}
		ep, err := c.net.Endpoint(i)
		if err != nil {
			c.shutdown()
			return nil, fmt.Errorf("core: attach party %d: %w", i, err)
		}
		if fn, ok := cfg.Interceptors[i]; ok {
			ep = transport.Intercepted(ep, fn)
		}
		ctx, err := protocol.NewCtx(party.NewRouter(ep, cfg.Timeout), i, cfg.Params, cfg.Mode == Malicious)
		if err != nil {
			c.shutdown()
			return nil, err
		}
		if adv, ok := cfg.Adversaries[i]; ok {
			ctx.Adversary = adv
		}
		ctx.Optimistic = cfg.Optimistic
		ctx.Ledger = c.ledger
		ctx.SuspicionTolerance = cfg.SuspicionTolerance
		if cfg.Obs != nil {
			ctx.SetObs(cfg.Obs)
		}
		ctx.Router.OnSpoof = c.recordSpoof
		c.ctxs[i-1] = ctx
		if pre != nil {
			view, err := pre.View(i)
			if err != nil {
				c.shutdown()
				return nil, err
			}
			c.sources[i-1] = view
		} else {
			c.sources[i-1] = nn.OwnerSource{Ctx: ctx}
		}
	}

	ownerEP, err := c.net.Endpoint(transport.ModelOwner)
	if err != nil {
		c.shutdown()
		return nil, fmt.Errorf("core: attach model owner: %w", err)
	}
	c.ownerEP = ownerEP
	c.ownerSvc = protocol.NewOwnerService(ownerEP, c.modelDlr)
	// Delegated-function results draw from their own stream so the
	// triple stream depends only on the deal order — the prefetch
	// pipeline's depth-N outputs stay bit-identical to on-demand
	// dealing regardless of how its round-trips interleave with
	// softmax calls.
	c.ownerSvc.Resharer = sharing.NewDealer(newSource(4), cfg.Params)
	if cfg.Timeout > 0 {
		// The owner's gather expiry must undercut the parties' receive
		// timer: when a dead party strands a delegated-step gather at two
		// bundles, the expiry decision still has to reach the live
		// parties before their own wait for the response gives up.
		c.ownerSvc.GatherTimeout = cfg.Timeout / 2
	}
	c.ownerSvc.Ledger = c.ledger
	c.ownerSvc.Obs = cfg.Obs
	if cfg.SuspicionTolerance > 0 {
		c.ownerSvc.SuspicionTolerance = cfg.SuspicionTolerance
	}
	c.ownerSvc.OnRejoin = func(p int) {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.rejoinPending[p] = true
	}
	c.ownerSvc.RegisterUnary(nn.SoftmaxName, nn.SoftmaxDelegate(cfg.Params))
	c.ownerSvc.RegisterSink("weights", func(session string, value protocol.Mat, _ sharing.Decision) {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.revealed[session] = value
		c.revealCond.Broadcast()
	})
	c.ownerDone = make(chan error, 1)
	go func() { c.ownerDone <- c.ownerSvc.Run() }()

	dataEP, err := c.net.Endpoint(transport.DataOwner)
	if err != nil {
		c.shutdown()
		return nil, fmt.Errorf("core: attach data owner: %w", err)
	}
	c.dataRouter = party.NewRouter(dataEP, cfg.Timeout)
	c.dataRouter.OnSpoof = c.recordSpoof
	return c, nil
}

// recordSpoof turns a router attribution fault into ledger evidence.
func (c *Cluster) recordSpoof(se *party.SpoofError) {
	c.ledger.Record(se.From, suspicion.KindSpoof, se.Session, se.Step)
}

// Close stops the owner service and, if the cluster owns its network,
// tears the network down. A failed shutdown send is reported, not
// swallowed: the owner goroutine is still drained afterwards (a broken
// network also breaks the service's receive loop, so the drain
// completes), and both errors are joined.
func (c *Cluster) Close() error {
	var errs []error
	if c.ownerDone != nil {
		if err := protocol.Shutdown(c.dataRouterEndpoint(), transport.ModelOwner); err != nil {
			// A failed send usually means the network is already down, in
			// which case the service's receive loop is broken too and the
			// drain below returns promptly rather than eating the timeout.
			errs = append(errs, fmt.Errorf("core: shutdown send: %w", err))
		}
		select {
		case err := <-c.ownerDone:
			if err != nil {
				errs = append(errs, fmt.Errorf("core: owner service: %w", err))
			}
		case <-time.After(5 * time.Second):
			errs = append(errs, fmt.Errorf("core: owner service did not stop"))
		}
	}
	c.shutdown()
	return errors.Join(errs...)
}

func (c *Cluster) dataRouterEndpoint() transport.Endpoint {
	return dataSender{c}
}

// dataSender adapts the data router for one-off protocol sends.
type dataSender struct{ c *Cluster }

func (d dataSender) Self() int { return transport.DataOwner }

func (d dataSender) Send(msg transport.Message) error {
	return d.c.dataRouter.Send(msg.To, msg.Session, msg.Step, msg.Payload)
}

func (d dataSender) Recv(time.Duration) (transport.Message, error) {
	return transport.Message{}, transport.ErrClosed
}

func (d dataSender) Close() error { return nil }

func (c *Cluster) shutdown() {
	if c.ownNet && c.net != nil {
		_ = c.net.Close()
	}
}

// Obs returns the cluster's live metrics registry (nil when
// observability is disabled).
func (c *Cluster) Obs() *obs.Registry { return c.cfg.Obs }

// Stats snapshots the transport traffic counters.
func (c *Cluster) Stats() transport.Stats { return c.net.Stats() }

// ResetStats zeroes the traffic counters (to separate offline setup
// from the online phase in benchmarks).
func (c *Cluster) ResetStats() { c.net.ResetStats() }

// OwnerStats snapshots the model-owner service counters.
func (c *Cluster) OwnerStats() protocol.OwnerStats { return c.ownerSvc.Stats() }

// DataOwnerSuspicions reports, per party (index 0 unused), how often
// the data owner's reconstruction decision rule saw that party's
// shares deviating during prediction reveals.
func (c *Cluster) DataOwnerSuspicions() [sharing.NumParties + 1]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dataSuspicions
}

// FlaggedBy reports which parties computing party p has convicted.
// With remote parties the driver has no view of their convictions and
// returns nil.
func (c *Cluster) FlaggedBy(p int) []int {
	if c.cfg.RemoteParties {
		return nil
	}
	var out []int
	for q := 1; q <= sharing.NumParties; q++ {
		if c.ctxs[p-1].Flagged[q] {
			out = append(out, q)
		}
	}
	return out
}

// Suspicions snapshots the unified suspicion ledger: every piece of
// detection evidence the cluster has aggregated — commitment
// violations and decision-rule deviations from the parties (local
// mode), the owner service's gather bookkeeping, the data owner's
// reveal decisions, and transport spoof records — plus the parties
// convicted under the configured threshold. Only attributable evidence
// counts toward conviction; timeouts never convict a crashed peer.
func (c *Cluster) Suspicions() suspicion.Report { return c.ledger.Report() }

// SuspicionLedger exposes the cluster's ledger so in-process served
// parties (PartySupervisor, tests) can contribute their detection
// evidence to the same aggregate.
func (c *Cluster) SuspicionLedger() *suspicion.Ledger { return c.ledger }

// pendingRejoins returns parties that announced a restart since the
// last clearRejoins.
func (c *Cluster) pendingRejoins() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []int
	for p, pending := range c.rejoinPending {
		if pending {
			out = append(out, p)
		}
	}
	return out
}

func (c *Cluster) clearRejoins() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for p := range c.rejoinPending {
		delete(c.rejoinPending, p)
	}
}

// Network returns the cluster's transport so co-located served parties
// (PartySupervisor, tests) can attach their endpoints to it.
func (c *Cluster) Network() transport.Network { return c.net }

// Mode returns the configured adversary model.
func (c *Cluster) Mode() Mode { return c.cfg.Mode }

// Params returns the fixed-point encoding.
func (c *Cluster) Params() fixed.Params { return c.cfg.Params }

// nextSession mints a unique session prefix.
func (c *Cluster) nextSession(kind string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.opCounter++
	return fmt.Sprintf("%s/%d", kind, c.opCounter)
}

// runParties executes fn concurrently on all three computing parties.
// Errors from parties configured as Byzantine are tolerated (their
// runtime may legitimately diverge); honest-party errors abort. With
// remote parties the local closure does not run — the served parties
// react to the distributed messages instead.
func (c *Cluster) runParties(fn func(i int) error) error {
	if c.cfg.RemoteParties {
		return nil
	}
	var wg sync.WaitGroup
	var errs [sharing.NumParties]error
	for i := 0; i < sharing.NumParties; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			continue
		}
		p := i + 1
		if _, isAdv := c.cfg.Adversaries[p]; isAdv {
			continue
		}
		if _, isInt := c.cfg.Interceptors[p]; isInt {
			continue
		}
		return fmt.Errorf("core: party %d: %w", p, err)
	}
	return nil
}

// setPassDeadline caps (or, with the zero time, uncaps) every receive
// wait of one secure pass: the three party routers and the data owner's
// router. The serving layer runs one pass at a time per cluster, so the
// deadline always belongs to exactly one in-flight request; a previous
// pass's goroutines that are still unwinding only ever see their waits
// shortened further, never extended.
func (c *Cluster) setPassDeadline(t time.Time) {
	for _, ctx := range c.ctxs {
		if ctx != nil {
			ctx.SetDeadline(t)
		}
	}
	if c.dataRouter != nil {
		c.dataRouter.SetDeadline(t)
	}
}

// takeRevealed waits for a weight reveal recorded under session.
func (c *Cluster) takeRevealed(session string, timeout time.Duration) (protocol.Mat, error) {
	deadline := time.Now().Add(timeout)
	done := make(chan struct{})
	var timedOut bool
	go func() {
		select {
		case <-done:
		case <-time.After(time.Until(deadline)):
			c.mu.Lock()
			timedOut = true
			c.revealCond.Broadcast()
			c.mu.Unlock()
		}
	}()
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if m, ok := c.revealed[session]; ok {
			delete(c.revealed, session)
			close(done)
			return m, nil
		}
		if timedOut {
			close(done)
			return protocol.Mat{}, fmt.Errorf("core: reveal %q: %w", session, errRevealTimeout)
		}
		c.revealCond.Wait()
	}
}
