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
	// RemoteParties indicates the computing parties run in other
	// processes (cmd/trustddl-party); the cluster then acts purely as
	// the owners' driver and does not attach the party endpoints.
	// Either way the parties run ServeParty and the driver reaches them
	// only through messages.
	RemoteParties bool
	// SuspicionThreshold is the attributable-evidence count at which
	// Suspicions() convicts a party (0 selects
	// suspicion.DefaultThreshold).
	SuspicionThreshold int
	// SuspicionTolerance bounds honest reconstruction disagreement (raw
	// ring units) at every decision-rule suspicion site: the owner
	// service, the data owner's reveals, and the joint decisions of the
	// parties the cluster hosts. 0 keeps the per-site defaults (16 at the
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

	// pre is the pool the hosted parties draw from under
	// OfflinePrecomputed.
	pre *sharing.PreDealer

	ownerEP   transport.Endpoint
	ownerSvc  *protocol.OwnerService
	ownerDone chan error
	modelDlr  *sharing.Dealer

	// dataEP is the data owner's endpoint; dataRouter receives on it,
	// and one-off sends go to it directly.
	dataEP     transport.Endpoint
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
	// parties are the computing parties this cluster hosts (none with
	// RemoteParties); a killed party's slot is nil until it restarts.
	parties [sharing.NumParties]*localParty
	// deadlineOp and deadline cap the receive waits of one inference
	// pass (setPassDeadline, deadlineFor).
	deadlineOp int
	deadline   time.Time

	revealCond *sync.Cond
}

// New builds and starts a deployment: endpoints are attached, the
// hosted computing parties and the model-owner service launched.
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
		ledger:        suspicion.NewLedger(cfg.SuspicionThreshold, cfg.Obs),
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
		transport.AttachObs(c.net, cfg.Obs)
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

	if cfg.Triples == OfflinePrecomputed {
		c.pre = sharing.NewPreDealer(sharing.NewDealer(newSource(3), cfg.Params))
	}
	for p := 1; p <= sharing.NumParties && !cfg.RemoteParties; p++ {
		if err := c.startParty(p, false); err != nil {
			_ = c.shutdown()
			return nil, err
		}
	}

	ownerEP, err := c.net.Endpoint(transport.ModelOwner)
	if err != nil {
		_ = c.shutdown()
		return nil, fmt.Errorf("core: attach model owner: %w", err)
	}
	c.ownerEP = ownerEP
	c.ownerSvc = protocol.NewOwnerService(ownerEP, c.modelDlr)
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

	c.dataEP, err = c.net.Endpoint(transport.DataOwner)
	if err != nil {
		_ = c.shutdown()
		return nil, fmt.Errorf("core: attach data owner: %w", err)
	}
	c.dataRouter = party.NewRouter(c.dataEP, cfg.Timeout)
	c.dataRouter.OnSpoof = c.recordSpoof
	return c, nil
}

// recordSpoof turns a router attribution fault into ledger evidence.
func (c *Cluster) recordSpoof(se *party.SpoofError) {
	c.ledger.Record(se.From, suspicion.KindSpoof, se.Session, se.Step)
}

// Close stops the owner service and the hosted parties and, if the
// cluster owns its network, tears the network down. A party whose loop
// ended on a fault, and a failed shutdown send, are reported, not
// swallowed: the owner goroutine is still drained afterwards (a broken
// network also breaks the service's receive loop, so the drain
// completes), and both errors are joined.
func (c *Cluster) Close() error {
	var errs []error
	if c.ownerDone != nil {
		if err := protocol.Shutdown(c.dataEP, transport.ModelOwner); err != nil {
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
	errs = append(errs, c.shutdown())
	return errors.Join(errs...)
}

// shutdown stops the hosted parties and, if the cluster owns its
// network, closes it. It returns what ended a party's loop, if anything
// did.
func (c *Cluster) shutdown() error {
	var errs []error
	for p := 1; p <= sharing.NumParties; p++ {
		if err := c.Kill(p); err != nil && !errors.Is(err, errNotHosted) {
			errs = append(errs, err)
		}
	}
	if c.ownNet && c.net != nil {
		_ = c.net.Close()
	}
	return errors.Join(errs...)
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

// FlaggedBy reports which parties computing party p has convicted, as
// of the end of p's latest command. The driver has no view of the
// convictions of a party it does not host (RemoteParties, or p killed)
// and returns nil.
func (c *Cluster) FlaggedBy(p int) []int {
	var out []int
	_ = c.onParty(p, func(s *servedParty) {
		for q := 1; q <= sharing.NumParties; q++ {
			if s.ctx.Flagged[q] {
				out = append(out, q)
			}
		}
	})
	return out
}

// Suspicions snapshots the unified suspicion ledger: every piece of
// detection evidence the cluster has aggregated — commitment
// violations and decision-rule deviations from the parties it hosts,
// the owner service's gather bookkeeping, the data owner's
// reveal decisions, and transport spoof records — plus the parties
// convicted under the configured threshold. Only attributable evidence
// counts toward conviction; timeouts never convict a crashed peer.
func (c *Cluster) Suspicions() suspicion.Report { return c.ledger.Report() }

// SuspicionLedger exposes the cluster's ledger, into which its hosted
// parties record their detection evidence.
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

// Network returns the cluster's transport, so parties served next to a
// RemoteParties cluster can attach their endpoints to it.
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

// setPassDeadline caps (or, with the zero time, uncaps) every receive
// wait of the pass whose session is given: the data owner's, and those
// each hosted party makes while it runs that pass's command
// (deadlineFor). The serving layer runs one pass at a time per
// cluster, so one deadline is kept: a later pass replaces it.
func (c *Cluster) setPassDeadline(session string, t time.Time) {
	op, _ := opNumber(session)
	c.mu.Lock()
	c.deadlineOp, c.deadline = op, t
	c.mu.Unlock()
	c.dataRouter.SetDeadline(t)
}

// deadlineFor is the pass deadline of a command's session, the zero
// time when its pass has none.
func (c *Cluster) deadlineFor(session string) time.Time {
	op, _ := opNumber(session)
	c.mu.Lock()
	defer c.mu.Unlock()
	if op != c.deadlineOp {
		return time.Time{}
	}
	return c.deadline
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

// localParty is a computing party a Cluster hosts: the ServeParty loop
// cmd/trustddl-party runs, on a goroutine of its own.
type localParty struct {
	ep transport.Endpoint
	// calls carries the function onParty asks the loop to run.
	calls chan func(*servedParty)
	done  chan struct{} // closed when the loop has returned err
	err   error
}

// errNotHosted reports a party the cluster does not host: it runs
// elsewhere (RemoteParties) or was killed.
var errNotHosted = errors.New("core: party not hosted by this cluster")

// startParty attaches party p's endpoint and starts its loop: the one
// way a hosted party comes up, at New and at Restart.
func (c *Cluster) startParty(p int, rejoin bool) error {
	ep, err := c.net.Endpoint(p)
	if err != nil {
		return fmt.Errorf("core: attach party %d: %w", p, err)
	}
	if fn, ok := c.cfg.Interceptors[p]; ok {
		ep = transport.Intercepted(ep, fn)
	}
	ctx, err := protocol.NewCtx(party.NewRouter(ep, c.cfg.Timeout), p, c.cfg.Params, c.cfg.Mode == Malicious)
	if err != nil {
		_ = ep.Close()
		return err
	}
	ctx.Adversary = c.cfg.Adversaries[p]
	ctx.Ledger = c.ledger
	ctx.SuspicionTolerance = c.cfg.SuspicionTolerance
	if c.cfg.Obs != nil {
		ctx.SetObs(c.cfg.Obs)
	}
	ctx.Router.OnSpoof = c.recordSpoof
	var ts nn.TripleSource = nn.OwnerSource{Ctx: ctx}
	if c.pre != nil {
		if ts, err = c.pre.View(p); err != nil {
			_ = ep.Close()
			return err
		}
	}
	lp := &localParty{ep: ep, calls: make(chan func(*servedParty), 1), done: make(chan struct{})}
	c.mu.Lock()
	c.parties[p-1] = lp
	c.mu.Unlock()
	opts := ServeOptions{Rejoin: rejoin, calls: lp.calls, deadline: c.deadlineFor}
	go func() {
		defer close(lp.done)
		lp.err = ServeParty(ctx, ts, opts)
	}()
	return nil
}

// hosted returns the loop of party p, nil when the cluster does not
// host it.
func (c *Cluster) hosted(p int) *localParty {
	if p < 1 || p > sharing.NumParties {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.parties[p-1]
}

// Kill crashes hosted party p as a process crash would: its endpoint
// closes, which ends any wait in flight and the loop, and its peers see
// silence until their timers fire. It reports the fault that ended the
// loop before, if one did.
func (c *Cluster) Kill(p int) error {
	var lp *localParty
	if p >= 1 && p <= sharing.NumParties {
		c.mu.Lock()
		lp, c.parties[p-1] = c.parties[p-1], nil
		c.mu.Unlock()
	}
	if lp == nil {
		return fmt.Errorf("core: kill party %d: %w", p, errNotHosted)
	}
	_ = lp.ep.Close()
	select {
	case <-lp.done:
	case <-time.After(10 * time.Second):
		return fmt.Errorf("core: party %d did not stop", p)
	}
	if lp.err != nil {
		return fmt.Errorf("core: party %d: %w", p, lp.err)
	}
	return nil
}

// Restart brings killed party p back as a rejoining member, as
// cmd/trustddl-party -rejoin does: it announces the restart to the model
// owner, and the session driver re-provisions every party from its
// latest checkpoint.
func (c *Cluster) Restart(p int) error {
	if c.cfg.RemoteParties || p < 1 || p > sharing.NumParties {
		return fmt.Errorf("core: restart party %d: %w", p, errNotHosted)
	}
	if c.hosted(p) != nil {
		return fmt.Errorf("core: restart party %d: still running", p)
	}
	return c.startParty(p, true)
}

// onParty runs fn on hosted party p's loop between two commands, so fn
// sees the party's state as its latest command left it and races none
// of it. The call travels as a message from the data owner, behind the
// commands sent before it; onParty waits for it to run.
func (c *Cluster) onParty(p int, fn func(*servedParty)) error {
	lp := c.hosted(p)
	if lp == nil {
		return fmt.Errorf("core: party %d: %w", p, errNotHosted)
	}
	ran := make(chan struct{})
	select {
	case lp.calls <- func(s *servedParty) {
		defer close(ran)
		fn(s)
	}:
	case <-lp.done:
		return fmt.Errorf("core: party %d stopped: %w", p, errNotHosted)
	}
	if err := c.dataRouter.Send(p, "", stepCall, nil); err != nil {
		select {
		case <-lp.calls: // no message will ask for it
		default:
		}
		return err
	}
	select {
	case <-ran:
		return nil
	case <-lp.done:
		return fmt.Errorf("core: party %d stopped: %w", p, errNotHosted)
	}
}
