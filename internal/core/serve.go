package core

import (
	"context"
	"errors"
	"fmt"
	"log"
	"strconv"
	"strings"
	"time"

	"github.com/trustddl/trustddl/internal/nn"
	"github.com/trustddl/trustddl/internal/party"
	"github.com/trustddl/trustddl/internal/protocol"
	"github.com/trustddl/trustddl/internal/sharing"
	"github.com/trustddl/trustddl/internal/transport"
)

// Command steps understood by a served computing party, beyond the
// protocol traffic itself.
const (
	// StepShutdown asks a served party to exit its command loop.
	StepShutdown = "party-shutdown"
	// stepRevealWeights asks a served party to sink its weight bundles
	// to the model owner.
	stepRevealWeights = "cmd/reveal-weights"
	// stepRevealCkpt asks a served party to sink its weight AND
	// optimizer-velocity bundles to the model owner, so the session
	// driver can write a resumable checkpoint.
	stepRevealCkpt = "cmd/reveal-ckpt"
	// stepCall asks a party a Cluster hosts to run the function the
	// cluster queued for it (Cluster.onParty) between two commands.
	stepCall = "cmd/call"
)

// ServeParty runs one computing party as a message-driven server: it
// waits for weight distribution, then executes training batches and
// inference requests as the owners drive them, until a shutdown
// command or transport closure. It is the one runtime of a computing
// party: cmd/trustddl-party runs it in a process of its own, and a
// Cluster runs it on a goroutine for each party it hosts.
//
// The dispatch keys on the leading session segment minted by the
// cluster driver: "init/…" (both owners' dealing keys, the
// architecture and the weight shares), "train/…" (one SGD step, acked
// to the data owner), "infer/…" (forward pass + logits reveal),
// "reveal/…" (weight recovery).
//
// Commands are only honoured from legitimate senders (the owners, or —
// for shutdown — the party itself). Both transports stamp From with the
// sending endpoint's pinned identity, so a computing party spoofing an
// owner cannot shut a peer down or re-initialize its weights; on a TCP
// deployment this is sound against Byzantine insiders only when the
// mesh runs keyed (transport.TCPOptions.Keyring / the trustddl-party
// -key flags). Transient faults (a stalled or restarted driver
// mid-batch, a pass abandoned at its deadline) do not kill the server:
// the loop logs the failed command and keeps serving, so the restarted
// driver finds the party alive and the transport redial reconnects it.
func ServeParty(ctx *protocol.Ctx, ts nn.TripleSource, opts ServeOptions) error {
	if opts.Rejoin {
		if err := protocol.AnnounceRejoin(ctx); err != nil {
			return fmt.Errorf("core: serve party %d announce rejoin: %w", ctx.Index, err)
		}
	}
	s := &servedParty{ctx: ctx, ts: ts, opts: opts}
	for {
		msg, err := ctx.Router.Next(0)
		if err != nil {
			if errors.Is(err, transport.ErrClosed) {
				return nil
			}
			var te *party.TimeoutError
			if errors.As(err, &te) {
				continue
			}
			return err
		}
		switch {
		case msg.Step == StepShutdown:
			if fromOwner(msg.From) || msg.From == ctx.Index {
				return nil // only the owners (or the party itself) may stop the server
			}
		case msg.Step == stepCall:
			if msg.From == transport.DataOwner {
				select {
				case fn := <-opts.calls:
					fn(s)
				default:
				}
			}
		default:
			if err := s.handle(msg); err != nil {
				if errors.Is(err, transport.ErrClosed) {
					return nil // closed mid-command: the same stop as in Next
				}
				return err
			}
		}
	}
}

// ServeOptions tunes a served computing party.
type ServeOptions struct {
	// Rejoin announces this party as a restarted member before serving:
	// the model owner is told to re-provision it (architecture + weight
	// shares from the latest checkpoint) so the session can continue
	// with all three parties. Until the re-init arrives the party
	// ignores traffic it has no state for instead of dying on it.
	Rejoin bool

	// calls and deadline connect a party to the Cluster that hosts it
	// (Cluster.onParty, Cluster.deadlineFor); a party in a process of
	// its own has neither.
	calls    <-chan func(*servedParty)
	deadline func(session string) time.Time
}

// servedParty is the state of one party's command loop.
type servedParty struct {
	ctx  *protocol.Ctx
	ts   nn.TripleSource
	opts ServeOptions
	arch nn.Arch
	net  *nn.SecureNetwork
	// op is the driver's number of the latest command this party
	// began; early holds peer traffic of later ones.
	op    int
	early earlyTraffic
}

// handle runs one command, or keeps or drops traffic that is none. It
// returns only the errors that end the server.
func (s *servedParty) handle(msg transport.Message) error {
	var (
		what string
		run  func(transport.Message) error
	)
	switch {
	case strings.HasPrefix(msg.Session, "init/") && (protocol.IsKeys(msg) || msg.Step == "arch") && fromOwner(msg.From):
		what, run = "init", s.init
	case strings.HasPrefix(msg.Session, "train/") && msg.Step == "x" && msg.From == transport.DataOwner:
		what, run = "train", s.train
	case strings.HasPrefix(msg.Session, "infer/") && msg.Step == "x" && msg.From == transport.DataOwner:
		what, run = "infer", s.infer
	case (msg.Step == stepRevealWeights || msg.Step == stepRevealCkpt) && fromOwner(msg.From):
		what, run = "reveal", s.reveal
	default:
		// Protocol traffic outside a command: a peer that got a pass's
		// command first, or a peer still finishing a pass this party
		// has left.
		s.early.hold(msg, s.op)
		return nil
	}
	s.op, _ = opNumber(msg.Session)
	s.early.begin(s.ctx.Router, s.op)
	if s.opts.deadline != nil {
		s.ctx.SetDeadline(s.opts.deadline(msg.Session))
	}
	if what != "init" && s.net == nil {
		// A rejoining party sees in-flight traffic before its re-init
		// arrives; ignoring it leaves the others to finish the step
		// two-strong (guaranteed output delivery), and a reveal's
		// gather zero-fills and flags this party, until the driver
		// re-provisions everyone.
		log.Printf("core: serve party %d: ignoring %s %q before weight distribution", s.ctx.Index, what, msg.Session)
		msg.Release()
		return nil
	}
	err := run(msg)
	if err == nil {
		return nil
	}
	if transientServeErr(err) {
		log.Printf("core: serve party %d: %s %q aborted: %v (still serving)", s.ctx.Index, what, msg.Session, err)
		return nil
	}
	return fmt.Errorf("core: serve party %d %s %q: %w", s.ctx.Index, what, msg.Session, err)
}

// init assembles the network of one provisioning session from its
// messages, whichever of them arrived first: both owners' dealing keys,
// then the architecture and the weight (and velocity) shares. Taking
// the session as one command means a pass the driver starts after it
// never runs on the previous weights or keys, even where the transport
// reorders the two owners' traffic.
func (s *servedParty) init(first transport.Message) error {
	s.arch, s.net = nil, nil
	for _, owner := range []int{transport.ModelOwner, transport.DataOwner} {
		if protocol.IsKeys(first) && first.From == owner {
			err := protocol.InstallKeys(s.ctx, first)
			first.Release()
			if err != nil {
				return err
			}
			continue
		}
		if err := protocol.RecvKeys(s.ctx, owner, first.Session); err != nil {
			return err
		}
	}
	archMsg := first
	if first.Step != "arch" {
		var err error
		if archMsg, err = s.ctx.Router.Expect(transport.ModelOwner, first.Session, "arch"); err != nil {
			return err
		}
	}
	arch, net, err := recvNetwork(s.ctx, archMsg)
	if err != nil {
		return err
	}
	s.arch, s.net = arch, net
	return nil
}

// maxEarly bounds the early traffic a served party holds per sender.
// An honest peer that began a pass first sends at most its first
// round's messages before it needs this party's, so a full buffer can
// only come from a peer flooding it.
const maxEarly = 256

// earlyTraffic is what a served party keeps of the traffic that
// reaches its command loop: a peer's messages for a pass whose command
// has not arrived yet. A peer that got the command first has already
// sent its commitment or opening, and dropping it would cost the pass
// a receive timer and charge the peer with a delivery it made. The
// traffic goes back to the router when its pass begins; whatever
// belongs to a pass that has begun or ended is released.
type earlyTraffic struct {
	msgs []transport.Message
	from [transport.NumActors + 1]int // held messages per sender
}

// hold keeps msg if it belongs to a pass after op, the latest this
// party began, and its sender holds fewer than maxEarly; it releases
// msg otherwise.
func (e *earlyTraffic) hold(msg transport.Message, op int) {
	n, ok := opNumber(msg.Session)
	if !ok || n <= op || msg.From < 1 || msg.From > transport.NumActors || e.from[msg.From] >= maxEarly {
		msg.Release()
		return
	}
	e.msgs = append(e.msgs, msg)
	e.from[msg.From]++
}

// begin hands the traffic held for pass op back to the router and
// releases what is held for earlier passes.
func (e *earlyTraffic) begin(r *party.Router, op int) {
	kept := e.msgs[:0]
	for _, msg := range e.msgs {
		n, _ := opNumber(msg.Session)
		switch {
		case n > op:
			kept = append(kept, msg)
			continue
		case n == op:
			r.Requeue(msg)
		default:
			msg.Release()
		}
		e.from[msg.From]--
	}
	clear(e.msgs[len(kept):])
	e.msgs = kept
}

// opNumber parses the driver's operation number from a session: the n
// of "<kind>/<n>…", which the cluster mints in increasing order
// (Cluster.nextSession) and every sub-session of a pass keeps.
func opNumber(session string) (int, bool) {
	_, rest, ok := strings.Cut(session, "/")
	if !ok {
		return 0, false
	}
	end := 0
	for end < len(rest) && rest[end] >= '0' && rest[end] <= '9' {
		end++
	}
	n, err := strconv.Atoi(rest[:end])
	return n, err == nil
}

// fromOwner reports whether an actor ID is one of the two trusted
// owners.
func fromOwner(actor int) bool {
	return actor == transport.ModelOwner || actor == transport.DataOwner
}

// transientServeErr classifies failures a served party should survive:
// receive timers expiring, a pass deadline passing, or peers' messages
// failing to arrive/send because the driver (or a peer) stalled or
// restarted mid-command. The party abandons the command and keeps
// serving; protocol-level faults (bad payloads, state errors) still
// abort.
func transientServeErr(err error) bool {
	return isGatherTimeout(err) || errors.Is(err, context.DeadlineExceeded)
}

// recvNetwork assembles the secure network from a weight-distribution
// session whose architecture broadcast has already arrived. The session
// label may carry init options ("?mu=<micro>&st=1"): a momentum
// coefficient to enable, and a flag announcing one velocity bundle per
// weight matrix follows the weights (checkpoint restore).
func recvNetwork(ctx *protocol.Ctx, first transport.Message) (nn.Arch, *nn.SecureNetwork, error) {
	arch, err := nn.DecodeArch(first.Payload)
	if err != nil {
		return nil, nil, err
	}
	bundles := make([]sharing.Bundle, arch.NumWeightMatrices())
	for wi := range bundles {
		b, err := protocol.RecvShare(ctx, transport.ModelOwner, first.Session, fmt.Sprintf("w/%d", wi))
		if err != nil {
			return nil, nil, err
		}
		bundles[wi] = b
	}
	net, err := arch.BuildSecure(bundles, transport.ModelOwner)
	if err != nil {
		return nil, nil, err
	}
	// A (re-)provisioning starts a fresh membership epoch: drop local
	// timeout convictions so a re-admitted crashed peer participates
	// again. The session ledger keeps the history.
	ctx.ForgiveFlags()
	mu, withState := decodeInitOpts(first.Session)
	if withState {
		vels := make([]sharing.Bundle, arch.NumWeightMatrices())
		for vi := range vels {
			b, err := protocol.RecvShare(ctx, transport.ModelOwner, first.Session, fmt.Sprintf("v/%d", vi))
			if err != nil {
				return nil, nil, err
			}
			vels[vi] = b
		}
		if err := arch.SetStateBundles(net, vels); err != nil {
			return nil, nil, err
		}
	}
	if mu > 0 {
		net.SetMomentum(mu)
	}
	return arch, net, nil
}

// passSource returns the triple source one pass of a party draws from:
// the pipelined owner source over the pass's plan when ts is the
// owner-backed source, ts itself otherwise (a pre-dealt pool has no
// round trips to hide). The returned func must run when the pass ends.
func passSource(ctx *protocol.Ctx, ts nn.TripleSource, plan []protocol.TripleRequest, planErr error) (nn.TripleSource, func()) {
	if _, ok := ts.(nn.OwnerSource); !ok {
		return ts, func() {}
	}
	if planErr != nil {
		plan = nil // the layers reject the same shapes; deal what they ask on demand
	}
	ps := protocol.NewPrefetchSource(ctx, plan)
	return ps, ps.Close
}

// train runs one SGD step and acknowledges it to the data owner, which
// paces batches on the acks.
func (s *servedParty) train(first transport.Message) error {
	bx, err := protocol.ExpandShare(s.ctx, transport.DataOwner, first.Payload)
	first.Release() // the expansion owns its storage
	if err != nil {
		return err
	}
	by, err := protocol.RecvShare(s.ctx, transport.DataOwner, first.Session, "y")
	if err != nil {
		return err
	}
	lr, err := decodeLR(first.Session)
	if err != nil {
		return err
	}
	plan, planErr := s.net.TrainPlan(first.Session, bx.Rows(), bx.Cols())
	src, done := passSource(s.ctx, s.ts, plan, planErr)
	defer done()
	if err := s.net.TrainBatch(s.ctx, src, first.Session, bx, by, lr); err != nil {
		return err
	}
	return s.ctx.Router.Send(transport.DataOwner, first.Session, "ack", nil)
}

// infer runs one forward pass and sends the logits to the data owner,
// whose decision rule reveals them.
func (s *servedParty) infer(first transport.Message) error {
	bx, err := protocol.ExpandShare(s.ctx, transport.DataOwner, first.Payload)
	first.Release() // the expansion owns its storage
	if err != nil {
		return err
	}
	plan, planErr := s.net.LogitsPlan(first.Session, bx.Rows(), bx.Cols())
	src, done := passSource(s.ctx, s.ts, plan, planErr)
	defer done()
	logits, err := s.net.Logits(s.ctx, src, first.Session, bx)
	if err != nil {
		return err
	}
	if adv := s.ctx.Adversary; adv != nil {
		// A Byzantine party corrupts its reveal to the data owner too;
		// the decision rule there recovers.
		logits = adv.CorruptPreCommit(first.Session, "logits", []sharing.Bundle{logits.Clone()})[0]
	}
	return s.ctx.Router.Send(transport.DataOwner, first.Session, "logits", transport.EncodeBundle(logits))
}

// reveal sinks the weight bundles, and for a checkpoint the velocity
// bundles too, to the model owner.
func (s *servedParty) reveal(msg transport.Message) error {
	if err := sinkWeights(s.ctx, s.arch, s.net, msg.Session); err != nil {
		return err
	}
	if msg.Step == stepRevealCkpt {
		return sinkState(s.ctx, s.arch, s.net, msg.Session)
	}
	return nil
}

func sinkWeights(ctx *protocol.Ctx, arch nn.Arch, net *nn.SecureNetwork, session string) error {
	bundles, err := arch.WeightBundles(net)
	if err != nil {
		return err
	}
	for wi, b := range bundles {
		if err := protocol.SendToSink(ctx, transport.ModelOwner, "weights", fmt.Sprintf("%s/w%d", session, wi), b); err != nil {
			return err
		}
	}
	return nil
}

// sinkState reveals the optimizer velocity bundles alongside a weight
// reveal (zero-shaped matrices when momentum never ran).
func sinkState(ctx *protocol.Ctx, arch nn.Arch, net *nn.SecureNetwork, session string) error {
	bundles, err := arch.StateBundles(net)
	if err != nil {
		return err
	}
	for vi, b := range bundles {
		if err := protocol.SendToSink(ctx, transport.ModelOwner, "weights", fmt.Sprintf("%s/v%d", session, vi), b); err != nil {
			return err
		}
	}
	return nil
}

// The learning rate travels inside the training session label so a
// served party needs no side channel: "train/<n>?lr=<millis>".
func sessionWithLR(session string, lr float64) string {
	return fmt.Sprintf("%s?lr=%d", session, int64(lr*1e6))
}

// Init options travel inside the init session label the same way the
// learning rate travels in training sessions: "init/<n>?mu=<micro>&st=<0|1>"
// carries the momentum coefficient (micro-units) and whether velocity
// bundles follow the weight bundles. A plain init omits the suffix.
func sessionWithInitOpts(session string, mu float64, withState bool) string {
	if mu <= 0 && !withState {
		return session
	}
	st := 0
	if withState {
		st = 1
	}
	return fmt.Sprintf("%s?mu=%d&st=%d", session, int64(mu*1e6), st)
}

func decodeInitOpts(session string) (mu float64, withState bool) {
	idx := strings.LastIndex(session, "?mu=")
	if idx < 0 {
		return 0, false
	}
	var micro int64
	var st int
	if _, err := fmt.Sscanf(session[idx:], "?mu=%d&st=%d", &micro, &st); err != nil {
		return 0, false
	}
	if micro < 0 {
		micro = 0
	}
	return float64(micro) / 1e6, st == 1
}

func decodeLR(session string) (float64, error) {
	idx := strings.LastIndex(session, "?lr=")
	if idx < 0 {
		return 0, fmt.Errorf("core: session %q carries no learning rate", session)
	}
	var micro int64
	if _, err := fmt.Sscanf(session[idx:], "?lr=%d", &micro); err != nil {
		return 0, fmt.Errorf("core: session %q learning rate: %w", session, err)
	}
	if micro <= 0 {
		return 0, fmt.Errorf("core: session %q has non-positive learning rate", session)
	}
	return float64(micro) / 1e6, nil
}
