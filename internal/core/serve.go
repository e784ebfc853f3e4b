package core

import (
	"errors"
	"fmt"
	"log"
	"strings"

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
)

// ServeParty runs one computing party as a message-driven server: it
// waits for weight distribution, then executes training batches and
// inference requests as the owners drive them, until a shutdown
// command or transport closure. This is the body of cmd/trustddl-party
// and the counterpart of a Cluster configured with RemoteParties.
//
// The dispatch keys on the leading session segment minted by the
// cluster driver: "init/…" (dealing keys, which each owner sends at
// every provisioning, and weight distribution), "train/…" (one SGD
// step), "infer/…" (forward pass + logits reveal), "reveal/…" (weight
// recovery).
//
// Commands are only honoured from legitimate senders (the owners, or —
// for shutdown — the party itself). Both transports stamp From with the
// sending endpoint's pinned identity, so a computing party spoofing an
// owner cannot shut a peer down or re-initialize its weights; on a TCP
// deployment this is sound against Byzantine insiders only when the
// mesh runs keyed (transport.TCPOptions.Keyring / the trustddl-party
// -key flags). Transient
// faults (a stalled or restarted driver mid-batch) do not kill the
// server: the loop logs the failed command and keeps serving, so the
// restarted driver finds the party alive and the transport redial
// reconnects it.
func ServeParty(ctx *protocol.Ctx, ts nn.TripleSource) error {
	return ServePartyOpts(ctx, ts, ServeOptions{})
}

// ServeOptions tunes a served computing party.
type ServeOptions struct {
	// Rejoin announces this party as a restarted member before serving:
	// the model owner is told to re-provision it (architecture + weight
	// shares from the latest checkpoint) so the session can continue
	// with all three parties. Until the re-init arrives the party
	// ignores traffic it has no state for instead of dying on it.
	Rejoin bool
}

// ServePartyOpts is ServeParty with explicit options.
func ServePartyOpts(ctx *protocol.Ctx, ts nn.TripleSource, opts ServeOptions) error {
	var (
		net  *nn.SecureNetwork
		arch nn.Arch
	)
	if opts.Rejoin {
		if err := protocol.AnnounceRejoin(ctx); err != nil {
			return fmt.Errorf("core: serve party %d announce rejoin: %w", ctx.Index, err)
		}
	}
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
			if !fromOwner(msg.From) && msg.From != ctx.Index {
				continue // only the owners (or the party itself) may stop the server
			}
			return nil
		case protocol.IsKeys(msg):
			if !fromOwner(msg.From) {
				continue
			}
			if err := protocol.InstallKeys(ctx, msg); err != nil {
				log.Printf("core: serve party %d: %v (still serving)", ctx.Index, err)
			}
		case strings.HasPrefix(msg.Session, "init/") && msg.Step == "arch":
			if msg.From != transport.ModelOwner {
				continue
			}
			arch, net, err = recvNetwork(ctx, msg)
			if err != nil {
				if transientServeErr(err) {
					log.Printf("core: serve party %d: init %q aborted: %v (still serving)", ctx.Index, msg.Session, err)
					continue
				}
				return fmt.Errorf("core: serve party %d init: %w", ctx.Index, err)
			}
		case strings.HasPrefix(msg.Session, "train/") && msg.Step == "x":
			if msg.From != transport.DataOwner {
				continue
			}
			if net == nil {
				// A rejoining party sees in-flight traffic before its
				// re-init arrives; dropping it leaves the others to
				// finish the step two-strong (guaranteed output
				// delivery) until the driver re-provisions everyone.
				log.Printf("core: serve party %d: ignoring train %q before weight distribution", ctx.Index, msg.Session)
				continue
			}
			if err := serveTrain(ctx, ts, net, msg); err != nil {
				if transientServeErr(err) {
					log.Printf("core: serve party %d: train %q aborted: %v (still serving)", ctx.Index, msg.Session, err)
					continue
				}
				return fmt.Errorf("core: serve party %d train %q: %w", ctx.Index, msg.Session, err)
			}
		case strings.HasPrefix(msg.Session, "infer/") && msg.Step == "x":
			if msg.From != transport.DataOwner {
				continue
			}
			if net == nil {
				log.Printf("core: serve party %d: ignoring infer %q before weight distribution", ctx.Index, msg.Session)
				continue
			}
			if err := serveInfer(ctx, ts, net, msg); err != nil {
				if transientServeErr(err) {
					log.Printf("core: serve party %d: infer %q aborted: %v (still serving)", ctx.Index, msg.Session, err)
					continue
				}
				return fmt.Errorf("core: serve party %d infer %q: %w", ctx.Index, msg.Session, err)
			}
		case msg.Step == stepRevealWeights || msg.Step == stepRevealCkpt:
			if !fromOwner(msg.From) {
				continue
			}
			if net == nil {
				// The owner's gather zero-fills and flags this party; the
				// reveal still decides from the two live parties' sets.
				log.Printf("core: serve party %d: ignoring reveal %q before weight distribution", ctx.Index, msg.Session)
				continue
			}
			if err := sinkWeights(ctx, arch, net, msg.Session); err != nil {
				return fmt.Errorf("core: serve party %d reveal: %w", ctx.Index, err)
			}
			if msg.Step == stepRevealCkpt {
				if err := sinkState(ctx, arch, net, msg.Session); err != nil {
					return fmt.Errorf("core: serve party %d reveal state: %w", ctx.Index, err)
				}
			}
		default:
			// Unknown traffic for this state machine: ignore. Protocol
			// messages never reach here — they are consumed by keyed
			// Expects inside the handlers.
		}
	}
}

// fromOwner reports whether an actor ID is one of the two trusted
// owners.
func fromOwner(actor int) bool {
	return actor == transport.ModelOwner || actor == transport.DataOwner
}

// transientServeErr classifies failures a served party should survive:
// receive timers expiring or peers' messages failing to arrive/send
// because the driver (or a peer) stalled or restarted mid-command. The
// party abandons the command and keeps serving; protocol-level faults
// (bad payloads, state errors) still abort.
func transientServeErr(err error) bool {
	var te *party.TimeoutError
	return errors.As(err, &te) || errors.Is(err, transport.ErrTimeout)
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

func serveTrain(ctx *protocol.Ctx, ts nn.TripleSource, net *nn.SecureNetwork, first transport.Message) error {
	bx, err := protocol.ExpandShare(ctx, transport.DataOwner, first.Payload)
	if err != nil {
		return err
	}
	by, err := protocol.RecvShare(ctx, transport.DataOwner, first.Session, "y")
	if err != nil {
		return err
	}
	lr, err := decodeLR(first.Session)
	if err != nil {
		return err
	}
	plan, planErr := net.TrainPlan(first.Session, bx.Rows(), bx.Cols())
	src, done := passSource(ctx, ts, plan, planErr)
	defer done()
	if err := net.TrainBatch(ctx, src, first.Session, bx, by, lr); err != nil {
		return err
	}
	// Acknowledge completion so the driver can pace batches.
	return ctx.Router.Send(transport.DataOwner, first.Session, "ack", nil)
}

func serveInfer(ctx *protocol.Ctx, ts nn.TripleSource, net *nn.SecureNetwork, first transport.Message) error {
	bx, err := protocol.ExpandShare(ctx, transport.DataOwner, first.Payload)
	if err != nil {
		return err
	}
	plan, planErr := net.LogitsPlan(first.Session, bx.Rows(), bx.Cols())
	src, done := passSource(ctx, ts, plan, planErr)
	defer done()
	logits, err := net.Logits(ctx, src, first.Session, bx)
	if err != nil {
		return err
	}
	return ctx.Router.Send(transport.DataOwner, first.Session, "logits", transport.EncodeBundle(logits))
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
