// Package party provides the per-actor protocol runtime: a router that
// matches inbound messages to the (session, step, sender) tuples a
// protocol round is waiting for, buffering out-of-order arrivals and
// enforcing the receive timers that the paper prescribes for detecting
// delayed or dropped shares from a Byzantine party (§III-B).
package party

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/trustddl/trustddl/internal/transport"
)

// DefaultTimeout is the per-message receive timer. The paper leaves the
// timeout unspecified; two seconds is far above honest round latency on
// both transports while keeping fault-injection tests fast.
const DefaultTimeout = 2 * time.Second

// TimeoutError reports a peer that failed to deliver an expected
// message in time — the signal the paper's parties use to flag
// Byzantine delay/drop behaviour.
type TimeoutError struct {
	From    int
	Session string
	Step    string
}

// Error implements error.
func (e *TimeoutError) Error() string {
	return fmt.Sprintf("party: timed out waiting for %s (session %q, step %q)",
		transport.ActorName(e.From), e.Session, e.Step)
}

// DeadlineError reports a receive wait abandoned because the caller's
// pass deadline (SetDeadline) expired. It is deliberately a different
// type from TimeoutError: a pass deadline is the *caller* giving up on
// the whole operation, not evidence that any peer failed to deliver, so
// it must never feed the suspicion machinery that timeouts feed.
type DeadlineError struct {
	Session string
	Step    string
}

// Error implements error.
func (e *DeadlineError) Error() string {
	return fmt.Sprintf("party: pass deadline exceeded (session %q, step %q)", e.Session, e.Step)
}

// Unwrap lets errors.Is(err, context.DeadlineExceeded) identify a
// deadline-abandoned wait across package boundaries.
func (e *DeadlineError) Unwrap() error { return context.DeadlineExceeded }

// SpoofError reports a message whose wire sender field disagreed with
// the pinned identity of the transport connection it arrived on — the
// second attribution fault the transport can detect, alongside the
// TimeoutError for delays and drops. The message itself is delivered
// re-attributed to the pinned peer (guaranteed output delivery is
// preserved); the error records the spoofing attempt so the offender —
// From, not Claimed — can be convicted. Conviction is sound when the
// pinned identity is trustworthy: the in-process transport and a keyed
// TCP mesh (ed25519 handshakes) qualify; an unkeyed TCP mesh does not,
// since there the "identity" is itself self-declared.
type SpoofError struct {
	// From is the authenticated sender the message was re-attributed to.
	From int
	// Claimed is the forged sender ID carried by the wire frame.
	Claimed int
	Session string
	Step    string
}

// Error implements error.
func (e *SpoofError) Error() string {
	return fmt.Sprintf("party: %s spoofed sender %s (session %q, step %q)",
		transport.ActorName(e.From), transport.ActorName(e.Claimed), e.Session, e.Step)
}

type msgKey struct {
	from    int
	session string
	step    string
}

func keyOf(msg transport.Message) msgKey {
	return msgKey{from: msg.From, session: msg.Session, step: msg.Step}
}

// Router is the single-consumer message demultiplexer for one actor.
// Protocol code is synchronous: it sends its round messages and then
// blocks in Expect/Gather for the peers' messages, while the router
// buffers anything that arrives early or out of order.
//
// Buffered messages are kept in arrival order, so both per-key FIFO
// (Expect) and global FIFO (Next) hold across interleaved sessions.
//
// Router is not safe for concurrent use; each actor drives exactly one
// protocol at a time, mirroring the sequential round structure of
// Algorithms 4 and 5.
type Router struct {
	ep      transport.Endpoint
	timeout time.Duration
	pending []transport.Message // buffered arrivals, oldest first
	spoofs  []*SpoofError
	// discard holds the keys of arrivals to drop unread (Discard).
	discard map[msgKey]bool

	// deadline, when nonzero (unix nanos), caps every receive wait: a
	// wait that would outlive it is shortened, and once it has passed
	// Expect returns a DeadlineError instead of blocking for the
	// per-message timer. It is atomic so that a deadline set on one
	// goroutine is seen by a wait on another.
	deadline atomic.Int64

	// OnSpoof, when non-nil, observes each attribution fault as it is
	// recorded (in addition to the Spoofs history). The cluster wires
	// this to its suspicion ledger so spoofed frames become live
	// evidence instead of history that must be polled.
	OnSpoof func(*SpoofError)
}

// NewRouter wraps an endpoint. timeout <= 0 selects DefaultTimeout.
func NewRouter(ep transport.Endpoint, timeout time.Duration) *Router {
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	return &Router{ep: ep, timeout: timeout}
}

// Self returns the actor ID.
func (r *Router) Self() int { return r.ep.Self() }

// Timeout returns the configured receive timer.
func (r *Router) Timeout() time.Duration { return r.timeout }

// SetDeadline caps every subsequent receive wait by an absolute
// deadline: the per-message timer still applies, but no wait extends
// past the deadline, and a wait entered after it returns a
// DeadlineError immediately. A zero time clears the cap. The pass
// driver (core) sets it from the serving request's context, and each
// party from its pass's command, so a stalled committee fails the pass
// in bounded time instead of hanging.
func (r *Router) SetDeadline(t time.Time) {
	if t.IsZero() {
		r.deadline.Store(0)
		return
	}
	r.deadline.Store(t.UnixNano())
}

// hardDeadline returns the active pass deadline, zero when none is set.
func (r *Router) hardDeadline() time.Time {
	ns := r.deadline.Load()
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

// Send delivers payload to the peer under the given session and step.
func (r *Router) Send(to int, session, step string, payload []byte) error {
	return r.ep.Send(transport.Message{To: to, Session: session, Step: step, Payload: payload})
}

// Broadcast sends payload to every listed peer.
func (r *Router) Broadcast(tos []int, session, step string, payload []byte) error {
	for _, to := range tos {
		if err := r.Send(to, session, step, payload); err != nil {
			return err
		}
	}
	return nil
}

// note records attribution faults carried by an inbound message. Every
// message enters the router through exactly one recv call, so each
// spoofed frame is recorded once.
func (r *Router) note(msg transport.Message) {
	if msg.Spoofed {
		se := &SpoofError{
			From:    msg.From,
			Claimed: msg.ClaimedFrom,
			Session: msg.Session,
			Step:    msg.Step,
		}
		r.spoofs = append(r.spoofs, se)
		if r.OnSpoof != nil {
			r.OnSpoof(se)
		}
	}
}

// Spoofs returns the attribution errors observed so far: one SpoofError
// per inbound message whose wire sender field was forged. The transport
// re-attributes such messages to the authenticated connection, so
// protocol progress is unaffected — these records are the audit trail
// for convicting the offender.
func (r *Router) Spoofs() []*SpoofError {
	out := make([]*SpoofError, len(r.spoofs))
	copy(out, r.spoofs)
	return out
}

// takePending removes and returns the oldest buffered message matching
// key.
func (r *Router) takePending(key msgKey) (transport.Message, bool) {
	for i, msg := range r.pending {
		if keyOf(msg) == key {
			r.pending = append(r.pending[:i], r.pending[i+1:]...)
			return msg, true
		}
	}
	return transport.Message{}, false
}

// Discard drops the message with the given coordinates, whether it is
// already buffered or still to arrive: the reply to a request whose
// caller has stopped waiting for it (a pass abandoned with a deal in
// flight), which would otherwise stay in the buffer for good. It never
// blocks.
func (r *Router) Discard(from int, session, step string) {
	key := msgKey{from: from, session: session, step: step}
	if msg, ok := r.takePending(key); ok {
		msg.Release()
		return
	}
	if r.discard == nil {
		r.discard = make(map[msgKey]bool)
	}
	r.discard[key] = true
}

// dropped reports, and consumes, a pending Discard for msg.
func (r *Router) dropped(msg transport.Message) bool {
	key := keyOf(msg)
	if !r.discard[key] {
		return false
	}
	delete(r.discard, key)
	msg.Release()
	return true
}

// Expect blocks until a message with the given coordinates arrives,
// buffering unrelated traffic. On expiry of the receive timer it
// returns a *TimeoutError.
func (r *Router) Expect(from int, session, step string) (transport.Message, error) {
	key := msgKey{from: from, session: session, step: step}
	if msg, ok := r.takePending(key); ok {
		return msg, nil
	}
	deadline := time.Now().Add(r.timeout)
	for {
		hard := r.hardDeadline()
		if !hard.IsZero() && !time.Now().Before(hard) {
			return transport.Message{}, &DeadlineError{Session: session, Step: step}
		}
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return transport.Message{}, &TimeoutError{From: from, Session: session, Step: step}
		}
		if !hard.IsZero() {
			if hr := time.Until(hard); hr < remaining {
				remaining = hr
			}
		}
		msg, err := r.ep.Recv(remaining)
		if err != nil {
			if err == transport.ErrTimeout {
				// The shortened wait may have expired on the pass deadline
				// rather than the per-message timer; the loop head sorts
				// out which, so a deadline expiry is never misattributed
				// to the peer as a delivery timeout.
				continue
			}
			return transport.Message{}, err
		}
		r.note(msg)
		if r.dropped(msg) {
			continue
		}
		if keyOf(msg) == key {
			return msg, nil
		}
		r.pending = append(r.pending, msg)
	}
}

// Gather collects one message from each peer in froms (any arrival
// order). Peers that time out are reported in the returned map with a
// nil payload entry absent; the error aggregates the first timeout so
// callers can both flag the slow peer and continue with the rest —
// TrustDDL must keep going when one party stalls (guaranteed output
// delivery).
func (r *Router) Gather(froms []int, session, step string) (map[int]transport.Message, error) {
	out := make(map[int]transport.Message, len(froms))
	var firstErr error
	for _, from := range froms {
		msg, err := r.Expect(from, session, step)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		out[from] = msg
	}
	return out, firstErr
}

// Next returns the next message regardless of its coordinates: the
// oldest buffered message first (FIFO across all keys, in arrival
// order), then fresh arrivals. It powers servers that dispatch on
// message content rather than waiting for known keys (e.g. a remote
// computing party's command loop).
func (r *Router) Next(timeout time.Duration) (transport.Message, error) {
	if len(r.pending) > 0 {
		msg := r.pending[0]
		r.pending = r.pending[1:]
		return msg, nil
	}
	for {
		msg, err := r.ep.Recv(timeout)
		if err != nil {
			return transport.Message{}, err
		}
		r.note(msg)
		if !r.dropped(msg) {
			return msg, nil
		}
	}
}

// Requeue buffers a message the caller took with Next, for the Expect
// that will ask for it (a served party hands a pass's early peer
// traffic back when the pass's command arrives).
func (r *Router) Requeue(msg transport.Message) {
	r.pending = append(r.pending, msg)
}

// Drain discards buffered messages (between experiments).
func (r *Router) Drain() {
	r.pending = nil
}
