package transport

import (
	"fmt"
	"sync"
	"time"

	"github.com/trustddl/trustddl/internal/obs"
)

// ChanNetwork is the in-process transport: every actor owns a buffered
// inbox channel and Send is a metered channel write. It is the
// substrate for tests, examples and the Table II microbenchmarks.
//
// Sender attribution follows the same contract as the hardened TCP
// path: messages are stamped with the sending endpoint's actor ID, and
// a caller-forged From is re-attributed and marked Spoofed/ClaimedFrom
// so protocol-layer sender checks behave identically on both
// transports.
type ChanNetwork struct {
	meter meter
	// sendTimeout is fixed before the first send (defaultSendTimeout).
	sendTimeout time.Duration

	mu      sync.Mutex
	inboxes map[int]chan Message
	claimed map[int]bool
	closed  bool
	done    chan struct{} // closed by Close to unblock receivers
}

var _ Network = (*ChanNetwork)(nil)

// inboxDepth bounds each actor's unread backlog. Protocol rounds are
// small (a handful of messages per peer per round), but the softmax
// delegation can queue one message per party per layer; 256 gives
// generous headroom without unbounded growth.
const inboxDepth = 256

// defaultSendTimeout bounds how long a sender blocks on a full inbox
// whose owner has stopped receiving. Honest receivers drain within a
// protocol round, so the limit only fires for dead or wedged peers.
const defaultSendTimeout = 5 * time.Second

// NewChanNetwork creates an in-process network for the five TrustDDL
// actors.
func NewChanNetwork() *ChanNetwork {
	n := &ChanNetwork{
		inboxes:     make(map[int]chan Message, NumActors),
		claimed:     make(map[int]bool, NumActors),
		sendTimeout: defaultSendTimeout,
		done:        make(chan struct{}),
	}
	for id := 1; id <= NumActors; id++ {
		n.inboxes[id] = make(chan Message, inboxDepth)
	}
	return n
}

// Endpoint implements Network.
func (n *ChanNetwork) Endpoint(actor int) (Endpoint, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrClosed
	}
	if _, ok := n.inboxes[actor]; !ok {
		return nil, fmt.Errorf("transport: unknown actor %d", actor)
	}
	if n.claimed[actor] {
		return nil, fmt.Errorf("transport: actor %s already attached", ActorName(actor))
	}
	n.claimed[actor] = true
	return &chanEndpoint{net: n, self: actor, done: make(chan struct{})}, nil
}

// SetObs mirrors the traffic meter into reg's counters (see
// meter.setObs); nil detaches.
func (n *ChanNetwork) SetObs(reg *obs.Registry) { n.meter.setObs(reg) }

// Stats implements Network.
func (n *ChanNetwork) Stats() Stats { return n.meter.snapshot() }

// ResetStats implements Network.
func (n *ChanNetwork) ResetStats() { n.meter.reset() }

// Close implements Network. Blocked receivers and senders are unblocked
// with ErrClosed.
func (n *ChanNetwork) Close() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.closed {
		n.closed = true
		close(n.done)
	}
	return nil
}

func (n *ChanNetwork) isClosed() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.closed
}

// release frees an actor slot so a later Endpoint call can re-attach
// (repeated experiments over one network).
func (n *ChanNetwork) release(actor int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.claimed[actor] = false
}

type chanEndpoint struct {
	net  *ChanNetwork
	self int

	mu     sync.Mutex
	closed bool
	done   chan struct{} // closed by Close to unblock in-flight Recv/Send
}

func (e *chanEndpoint) Self() int { return e.self }

func (e *chanEndpoint) Send(msg Message) error {
	if e.isClosed() || e.net.isClosed() {
		return ErrClosed
	}
	if msg.From != 0 && msg.From != e.self {
		// Same attribution contract as the TCP readLoop: the sending
		// endpoint IS the identity, so a forged From is re-attributed
		// to it and flagged for the router's SpoofError record. Without
		// this, sender checks built on From would hold only on TCP.
		msg.ClaimedFrom = msg.From
		msg.Spoofed = true
	}
	msg.From = e.self
	e.net.mu.Lock()
	inbox, ok := e.net.inboxes[msg.To]
	e.net.mu.Unlock()
	if !ok {
		return fmt.Errorf("transport: send to unknown actor %d", msg.To)
	}
	// The in-process handoff is both the send and the receive. It is
	// metered before the handoff, so a receiver holding the message never
	// reads Stats without it, and taken back if the handoff fails.
	e.net.meter.addSend(msg, 1)
	if err := e.handoff(inbox, msg); err != nil {
		e.net.meter.addSend(msg, -1)
		return err
	}
	return nil
}

func (e *chanEndpoint) handoff(inbox chan Message, msg Message) error {
	select {
	case inbox <- msg:
		return nil
	default:
	}
	// Inbox full: wait boundedly instead of wedging the sender on a
	// receiver that died or stopped draining.
	timer := time.NewTimer(e.net.sendTimeout)
	defer timer.Stop()
	select {
	case inbox <- msg:
		return nil
	case <-e.done:
		return ErrClosed
	case <-e.net.done:
		return ErrClosed
	case <-timer.C:
		return ErrTimeout
	}
}

func (e *chanEndpoint) Recv(timeout time.Duration) (Message, error) {
	if e.isClosed() {
		return Message{}, ErrClosed
	}
	e.net.mu.Lock()
	inbox := e.net.inboxes[e.self]
	e.net.mu.Unlock()
	if timeout <= 0 {
		select {
		case msg := <-inbox:
			e.net.meter.recordRecv(msg)
			return msg, nil
		case <-e.done:
			return Message{}, ErrClosed
		case <-e.net.done:
			return Message{}, ErrClosed
		}
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case msg := <-inbox:
		e.net.meter.recordRecv(msg)
		return msg, nil
	case <-e.done:
		return Message{}, ErrClosed
	case <-e.net.done:
		return Message{}, ErrClosed
	case <-timer.C:
		return Message{}, ErrTimeout
	}
}

func (e *chanEndpoint) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.closed {
		e.closed = true
		close(e.done)
		e.net.release(e.self)
	}
	return nil
}

func (e *chanEndpoint) isClosed() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.closed
}
