package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"github.com/trustddl/trustddl/internal/obs"
)

// TCPNetwork is the distributed transport: each actor listens on its
// own TCP address and peers exchange length-prefixed frames over lazily
// established connections. One process may host any subset of the
// actors (cmd/trustddl-party hosts exactly one).
//
// Every connection starts with a handshake that pins the dialing
// actor's identity on the accepting side. Inbound frames are attributed
// to that pinned identity — the wire From byte is never trusted; a
// mismatch re-attributes the message to the pinned peer and marks it
// Spoofed so the protocol layer can convict the forger. Frames whose To
// field does not name the receiving endpoint are dropped.
//
// How strong the pin is depends on the network's key configuration:
//
//   - With a Keyring (TCPOptions.Keyring; NewLoopbackTCPNetwork
//     generates one), the handshake is a mutual ed25519
//     challenge–response — the pinned identity is authenticated, so the
//     attribution (and any SpoofError conviction built on it) holds
//     even against a Byzantine peer that owns a legitimate mesh
//     position.
//   - Without keys, the handshake only *identifies*: the dialer's
//     self-declared ID is pinned after a best-effort source-IP check
//     against the address map. That stops accidents and third hosts
//     with distinct IPs, not a deliberate forger — an unkeyed mesh must
//     not be relied on for Byzantine sender attribution.
//
// Sends carry a per-attempt write deadline and redial broken
// connections with bounded exponential backoff, so a stalled or
// restarted peer cannot wedge a protocol round indefinitely: Send
// either completes or fails within the configured budget, and a party
// that is killed and restarted on the same address is picked up again
// by the next redial. Delivery is at-most-once: an attempt is retried
// only while the frame provably never reached the peer as a parseable
// message (see Send), so a receiver never observes duplicates.
//
// The traffic meter counts what the local process's endpoints put on
// and take off the wire, per direction, recording a message only after
// its I/O succeeded. The constant per-connection handshake bytes are
// excluded so channel and TCP runs report identical per-message volume.
type TCPNetwork struct {
	meter meter

	// opts is fixed at construction, its defaults resolved.
	opts TCPOptions

	mu        sync.Mutex
	addrs     map[int]string
	listeners map[int]net.Listener
	closed    bool
	endpoints []*tcpEndpoint
}

// TCPOptions configures a TCPNetwork. A zero duration or count takes
// its default.
type TCPOptions struct {
	// Keyring, when non-nil, switches the mesh to authenticated
	// handshakes: every connection must prove its actor identity with
	// the corresponding ed25519 key. All processes of one mesh must
	// agree on the public keys (an unkeyed peer cannot talk to a keyed
	// one — the handshake fails closed).
	Keyring *Keyring
	// DialTimeout bounds each connection attempt, handshake included.
	DialTimeout time.Duration
	// SendTimeout bounds each frame write.
	SendTimeout time.Duration
	// SendAttempts is the number of attempts per Send, the first
	// included; a broken connection is redialed between them.
	SendAttempts int
	// RetryBackoff is the wait before the first redial; it doubles per
	// retry.
	RetryBackoff time.Duration
}

// withDefaults fills every unset policy field with its default.
func (o TCPOptions) withDefaults() TCPOptions {
	if o.DialTimeout <= 0 {
		o.DialTimeout = defaultDialTimeout
	}
	if o.SendTimeout <= 0 {
		o.SendTimeout = defaultTCPSendLimit
	}
	if o.SendAttempts <= 0 {
		o.SendAttempts = defaultSendAttempts
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = defaultRetryBackoff
	}
	return o
}

var _ Network = (*TCPNetwork)(nil)

// maxFrame bounds a single message frame (1 GiB) to fail fast on
// corrupted length prefixes.
const maxFrame = 1 << 30

// Dial/send policy defaults. The per-attempt budget plus the backoff
// ladder stays within a few seconds so a stalled peer surfaces as a
// Send error near the router's receive timer instead of wedging the
// round.
const (
	defaultDialTimeout  = 2 * time.Second
	defaultTCPSendLimit = 2 * time.Second
	defaultSendAttempts = 3
	defaultRetryBackoff = 50 * time.Millisecond
)

// handshakeMagic opens the legacy identification-only hello ("TDL1" +
// from + to) and the acceptor's ack ("TDL1" + self + 0), used when the
// network has no keyring. Keyed meshes use the authenticated "TDL2"
// exchange (see auth.go); the two modes reject each other's magic, so
// a misconfigured or downgrading peer fails the handshake instead of
// silently losing authentication.
var handshakeMagic = [4]byte{'T', 'D', 'L', '1'}

// NewTCPNetwork creates a TCP transport over the given actor→address
// map, configured by opts. Addresses of remote actors are dialed on
// demand; Endpoint may only be called for actors whose address is
// bindable locally.
func NewTCPNetwork(addrs map[int]string, opts TCPOptions) *TCPNetwork {
	cp := make(map[int]string, len(addrs))
	for k, v := range addrs {
		cp[k] = v
	}
	return &TCPNetwork{addrs: cp, listeners: make(map[int]net.Listener), opts: opts.withDefaults()}
}

// NewLoopbackTCPNetwork binds all five actors to ephemeral loopback
// ports in this process — the single-machine distributed configuration
// used by tests and benchmarks. A fresh keyring is generated so the
// mesh runs with authenticated handshakes; since all actors live in
// one process, no key ever needs distributing.
func NewLoopbackTCPNetwork() (*TCPNetwork, error) {
	kr, err := GenerateKeyring()
	if err != nil {
		return nil, err
	}
	n := NewTCPNetwork(nil, TCPOptions{Keyring: kr})
	for id := 1; id <= NumActors; id++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			_ = n.Close()
			return nil, fmt.Errorf("transport: bind actor %s: %w", ActorName(id), err)
		}
		n.listeners[id] = l
		n.addrs[id] = l.Addr().String()
	}
	return n, nil
}

// Endpoint implements Network. The actor's listener is created here if
// NewLoopbackTCPNetwork did not pre-bind it (or if a previous endpoint
// for this actor was closed, which releases its listener — a restarted
// party re-binds the same address).
func (n *TCPNetwork) Endpoint(actor int) (Endpoint, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrClosed
	}
	addr, ok := n.addrs[actor]
	if !ok {
		return nil, fmt.Errorf("transport: no address configured for actor %d", actor)
	}
	if k := n.opts.Keyring; k != nil && !k.hasPrivate(actor) {
		return nil, fmt.Errorf("transport: keyring holds no private key for %s — cannot authenticate as this actor", ActorName(actor))
	}
	l, ok := n.listeners[actor]
	if !ok {
		var err error
		l, err = net.Listen("tcp", addr)
		if err != nil {
			return nil, fmt.Errorf("transport: bind %s at %s: %w", ActorName(actor), addr, err)
		}
		n.listeners[actor] = l
	}
	ep := &tcpEndpoint{
		net:      n,
		self:     actor,
		listener: l,
		inbox:    make(chan Message, inboxDepth),
		conns:    make(map[int]*tcpConn),
		inbound:  make(map[net.Conn]struct{}),
		done:     make(chan struct{}),
	}
	n.endpoints = append(n.endpoints, ep)
	ep.loops.Add(1)
	go ep.acceptLoop()
	return ep, nil
}

// Stats implements Network.
func (n *TCPNetwork) Stats() Stats { return n.meter.snapshot() }

// SetObs mirrors the traffic meter into reg's counters (see
// meter.setObs); nil detaches.
func (n *TCPNetwork) SetObs(reg *obs.Registry) { n.meter.setObs(reg) }

// ResetStats implements Network.
func (n *TCPNetwork) ResetStats() { n.meter.reset() }

// Close implements Network: every endpoint is closed gracefully and all
// listeners released.
func (n *TCPNetwork) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	eps := append([]*tcpEndpoint(nil), n.endpoints...)
	n.mu.Unlock()
	for _, ep := range eps {
		_ = ep.Close()
	}
	n.mu.Lock()
	listeners := n.listeners
	n.listeners = make(map[int]net.Listener)
	n.mu.Unlock()
	for _, l := range listeners {
		_ = l.Close()
	}
	return nil
}

// removeEndpoint unregisters a closed endpoint and releases its
// listener so repeated experiments (or a restarted party) can
// re-attach the actor without leaking endpoints.
func (n *TCPNetwork) removeEndpoint(ep *tcpEndpoint) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for i, e := range n.endpoints {
		if e == ep {
			n.endpoints = append(n.endpoints[:i], n.endpoints[i+1:]...)
			break
		}
	}
	if n.listeners[ep.self] == ep.listener {
		delete(n.listeners, ep.self)
	}
}

func (n *TCPNetwork) addrOf(actor int) (string, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	a, ok := n.addrs[actor]
	return a, ok
}

type tcpConn struct {
	mu sync.Mutex // serializes frame writes
	c  net.Conn
}

type tcpEndpoint struct {
	net      *TCPNetwork
	self     int
	listener net.Listener
	inbox    chan Message
	loops    sync.WaitGroup // accept loop + read loops

	mu      sync.Mutex
	conns   map[int]*tcpConn // outbound connections by destination
	inbound map[net.Conn]struct{}
	closed  bool
	done    chan struct{}
}

func (e *tcpEndpoint) Self() int { return e.self }

func (e *tcpEndpoint) acceptLoop() {
	defer e.loops.Done()
	for {
		c, err := e.listener.Accept()
		if err != nil {
			return // listener closed
		}
		if !e.trackInbound(c) {
			_ = c.Close()
			return
		}
		e.loops.Add(1)
		go e.readLoop(c)
	}
}

func (e *tcpEndpoint) trackInbound(c net.Conn) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return false
	}
	e.inbound[c] = struct{}{}
	return true
}

func (e *tcpEndpoint) untrackInbound(c net.Conn) {
	e.mu.Lock()
	defer e.mu.Unlock()
	delete(e.inbound, c)
}

// readLoop pins the connection's peer identity via the handshake, then
// attributes every inbound frame to it.
func (e *tcpEndpoint) readLoop(c net.Conn) {
	defer e.loops.Done()
	defer e.untrackInbound(c)
	defer c.Close()
	k := e.net.opts.Keyring
	peer, err := acceptHandshake(c, e.self, k, e.net.opts.DialTimeout)
	if err != nil {
		return // handshake failed: refuse all traffic
	}
	if k == nil {
		// Unkeyed mesh: the claimed identity is unproven. Screen the
		// source address against the mesh configuration (best effort —
		// see remoteAllowed) so at least a third host with a distinct
		// IP cannot borrow a mesh position.
		addr, ok := e.net.addrOf(peer)
		if !ok || !remoteAllowed(addr, c.RemoteAddr()) {
			return
		}
	}
	for {
		msg, err := readFrame(c)
		if err != nil {
			return
		}
		if msg.To != e.self {
			msg.Release() // misrouted frame: not for this endpoint
			continue
		}
		if msg.From != peer {
			// Wire attribution disagrees with the pinned connection
			// identity: re-attribute and flag, never trust the frame.
			msg.ClaimedFrom = msg.From
			msg.From = peer
			msg.Spoofed = true
		}
		select {
		case e.inbox <- msg:
		case <-e.done:
			msg.Release() // dropped by a concurrent Close
			return
		}
	}
}

// acceptHandshake reads the dialer's hello and pins the peer identity:
// with a keyring, via the mutual ed25519 challenge–response (the peer
// is authenticated); without, via the self-declared hello (the peer is
// merely identified — see the TCPNetwork doc comment for what that
// does and does not defend against).
func acceptHandshake(c net.Conn, self int, k *Keyring, timeout time.Duration) (peer int, err error) {
	err = handshakeTimeout(c, timeout, func() error {
		var head [6]byte
		if _, err := io.ReadFull(c, head[:]); err != nil {
			return err
		}
		magic := [4]byte(head[:4])
		from, to := int(head[4]), int(head[5])
		if from < 1 || from > NumActors {
			return fmt.Errorf("transport: handshake from unknown actor %d", from)
		}
		if to != self {
			return fmt.Errorf("transport: handshake addressed to actor %d, this endpoint is %s", to, ActorName(self))
		}
		if k != nil {
			if magic != authMagic {
				return errors.New("transport: unauthenticated hello on a keyed mesh")
			}
			peer, err = acceptAuthHandshake(c, self, from, k)
			return err
		}
		if magic != handshakeMagic {
			return errors.New("transport: bad handshake magic")
		}
		ack := [6]byte{handshakeMagic[0], handshakeMagic[1], handshakeMagic[2], handshakeMagic[3], byte(self), 0}
		if _, err := c.Write(ack[:]); err != nil {
			return err
		}
		peer = from
		return nil
	})
	if err != nil {
		return 0, err
	}
	return peer, nil
}

// dialHandshake announces the dialer's identity and verifies the
// acceptor is the intended actor, proving both identities when the
// mesh is keyed.
func dialHandshake(c net.Conn, self, peer int, k *Keyring, timeout time.Duration) error {
	return handshakeTimeout(c, timeout, func() error {
		if k != nil {
			return dialAuthHandshake(c, self, peer, k)
		}
		hello := [6]byte{handshakeMagic[0], handshakeMagic[1], handshakeMagic[2], handshakeMagic[3], byte(self), byte(peer)}
		if _, err := c.Write(hello[:]); err != nil {
			return err
		}
		var ack [6]byte
		if _, err := io.ReadFull(c, ack[:]); err != nil {
			return err
		}
		if [4]byte(ack[:4]) != handshakeMagic {
			return errors.New("transport: bad handshake ack")
		}
		if got := int(ack[4]); got != peer {
			return fmt.Errorf("transport: dialed %s but reached %s", ActorName(peer), ActorName(got))
		}
		return nil
	})
}

// Send writes one frame with a per-attempt deadline, redialing broken
// connections with bounded exponential backoff. It fails within the
// configured attempt budget instead of wedging on a stalled peer.
//
// Delivery is at-most-once. A failed attempt is resent only when the
// frame cannot have been delivered: dial/handshake failures precede
// any frame bytes, and a partial frame write is unparseable by the
// receiver (frames are length-prefixed, and the truncated connection
// is dropped, so readFrame discards the fragment). If the write error
// arrives only after the entire frame reached the kernel — which may
// still deliver it — Send reports the error without retrying, so the
// receiver can never observe the same message twice.
func (e *tcpEndpoint) Send(msg Message) error {
	if e.isClosed() {
		return ErrClosed
	}
	if msg.From == 0 {
		msg.From = e.self
	}
	opts := e.net.opts
	var lastErr error
	for attempt := 0; attempt < opts.SendAttempts; attempt++ {
		if attempt > 0 {
			// Backoff before redialing, doubling per retry; Close
			// releases waiting senders immediately.
			timer := time.NewTimer(opts.RetryBackoff << (attempt - 1))
			select {
			case <-timer.C:
			case <-e.done:
				timer.Stop()
				return ErrClosed
			}
		}
		if e.isClosed() {
			return ErrClosed
		}
		conn, err := e.connTo(msg.To)
		if err != nil {
			lastErr = err
			continue
		}
		n, err := e.writeOnce(conn, msg, opts.SendTimeout)
		if err == nil {
			// Outbound accounting only after the frame actually left.
			e.net.meter.recordSend(msg)
			return nil
		}
		e.dropConn(msg.To, conn)
		if n >= msg.wireSize() {
			// The whole frame reached the kernel before the error
			// surfaced; it may still be delivered, so a blind resend
			// could duplicate it at the receiver.
			return fmt.Errorf("transport: send %s→%s: %w (frame fully written, not resent to avoid duplicate delivery)",
				ActorName(e.self), ActorName(msg.To), err)
		}
		lastErr = err
	}
	return fmt.Errorf("transport: send %s→%s after %d attempts: %w",
		ActorName(e.self), ActorName(msg.To), opts.SendAttempts, lastErr)
}

// writeOnce writes one frame under the connection's write lock,
// returning how many frame bytes were handed to the kernel — Send's
// retry decision depends on it.
func (e *tcpEndpoint) writeOnce(conn *tcpConn, msg Message, limit time.Duration) (int, error) {
	conn.mu.Lock()
	defer conn.mu.Unlock()
	_ = conn.c.SetWriteDeadline(time.Now().Add(limit))
	n, err := writeFrame(conn.c, msg)
	_ = conn.c.SetWriteDeadline(time.Time{})
	return n, err
}

// dropConn discards a broken connection so the next attempt redials.
func (e *tcpEndpoint) dropConn(actor int, conn *tcpConn) {
	e.mu.Lock()
	if e.conns[actor] == conn {
		delete(e.conns, actor)
	}
	e.mu.Unlock()
	_ = conn.c.Close()
}

func (e *tcpEndpoint) connTo(actor int) (*tcpConn, error) {
	e.mu.Lock()
	if c, ok := e.conns[actor]; ok {
		e.mu.Unlock()
		return c, nil
	}
	e.mu.Unlock()

	addr, ok := e.net.addrOf(actor)
	if !ok {
		return nil, fmt.Errorf("transport: no address for actor %d", actor)
	}
	dialTimeout := e.net.opts.DialTimeout
	raw, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s at %s: %w", ActorName(actor), addr, err)
	}
	if tc, ok := raw.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true) // protocol rounds are latency-bound
	}
	if err := dialHandshake(raw, e.self, actor, e.net.opts.Keyring, dialTimeout); err != nil {
		_ = raw.Close()
		return nil, fmt.Errorf("transport: handshake with %s at %s: %w", ActorName(actor), addr, err)
	}
	c := &tcpConn{c: raw}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		_ = raw.Close()
		return nil, ErrClosed
	}
	if existing, ok := e.conns[actor]; ok {
		e.mu.Unlock()
		_ = raw.Close() // lost the race; reuse the winner
		return existing, nil
	}
	e.conns[actor] = c
	e.mu.Unlock()
	return c, nil
}

func (e *tcpEndpoint) Recv(timeout time.Duration) (Message, error) {
	if e.isClosed() {
		return Message{}, ErrClosed
	}
	if timeout <= 0 {
		select {
		case msg := <-e.inbox:
			e.net.meter.recordRecv(msg)
			return msg, nil
		case <-e.done:
			return Message{}, ErrClosed
		}
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case msg := <-e.inbox:
		e.net.meter.recordRecv(msg)
		return msg, nil
	case <-e.done:
		return Message{}, ErrClosed
	case <-timer.C:
		return Message{}, ErrTimeout
	}
}

// Close shuts the endpoint down gracefully: senders and receivers are
// unblocked, all connections closed, the accept/read goroutines drained
// and the endpoint unregistered from its network (releasing the
// listener for a future re-attach of the same actor).
func (e *tcpEndpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	close(e.done)
	conns := e.conns
	e.conns = make(map[int]*tcpConn)
	inbound := make([]net.Conn, 0, len(e.inbound))
	for c := range e.inbound {
		inbound = append(inbound, c)
	}
	e.mu.Unlock()
	_ = e.listener.Close()
	for _, c := range conns {
		_ = c.c.Close()
	}
	for _, c := range inbound {
		_ = c.Close()
	}
	e.loops.Wait()
	e.net.removeEndpoint(e)
	return nil
}

func (e *tcpEndpoint) isClosed() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.closed
}

// Frame layout: u32 body length | u8 from | u8 to | u16 sessLen | sess |
// u16 stepLen | step | payload. The From byte is informational —
// receivers attribute frames to the handshake-pinned identity and only
// use the wire byte to detect spoofing.
//
// writeFrame returns how many bytes were written even on error; Send
// uses the count to decide whether a retry could duplicate delivery.
func writeFrame(w io.Writer, msg Message) (int, error) {
	if len(msg.Session) > 0xffff || len(msg.Step) > 0xffff {
		return 0, fmt.Errorf("transport: session/step label too long")
	}
	body := 2 + 2 + len(msg.Session) + 2 + len(msg.Step) + len(msg.Payload)
	if body > maxFrame {
		return 0, fmt.Errorf("transport: frame of %d bytes exceeds limit", body)
	}
	// The frame buffer is pooled: Write hands the bytes to the kernel
	// (or copies them into a test's bytes.Buffer), so the buffer is dead
	// the moment Write returns, whatever the outcome.
	buf := getBuf(4 + body)[:0]
	buf = binary.LittleEndian.AppendUint32(buf, uint32(body))
	buf = append(buf, byte(msg.From), byte(msg.To))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(msg.Session)))
	buf = append(buf, msg.Session...)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(msg.Step)))
	buf = append(buf, msg.Step...)
	buf = append(buf, msg.Payload...)
	n, err := w.Write(buf)
	putBuf(buf)
	return n, err
}

func readFrame(r io.Reader) (Message, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return Message{}, err
	}
	body := binary.LittleEndian.Uint32(lenBuf[:])
	if body > maxFrame {
		return Message{}, fmt.Errorf("transport: frame length %d exceeds limit", body)
	}
	// The body buffer is pooled; Payload aliases it, so it is recycled
	// either here (rejected frame) or by the receiver's opt-in
	// Message.Release once the payload has been decoded.
	raw := getBuf(int(body))
	if _, err := io.ReadFull(r, raw); err != nil {
		putBuf(raw)
		return Message{}, err
	}
	buf := raw
	if len(buf) < 6 {
		putBuf(raw)
		return Message{}, errors.New("transport: frame too short")
	}
	msg := Message{From: int(buf[0]), To: int(buf[1]), poolBuf: raw}
	buf = buf[2:]
	sessLen := int(binary.LittleEndian.Uint16(buf))
	buf = buf[2:]
	if len(buf) < sessLen+2 {
		putBuf(raw)
		return Message{}, errors.New("transport: session field truncated")
	}
	msg.Session = string(buf[:sessLen])
	buf = buf[sessLen:]
	stepLen := int(binary.LittleEndian.Uint16(buf))
	buf = buf[2:]
	if len(buf) < stepLen {
		putBuf(raw)
		return Message{}, errors.New("transport: step field truncated")
	}
	msg.Step = string(buf[:stepLen])
	msg.Payload = buf[stepLen:]
	return msg, nil
}
