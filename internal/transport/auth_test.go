package transport

import (
	"crypto/ed25519"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"
)

// TestAuthHandshakeRejectsForgedProof models the attack the handshake
// exists to stop: a host that knows the wire protocol and every public
// key — but not Party1's private key — dials Party2 claiming to be
// Party1. The acceptor must reject the proof and deliver nothing.
func TestAuthHandshakeRejectsForgedProof(t *testing.T) {
	n, err := NewLoopbackTCPNetwork()
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	p2, err := n.Endpoint(Party2)
	if err != nil {
		t.Fatal(err)
	}
	addr, _ := n.addrOf(Party2)
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	attacker, err := GenerateKeyring()
	if err != nil {
		t.Fatal(err)
	}
	_ = c.SetDeadline(time.Now().Add(2 * time.Second))
	nonceD := []byte("0123456789abcdef")
	hello := append(append(append([]byte{}, authMagic[:]...), byte(Party1), byte(Party2)), nonceD...)
	if _, err := c.Write(hello); err != nil {
		t.Fatal(err)
	}
	var ack [authAckLen]byte
	if _, err := io.ReadFull(c, ack[:]); err != nil {
		t.Fatal(err)
	}
	nonceA := ack[6 : 6+authNonceLen]
	// Sign the correct transcript with the WRONG key: only possession
	// of Party1's private key may pass.
	sig := ed25519.Sign(attacker.privs[Party1], authTranscript("tdl2-dial", Party1, Party2, nonceD, nonceA))
	if _, err := c.Write(sig); err != nil {
		t.Fatal(err)
	}
	if _, err := writeFrame(c, Message{From: Party1, To: Party2, Session: "s", Step: "forged"}); err == nil {
		// The write may or may not fail depending on close timing; the
		// delivery check below is the real assertion.
		_ = err
	}
	if _, err := p2.Recv(300 * time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("frame from key-less impersonator delivered (err=%v)", err)
	}
}

// TestAuthHandshakeDialerVerifiesAcceptor checks mutuality: a dialer
// must not talk to an acceptor that cannot prove the dialed actor's
// key, so a hijacked address (DNS/ARP/port reuse) cannot harvest
// frames.
func TestAuthHandshakeDialerVerifiesAcceptor(t *testing.T) {
	real1, err := GenerateKeyring()
	if err != nil {
		t.Fatal(err)
	}
	fake, err := GenerateKeyring()
	if err != nil {
		t.Fatal(err)
	}
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	go func() {
		// The fake acceptor answers with its own keys.
		_, _ = acceptHandshake(server, Party2, fake, time.Second)
	}()
	err = dialHandshake(client, Party1, Party2, real1, time.Second)
	if err == nil {
		t.Fatal("dialer accepted an acceptor holding the wrong key")
	}
}

// TestHandshakeModeMismatchFailsClosed: a keyed endpoint and an unkeyed
// one must refuse each other rather than silently downgrade.
func TestHandshakeModeMismatchFailsClosed(t *testing.T) {
	kr, err := GenerateKeyring()
	if err != nil {
		t.Fatal(err)
	}
	t.Run("keyed acceptor, unkeyed dialer", func(t *testing.T) {
		client, server := net.Pipe()
		defer client.Close()
		defer server.Close()
		errc := make(chan error, 1)
		go func() {
			_, err := acceptHandshake(server, Party2, kr, 500*time.Millisecond)
			errc <- err
		}()
		_ = dialHandshake(client, Party1, Party2, nil, 500*time.Millisecond)
		if err := <-errc; err == nil {
			t.Fatal("keyed acceptor accepted an unauthenticated hello")
		}
	})
	t.Run("unkeyed acceptor, keyed dialer", func(t *testing.T) {
		client, server := net.Pipe()
		defer client.Close()
		defer server.Close()
		errc := make(chan error, 1)
		go func() {
			_, err := acceptHandshake(server, Party2, nil, 500*time.Millisecond)
			errc <- err
		}()
		_ = dialHandshake(client, Party1, Party2, kr, 500*time.Millisecond)
		if err := <-errc; err == nil {
			t.Fatal("unkeyed acceptor accepted a TDL2 hello")
		}
	})
}

// TestKeyedMeshEndToEnd: both directions over real sockets with the
// authenticated handshake, including attribution of a forged From.
func TestKeyedMeshEndToEnd(t *testing.T) {
	n, err := NewLoopbackTCPNetwork()
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	p1, err := n.Endpoint(Party1)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := n.Endpoint(Party2)
	if err != nil {
		t.Fatal(err)
	}
	if err := p1.Send(Message{To: Party2, Session: "s", Step: "ping", Payload: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	got, err := p2.Recv(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got.From != Party1 || got.Spoofed {
		t.Fatalf("authenticated frame mangled: %+v", got)
	}
	if err := p2.Send(Message{To: Party1, Session: "s", Step: "pong"}); err != nil {
		t.Fatal(err)
	}
	if _, err := p1.Recv(5 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestEndpointRequiresPrivateKey: on a keyed mesh an endpoint cannot be
// created for an actor the process cannot sign as.
func TestEndpointRequiresPrivateKey(t *testing.T) {
	full, err := GenerateKeyring()
	if err != nil {
		t.Fatal(err)
	}
	pubsOnly, err := NewKeyring(full.pubs)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	_ = l.Close()
	n := NewTCPNetwork(map[int]string{Party1: addr}, TCPOptions{Keyring: pubsOnly})
	defer n.Close()
	if _, err := n.Endpoint(Party1); err == nil {
		t.Fatal("endpoint created without a signing key on a keyed mesh")
	}
}

// TestKeyringHexRoundTrip exercises the deployment provisioning path:
// -genkey output → KeyringFromHex + AddPrivateSeedHex.
func TestKeyringHexRoundTrip(t *testing.T) {
	pubs := make(map[int]string, NumActors)
	seeds := make(map[int]string, NumActors)
	for id := 1; id <= NumActors; id++ {
		seed, pub, err := GenerateSeedHex()
		if err != nil {
			t.Fatal(err)
		}
		pubs[id], seeds[id] = pub, seed
	}
	kr, err := KeyringFromHex(pubs)
	if err != nil {
		t.Fatal(err)
	}
	if err := kr.AddPrivateSeedHex(Party1, seeds[Party1]); err != nil {
		t.Fatal(err)
	}
	if !kr.hasPrivate(Party1) || kr.hasPrivate(Party2) {
		t.Fatal("private key registration wrong")
	}
	// A seed that does not match the published key must be rejected.
	if err := kr.AddPrivateSeedHex(Party2, seeds[Party3]); err == nil {
		t.Fatal("mismatched seed accepted")
	}
	if kr.PublicHex(Party1) != pubs[Party1] {
		t.Fatal("PublicHex round trip broken")
	}
}

// TestUnkeyedMeshScreensRemoteAddr: without keys, a dialer claiming an
// actor whose configured address names a different IP is refused; a
// claim matching the source IP passes. (Best-effort only — the real
// defense is the keyring.)
func TestUnkeyedMeshScreensRemoteAddr(t *testing.T) {
	n := NewTCPNetwork(map[int]string{
		Party1: "203.0.113.7:9001", // TEST-NET address: never the dialer's source IP
		Party2: "127.0.0.1:0",
		Party3: "127.0.0.1:9003",
	}, TCPOptions{})
	defer n.Close()
	ep, err := n.Endpoint(Party2)
	if err != nil {
		t.Fatal(err)
	}
	addr := ep.(*tcpEndpoint).listener.Addr().String()

	// Claiming Party1 (configured on a foreign IP) from loopback: the
	// handshake completes but every frame is refused.
	c1, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	if err := dialHandshake(c1, Party1, Party2, nil, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := writeFrame(c1, Message{From: Party1, To: Party2, Step: "borrowed-identity"}); err != nil {
		t.Fatal(err)
	}
	if _, err := ep.Recv(300 * time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("frame from IP-mismatched claimant delivered (err=%v)", err)
	}

	// Claiming Party3 (configured on 127.0.0.1) is allowed.
	c3, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	if err := dialHandshake(c3, Party3, Party2, nil, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := writeFrame(c3, Message{From: Party3, To: Party2, Step: "ok"}); err != nil {
		t.Fatal(err)
	}
	got, err := ep.Recv(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got.From != Party3 || got.Step != "ok" {
		t.Fatalf("legitimate unkeyed frame mangled: %+v", got)
	}
}

// writeResultConn overrides Write to simulate kernel-handoff outcomes
// the retry logic must distinguish.
type writeResultConn struct {
	net.Conn
	shortBy int // bytes NOT written before the simulated error
}

func (c writeResultConn) Write(p []byte) (int, error) {
	n := len(p) - c.shortBy
	if n < 0 {
		n = 0
	}
	return n, errors.New("simulated write deadline")
}

func stubEndpoint(t *testing.T, conn net.Conn) (*TCPNetwork, *tcpEndpoint) {
	t.Helper()
	n := NewTCPNetwork(map[int]string{}, TCPOptions{SendAttempts: 3, RetryBackoff: time.Millisecond})
	e := &tcpEndpoint{
		net:     n,
		self:    Party1,
		inbox:   make(chan Message, 1),
		conns:   map[int]*tcpConn{Party2: {c: conn}},
		inbound: make(map[net.Conn]struct{}),
		done:    make(chan struct{}),
	}
	return n, e
}

// TestTCPSendNotRetriedAfterFullWrite: when the whole frame reached the
// kernel before the error, the message may still be delivered — Send
// must fail WITHOUT resending, or the receiver could see it twice.
func TestTCPSendNotRetriedAfterFullWrite(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	n, e := stubEndpoint(t, writeResultConn{Conn: client, shortBy: 0})
	err := e.Send(Message{To: Party2, Session: "s", Step: "x", Payload: []byte("p")})
	if err == nil {
		t.Fatal("send reported success despite write error")
	}
	if !strings.Contains(err.Error(), "not resent") {
		t.Fatalf("full-write failure was retried: %v", err)
	}
	if st := n.Stats(); st.Messages != 0 || st.Bytes != 0 {
		t.Fatalf("failed send metered: %+v", st)
	}
}

// TestTCPSendRetriedAfterPartialWrite: a partial frame can never be
// parsed by the receiver (length-prefixed framing, connection dropped),
// so the sender is free to retry it on a fresh connection.
func TestTCPSendRetriedAfterPartialWrite(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	n, e := stubEndpoint(t, writeResultConn{Conn: client, shortBy: 1})
	err := e.Send(Message{To: Party2, Session: "s", Step: "x", Payload: []byte("p")})
	if err == nil {
		t.Fatal("send reported success despite write error")
	}
	// The retry path redials (and fails on the empty address map) —
	// proving the attempt budget was used rather than aborting.
	if !strings.Contains(err.Error(), "after 3 attempts") {
		t.Fatalf("partial write did not take the retry path: %v", err)
	}
	if st := n.Stats(); st.Messages != 0 || st.Bytes != 0 {
		t.Fatalf("failed send metered: %+v", st)
	}
}
