package transport

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// dialAs opens a raw authenticated connection to `to`, handshaking as
// actor `as` — the toolkit of a Byzantine process that crafts its own
// frames.
func dialAs(t *testing.T, n *TCPNetwork, as, to int) net.Conn {
	t.Helper()
	addr, ok := n.addrOf(to)
	if !ok {
		t.Fatalf("no address for actor %d", to)
	}
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := dialHandshake(c, as, to, n.opts.Keyring, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestTCPSpoofedFromIsReattributed(t *testing.T) {
	n, err := NewLoopbackTCPNetwork()
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	p2, err := n.Endpoint(Party2)
	if err != nil {
		t.Fatal(err)
	}
	// Party1's process handshakes truthfully but forges the frame's From
	// byte to frame Party3.
	c := dialAs(t, n, Party1, Party2)
	defer c.Close()
	spoofed := Message{From: Party3, To: Party2, Session: "s", Step: "open", Payload: []byte("evil")}
	if _, err := writeFrame(c, spoofed); err != nil {
		t.Fatal(err)
	}
	got, err := p2.Recv(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got.From != Party1 {
		t.Fatalf("spoofed frame attributed to %s, want authenticated %s", ActorName(got.From), ActorName(Party1))
	}
	if !got.Spoofed || got.ClaimedFrom != Party3 {
		t.Fatalf("spoof not flagged: Spoofed=%v ClaimedFrom=%d", got.Spoofed, got.ClaimedFrom)
	}
	// An honest frame over the same connection is clean.
	if _, err := writeFrame(c, Message{From: Party1, To: Party2, Session: "s", Step: "commit"}); err != nil {
		t.Fatal(err)
	}
	got, err = p2.Recv(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got.Spoofed || got.From != Party1 {
		t.Fatalf("honest frame mangled: %+v", got)
	}
}

func TestTCPMisroutedFrameDropped(t *testing.T) {
	n, err := NewLoopbackTCPNetwork()
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	p2, err := n.Endpoint(Party2)
	if err != nil {
		t.Fatal(err)
	}
	c := dialAs(t, n, Party1, Party2)
	defer c.Close()
	// A frame addressed to a different actor must not surface on P2.
	if _, err := writeFrame(c, Message{From: Party1, To: Party3, Session: "s", Step: "x"}); err != nil {
		t.Fatal(err)
	}
	if _, err := writeFrame(c, Message{From: Party1, To: Party2, Session: "s", Step: "y"}); err != nil {
		t.Fatal(err)
	}
	got, err := p2.Recv(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got.Step != "y" {
		t.Fatalf("misrouted frame delivered: %+v", got)
	}
}

func TestTCPHandshakeRejectsWrongAddressee(t *testing.T) {
	n, err := NewLoopbackTCPNetwork()
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if _, err := n.Endpoint(Party2); err != nil {
		t.Fatal(err)
	}
	addr, _ := n.addrOf(Party2)
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Hello addressed to Party3 arriving at Party2's listener: the
	// acceptor must refuse (no ack, connection closed).
	if err := dialHandshake(c, Party1, Party3, n.opts.Keyring, 2*time.Second); err == nil {
		t.Fatal("handshake with wrong addressee accepted")
	}
}

func TestTCPUnauthenticatedTrafficRefused(t *testing.T) {
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
	// Raw frames without a handshake never reach the inbox; the
	// acceptor closes the connection.
	if _, err := writeFrame(c, Message{From: Party1, To: Party2, Session: "s", Step: "x"}); err != nil {
		t.Fatal(err)
	}
	if _, err := p2.Recv(200 * time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("unauthenticated frame delivered (err=%v)", err)
	}
}

func TestTCPStatsExactWireBytes(t *testing.T) {
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
	msgs := []Message{
		{To: Party2, Session: "", Step: "", Payload: nil},
		{To: Party2, Session: "sess", Step: "step", Payload: []byte{1, 2, 3}},
		{To: Party2, Session: "x", Step: "commit", Payload: make([]byte, 4096)},
	}
	var want int64
	for _, m := range msgs {
		if err := p1.Send(m); err != nil {
			t.Fatal(err)
		}
		m.From = Party1
		want += int64(m.wireSize())
	}
	for range msgs {
		if _, err := p2.Recv(5 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	st := n.Stats()
	if st.Bytes != want || st.RecvBytes != want {
		t.Fatalf("bytes sent=%d received=%d, want exactly %d wire bytes", st.Bytes, st.RecvBytes, want)
	}
	if st.Messages != int64(len(msgs)) || st.RecvMessages != int64(len(msgs)) {
		t.Fatalf("messages sent=%d received=%d, want %d", st.Messages, st.RecvMessages, len(msgs))
	}
	if st.PerActor[Party1].Bytes != want || st.PerActor[Party2].RecvBytes != want {
		t.Fatalf("per-actor attribution wrong: %+v", st.PerActor)
	}
}

func TestTCPSendFailureNotMetered(t *testing.T) {
	// Bind an address, then close it so dials are refused.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := l.Addr().String()
	_ = l.Close()
	l2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	liveAddr := l2.Addr().String()
	_ = l2.Close()

	n := NewTCPNetwork(map[int]string{Party1: liveAddr, Party2: deadAddr},
		TCPOptions{DialTimeout: 200 * time.Millisecond, SendAttempts: 2, RetryBackoff: 10 * time.Millisecond})
	defer n.Close()
	p1, err := n.Endpoint(Party1)
	if err != nil {
		t.Fatal(err)
	}
	if err := p1.Send(Message{To: Party2, Step: "x", Payload: []byte("lost")}); err == nil {
		t.Fatal("send to dead peer succeeded")
	}
	if st := n.Stats(); st.Messages != 0 || st.Bytes != 0 {
		t.Fatalf("failed send was metered: %+v", st)
	}
}

func TestTCPSendDeadlineOnStalledReader(t *testing.T) {
	// A peer that completes the handshake and then never reads: the
	// sender's socket buffer fills and, without a write deadline, Send
	// would wedge forever.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				if _, err := acceptHandshake(c, Party2, nil, 2*time.Second); err != nil {
					_ = c.Close()
				}
				// Never read again; keep the connection open.
			}(c)
		}
	}()

	other, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p1Addr := other.Addr().String()
	_ = other.Close()
	n := NewTCPNetwork(map[int]string{Party1: p1Addr, Party2: l.Addr().String()},
		TCPOptions{SendTimeout: 150 * time.Millisecond, SendAttempts: 1, RetryBackoff: 10 * time.Millisecond})
	defer n.Close()
	p1, err := n.Endpoint(Party1)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 8<<20)
	start := time.Now()
	var sendErr error
	for i := 0; i < 8; i++ {
		if sendErr = p1.Send(Message{To: Party2, Step: "big", Payload: payload}); sendErr != nil {
			break
		}
	}
	if sendErr == nil {
		t.Fatal("sends into a stalled reader never failed")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("stalled-reader send took %v: write deadline not applied", elapsed)
	}
}

func TestTCPKillAndRestartPartyRedial(t *testing.T) {
	n, err := NewLoopbackTCPNetwork()
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	n.opts.SendAttempts, n.opts.RetryBackoff = 5, 20*time.Millisecond
	p1, err := n.Endpoint(Party1)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := n.Endpoint(Party2)
	if err != nil {
		t.Fatal(err)
	}
	if err := p1.Send(Message{To: Party2, Step: "ping"}); err != nil {
		t.Fatal(err)
	}
	if _, err := p2.Recv(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Kill Party2 and restart it on the same address.
	if err := p2.Close(); err != nil {
		t.Fatal(err)
	}
	p2b, err := n.Endpoint(Party2)
	if err != nil {
		t.Fatalf("restart on same address: %v", err)
	}
	// The old connection is dead; Send must notice the broken pipe and
	// redial-with-backoff onto the restarted listener. The first frame
	// after a peer restart can be swallowed by the dead socket's buffer
	// (the write succeeds locally before the RST arrives), as on any
	// real network — the protocol's receive timers cover that window, so
	// drive a couple of sends like a retrying round would.
	got := make(chan Message, 1)
	go func() {
		if msg, err := p2b.Recv(10 * time.Second); err == nil {
			got <- msg
		}
	}()
	deadline := time.Now().Add(10 * time.Second)
	delivered := false
	for time.Now().Before(deadline) {
		if err := p1.Send(Message{To: Party2, Step: "ping2"}); err != nil {
			continue
		}
		select {
		case <-got:
			delivered = true
		case <-time.After(300 * time.Millisecond):
			continue
		}
		break
	}
	if !delivered {
		t.Fatal("restarted party never reachable: redial-with-backoff failed")
	}

	// The endpoint registry must not leak the dead endpoint.
	n.mu.Lock()
	eps := len(n.endpoints)
	n.mu.Unlock()
	if eps != 2 {
		t.Fatalf("endpoint registry holds %d entries after restart, want 2", eps)
	}
}

func TestTCPCloseUnblocksRetryingSender(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := l.Addr().String()
	_ = l.Close()
	l2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	liveAddr := l2.Addr().String()
	_ = l2.Close()

	// Long backoff ladder: without Close-awareness the sender would
	// sleep for minutes.
	n := NewTCPNetwork(map[int]string{Party1: liveAddr, Party2: deadAddr},
		TCPOptions{DialTimeout: 100 * time.Millisecond, SendAttempts: 20, RetryBackoff: 2 * time.Second})
	defer n.Close()
	p1, err := n.Endpoint(Party1)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- p1.Send(Message{To: Party2, Step: "x"}) }()
	time.Sleep(150 * time.Millisecond) // let the first attempt fail into backoff
	_ = p1.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("err = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("sender still wedged after Close")
	}
}

func TestTCPNetworkCloseDrainsEndpointGoroutines(t *testing.T) {
	n, err := NewLoopbackTCPNetwork()
	if err != nil {
		t.Fatal(err)
	}
	p1, err := n.Endpoint(Party1)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := n.Endpoint(Party2)
	if err != nil {
		t.Fatal(err)
	}
	if err := p1.Send(Message{To: Party2, Step: "warm"}); err != nil {
		t.Fatal(err)
	}
	if _, err := p2.Recv(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	// Close is graceful: all endpoints unregistered, repeated Close
	// idempotent, post-close use fails cleanly.
	n.mu.Lock()
	eps := len(n.endpoints)
	n.mu.Unlock()
	if eps != 0 {
		t.Fatalf("%d endpoints still registered after network close", eps)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p1.Send(Message{To: Party2, Step: "late"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close send err = %v, want ErrClosed", err)
	}
}

func TestAcceptHandshakeRejectsGarbage(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	go func() {
		_, _ = client.Write([]byte("GET / HTTP/1.1\r\n"))
	}()
	if _, err := acceptHandshake(server, Party1, nil, time.Second); err == nil {
		t.Fatal("garbage hello accepted")
	}
}

func TestDialHandshakeRejectsWrongPeer(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	errc := make(chan error, 1)
	go func() {
		errc <- dialHandshake(client, Party1, Party2, nil, time.Second)
	}()
	// The far end identifies as Party3, not the dialed Party2.
	var hello [6]byte
	if _, err := io.ReadFull(server, hello[:]); err != nil {
		t.Fatal(err)
	}
	ack := [6]byte{'T', 'D', 'L', '1', byte(Party3), 0}
	if _, err := server.Write(ack[:]); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err == nil {
		t.Fatal("mismatched peer identity accepted")
	}
}
