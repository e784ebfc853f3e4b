package transport

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestChanSendFullInboxTimesOut(t *testing.T) {
	n := NewChanNetwork()
	defer n.Close()
	n.sendTimeout = 100 * time.Millisecond
	p1, err := n.Endpoint(Party1)
	if err != nil {
		t.Fatal(err)
	}
	// Fill Party2's inbox; nobody is draining it.
	for i := 0; i < inboxDepth; i++ {
		if err := p1.Send(Message{To: Party2, Step: "fill"}); err != nil {
			t.Fatalf("fill %d: %v", i, err)
		}
	}
	start := time.Now()
	err = p1.Send(Message{To: Party2, Step: "overflow"})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("overflow send err = %v, want ErrTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("bounded send took %v", elapsed)
	}
	// The timed-out message must not be metered.
	if st := n.Stats(); st.Messages != inboxDepth {
		t.Fatalf("messages = %d, want %d (failed send metered?)", st.Messages, inboxDepth)
	}
}

func TestChanCloseUnblocksFullInboxSender(t *testing.T) {
	n := NewChanNetwork()
	n.sendTimeout = time.Minute // far longer than the test: Close must win
	p1, err := n.Endpoint(Party1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < inboxDepth; i++ {
		if err := p1.Send(Message{To: Party2, Step: "fill"}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errc := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		errc <- p1.Send(Message{To: Party2, Step: "blocked"})
	}()
	time.Sleep(50 * time.Millisecond) // let the sender block
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("blocked send err = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("sender still blocked after network close")
	}
	wg.Wait()
}

func TestChanEndpointReattachAfterClose(t *testing.T) {
	n := NewChanNetwork()
	defer n.Close()
	p1, err := n.Endpoint(Party1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Endpoint(Party1); err == nil {
		t.Fatal("double attach of a live endpoint accepted")
	}
	if err := p1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p1.Send(Message{To: Party2}); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close send err = %v, want ErrClosed", err)
	}
	// Close released the slot: the actor can re-attach.
	if _, err := n.Endpoint(Party1); err != nil {
		t.Fatalf("re-attach after close: %v", err)
	}
}

// TestChanSpoofedFromReattributed: the in-process transport follows the
// same attribution contract as the keyed TCP path — a forged From is
// re-attributed to the sending endpoint and flagged, so protocol-layer
// sender checks (and SpoofError convictions) hold on chan-network runs
// too.
func TestChanSpoofedFromReattributed(t *testing.T) {
	n := NewChanNetwork()
	defer n.Close()
	p1, err := n.Endpoint(Party1)
	if err != nil {
		t.Fatal(err)
	}
	p3, err := n.Endpoint(Party3)
	if err != nil {
		t.Fatal(err)
	}
	// Party3 forges Party2's identity.
	if err := p3.Send(Message{From: Party2, To: Party1, Step: "forged"}); err != nil {
		t.Fatal(err)
	}
	got, err := p1.Recv(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got.From != Party3 || !got.Spoofed || got.ClaimedFrom != Party2 {
		t.Fatalf("forged From not re-attributed: %+v", got)
	}
	// An honest send (From unset or self) stays unflagged.
	if err := p3.Send(Message{To: Party1, Step: "honest"}); err != nil {
		t.Fatal(err)
	}
	got, err = p1.Recv(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got.From != Party3 || got.Spoofed || got.ClaimedFrom != 0 {
		t.Fatalf("honest send flagged: %+v", got)
	}
}

// TestLatencyCloseSendRace hammers Send concurrently with Close: every
// Send that returned nil must be either delivered or counted as a
// delivery error by the time Close returns — none silently lost.
func TestLatencyCloseSendRace(t *testing.T) {
	for round := 0; round < 20; round++ {
		base := NewChanNetwork()
		n := WithLatency(base, time.Millisecond)
		p1, err := n.Endpoint(Party1)
		if err != nil {
			t.Fatal(err)
		}
		p2, err := n.Endpoint(Party2)
		if err != nil {
			t.Fatal(err)
		}
		var accepted atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					if p1.Send(Message{To: Party2, Step: "race"}) == nil {
						accepted.Add(1)
					}
				}
			}()
		}
		time.Sleep(time.Duration(round%5) * 100 * time.Microsecond)
		if err := p1.Close(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		received := int64(0)
		for {
			if _, err := p2.Recv(50 * time.Millisecond); err != nil {
				break
			}
			received++
		}
		failed := n.(DeliveryCounter).DeliveryErrors()
		if received+failed != accepted.Load() {
			t.Fatalf("round %d: accepted %d sends but %d delivered + %d failed",
				round, accepted.Load(), received, failed)
		}
		_ = n.Close()
	}
}

func TestLatencyDeliveryErrorsCounted(t *testing.T) {
	base := NewChanNetwork()
	n := WithLatency(base, 10*time.Millisecond)
	defer n.Close()
	p1, err := n.Endpoint(Party1)
	if err != nil {
		t.Fatal(err)
	}
	defer p1.Close()
	// Actor 42 does not exist: the underlying Send fails in the
	// background forwarder, which must count it rather than discard it.
	if err := p1.Send(Message{To: 42, Step: "lost"}); err != nil {
		t.Fatalf("latent send should accept and fail in background, got %v", err)
	}
	counter, ok := n.(DeliveryCounter)
	if !ok {
		t.Fatal("latency wrapper does not implement DeliveryCounter")
	}
	deadline := time.Now().Add(5 * time.Second)
	for counter.DeliveryErrors() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := counter.DeliveryErrors(); got != 1 {
		t.Fatalf("DeliveryErrors = %d, want 1", got)
	}
}

func TestLatencyCloseFlushesQueuedMessages(t *testing.T) {
	base := NewChanNetwork()
	n := WithLatency(base, 150*time.Millisecond)
	p1, err := n.Endpoint(Party1)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := n.Endpoint(Party2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := p1.Send(Message{To: Party2, Step: "queued"}); err != nil {
			t.Fatal(err)
		}
	}
	// Close before the 150ms delay elapses: the queued messages must be
	// flushed to the peer, not dropped.
	if err := p1.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		msg, err := p2.Recv(2 * time.Second)
		if err != nil {
			t.Fatalf("flushed message %d: %v", i, err)
		}
		if msg.Step != "queued" || msg.From != Party1 {
			t.Fatalf("flushed message %d mangled: %+v", i, msg)
		}
	}
}
