package party

import (
	"errors"
	"testing"
	"time"

	"github.com/trustddl/trustddl/internal/transport"
)

func twoParties(t *testing.T) (*Router, *Router) {
	t.Helper()
	n := transport.NewChanNetwork()
	t.Cleanup(func() { _ = n.Close() })
	ep1, err := n.Endpoint(transport.Party1)
	if err != nil {
		t.Fatal(err)
	}
	ep2, err := n.Endpoint(transport.Party2)
	if err != nil {
		t.Fatal(err)
	}
	return NewRouter(ep1, 500*time.Millisecond), NewRouter(ep2, 500*time.Millisecond)
}

func TestExpectDelivers(t *testing.T) {
	r1, r2 := twoParties(t)
	if err := r1.Send(transport.Party2, "s1", "open", []byte("hi")); err != nil {
		t.Fatal(err)
	}
	msg, err := r2.Expect(transport.Party1, "s1", "open")
	if err != nil {
		t.Fatal(err)
	}
	if string(msg.Payload) != "hi" {
		t.Fatalf("payload %q", msg.Payload)
	}
}

func TestExpectBuffersOutOfOrder(t *testing.T) {
	r1, r2 := twoParties(t)
	// Send step "open" before step "commit"; receiver asks for commit
	// first.
	if err := r1.Send(transport.Party2, "s", "open", []byte("o")); err != nil {
		t.Fatal(err)
	}
	if err := r1.Send(transport.Party2, "s", "commit", []byte("c")); err != nil {
		t.Fatal(err)
	}
	c, err := r2.Expect(transport.Party1, "s", "commit")
	if err != nil {
		t.Fatal(err)
	}
	if string(c.Payload) != "c" {
		t.Fatalf("commit payload %q", c.Payload)
	}
	o, err := r2.Expect(transport.Party1, "s", "open")
	if err != nil {
		t.Fatal(err)
	}
	if string(o.Payload) != "o" {
		t.Fatalf("open payload %q (buffered message lost)", o.Payload)
	}
}

func TestExpectFIFOWithinKey(t *testing.T) {
	r1, r2 := twoParties(t)
	for i := byte(0); i < 3; i++ {
		if err := r1.Send(transport.Party2, "s", "step", []byte{i}); err != nil {
			t.Fatal(err)
		}
	}
	// Force buffering by first waiting on a different key until the
	// timer expires.
	_, _ = r2.Expect(transport.Party3, "s", "step")
	for i := byte(0); i < 3; i++ {
		msg, err := r2.Expect(transport.Party1, "s", "step")
		if err != nil {
			t.Fatal(err)
		}
		if msg.Payload[0] != i {
			t.Fatalf("message %d arrived as %d: FIFO order violated", i, msg.Payload[0])
		}
	}
}

func TestExpectTimeout(t *testing.T) {
	_, r2 := twoParties(t)
	_, err := r2.Expect(transport.Party1, "s", "never")
	var te *TimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v, want TimeoutError", err)
	}
	if te.From != transport.Party1 || te.Step != "never" {
		t.Fatalf("timeout metadata wrong: %+v", te)
	}
}

func TestGatherAnyOrder(t *testing.T) {
	n := transport.NewChanNetwork()
	defer n.Close()
	eps := make(map[int]*Router, 3)
	for _, id := range []int{transport.Party1, transport.Party2, transport.Party3} {
		ep, err := n.Endpoint(id)
		if err != nil {
			t.Fatal(err)
		}
		eps[id] = NewRouter(ep, 500*time.Millisecond)
	}
	// P2 and P3 each send to P1; P3 first.
	if err := eps[transport.Party3].Send(transport.Party1, "g", "x", []byte("three")); err != nil {
		t.Fatal(err)
	}
	if err := eps[transport.Party2].Send(transport.Party1, "g", "x", []byte("two")); err != nil {
		t.Fatal(err)
	}
	got, err := eps[transport.Party1].Gather([]int{transport.Party2, transport.Party3}, "g", "x")
	if err != nil {
		t.Fatal(err)
	}
	if string(got[transport.Party2].Payload) != "two" || string(got[transport.Party3].Payload) != "three" {
		t.Fatalf("gather mixed up senders: %+v", got)
	}
}

func TestGatherPartialOnTimeout(t *testing.T) {
	r1, r2 := twoParties(t)
	if err := r1.Send(transport.Party2, "g", "x", []byte("one")); err != nil {
		t.Fatal(err)
	}
	got, err := r2.Gather([]int{transport.Party1, transport.Party3}, "g", "x")
	var te *TimeoutError
	if !errors.As(err, &te) || te.From != transport.Party3 {
		t.Fatalf("err = %v, want timeout from P3", err)
	}
	if _, ok := got[transport.Party1]; !ok {
		t.Fatal("timely message from P1 lost: guaranteed output delivery requires partial results")
	}
	if _, ok := got[transport.Party3]; ok {
		t.Fatal("phantom message attributed to P3")
	}
}

func TestDrain(t *testing.T) {
	r1, r2 := twoParties(t)
	if err := r1.Send(transport.Party2, "old", "x", nil); err != nil {
		t.Fatal(err)
	}
	// Buffer it under a mismatched Expect, then drain.
	_, _ = r2.Expect(transport.Party1, "other", "y")
	r2.Drain()
	if _, err := r2.Expect(transport.Party1, "old", "x"); err == nil {
		t.Fatal("drained message still delivered")
	}
}

func TestDefaultTimeoutApplied(t *testing.T) {
	n := transport.NewChanNetwork()
	defer n.Close()
	ep, err := n.Endpoint(transport.Party1)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRouter(ep, 0)
	if r.Timeout() != DefaultTimeout {
		t.Fatalf("timeout = %v, want %v", r.Timeout(), DefaultTimeout)
	}
}

// spoofFeed is a stub endpoint that hands out a fixed message sequence,
// simulating the authenticated TCP path's re-attributed frames.
type spoofFeed struct {
	self int
	msgs []transport.Message
}

func (s *spoofFeed) Self() int                    { return s.self }
func (s *spoofFeed) Send(transport.Message) error { return nil }
func (s *spoofFeed) Close() error                 { return nil }
func (s *spoofFeed) Recv(time.Duration) (transport.Message, error) {
	if len(s.msgs) == 0 {
		return transport.Message{}, transport.ErrTimeout
	}
	msg := s.msgs[0]
	s.msgs = s.msgs[1:]
	return msg, nil
}

func TestNextGlobalFIFOAcrossSessions(t *testing.T) {
	r1, r2 := twoParties(t)
	// Interleave three sessions; force everything into the pending
	// buffer via a mismatched Expect, then pop with Next.
	order := []struct{ sess, step string }{
		{"sA", "open"}, {"sB", "open"}, {"sC", "open"},
		{"sA", "commit"}, {"sC", "commit"}, {"sB", "commit"},
	}
	for _, o := range order {
		if err := r1.Send(transport.Party2, o.sess, o.step, []byte(o.sess+o.step)); err != nil {
			t.Fatal(err)
		}
	}
	_, _ = r2.Expect(transport.Party3, "none", "none") // buffers all six
	for i, o := range order {
		msg, err := r2.Next(100 * time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if msg.Session != o.sess || msg.Step != o.step {
			t.Fatalf("Next #%d = (%s,%s), want (%s,%s): arrival order not preserved across sessions",
				i, msg.Session, msg.Step, o.sess, o.step)
		}
	}
}

func TestRouterRecordsSpoofs(t *testing.T) {
	feed := &spoofFeed{self: transport.Party1, msgs: []transport.Message{
		{From: transport.Party3, To: transport.Party1, Session: "s", Step: "honest"},
		{From: transport.Party3, To: transport.Party1, Session: "s", Step: "forged",
			Spoofed: true, ClaimedFrom: transport.Party2},
		{From: transport.Party3, To: transport.Party1, Session: "s", Step: "buffered",
			Spoofed: true, ClaimedFrom: transport.Party1},
	}}
	r := NewRouter(feed, 200*time.Millisecond)
	// First two arrive through Next; the third is buffered by Expect's
	// scan for a key that never comes, exercising the other intake path.
	if _, err := r.Next(0); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(0); err != nil {
		t.Fatal(err)
	}
	_, _ = r.Expect(transport.Party2, "s", "never")
	spoofs := r.Spoofs()
	if len(spoofs) != 2 {
		t.Fatalf("Spoofs() = %d records, want 2: %v", len(spoofs), spoofs)
	}
	if spoofs[0].From != transport.Party3 || spoofs[0].Claimed != transport.Party2 || spoofs[0].Step != "forged" {
		t.Fatalf("first spoof record wrong: %+v", spoofs[0])
	}
	if spoofs[1].Claimed != transport.Party1 || spoofs[1].Step != "buffered" {
		t.Fatalf("second spoof record wrong: %+v", spoofs[1])
	}
	// The re-attributed message itself is still deliverable.
	if msg, err := r.Expect(transport.Party3, "s", "buffered"); err != nil || !msg.Spoofed {
		t.Fatalf("re-attributed message lost: %v %+v", err, msg)
	}
}

// TestDiscardDropsBufferedAndLateArrivals: Discard removes a reply that
// is already buffered, and drops one that arrives after it was called —
// through Expect and Next alike — without touching other traffic.
func TestDiscardDropsBufferedAndLateArrivals(t *testing.T) {
	r1, r2 := twoParties(t)
	send := func(session, step string) {
		t.Helper()
		if err := r1.Send(transport.Party2, session, step, []byte(session+step)); err != nil {
			t.Fatal(err)
		}
	}
	send("early", "resp")
	send("s", "want")
	if _, err := r2.Expect(transport.Party1, "s", "want"); err != nil {
		t.Fatal(err)
	}
	if len(r2.pending) != 1 {
		t.Fatal("the early reply was not buffered")
	}
	r2.Discard(transport.Party1, "early", "resp")
	if len(r2.pending) != 0 {
		t.Fatal("Discard left the buffered reply in place")
	}

	r2.Discard(transport.Party1, "late", "resp")
	r2.Discard(transport.Party1, "late2", "resp")
	send("late", "resp")
	send("s", "next")
	send("late2", "resp")
	send("s", "last")
	if _, err := r2.Expect(transport.Party1, "s", "next"); err != nil {
		t.Fatal(err)
	}
	msg, err := r2.Next(time.Second)
	if err != nil || msg.Step != "last" {
		t.Fatalf("Next returned %q (%v), want the message after the discarded one", msg.Step, err)
	}
	if len(r2.pending) != 0 || len(r2.discard) != 0 {
		t.Fatalf("late replies left state behind: %d buffered, %d pending discards", len(r2.pending), len(r2.discard))
	}
}
