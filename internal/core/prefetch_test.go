package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/trustddl/trustddl/internal/byzantine"
	"github.com/trustddl/trustddl/internal/sharing"
	"github.com/trustddl/trustddl/internal/transport"
)

// ownerHeld is a channel network whose model owner stalls, while hold
// is set, on sending any reply that stall matches.
type ownerHeld struct {
	*transport.ChanNetwork
	hold  *byzantine.Gate
	stall func(transport.Message) bool
}

func (n ownerHeld) Endpoint(actor int) (transport.Endpoint, error) {
	ep, err := n.ChanNetwork.Endpoint(actor)
	if err != nil || actor != transport.ModelOwner {
		return ep, err
	}
	return transport.Intercepted(ep, func(msg transport.Message) *transport.Message {
		for n.hold.On() && n.stall(msg) {
			time.Sleep(time.Millisecond)
		}
		return &msg
	}), nil
}

// TestAbandonedPassLeavesNoDealInFlight: the owner holds back the
// second plan segment of a pass until its deadline has expired, so the
// pass is abandoned with that segment in flight. Abandoning must not
// wait for it, and when it does arrive — ahead of the next pass's own
// deals — the parties must drop it rather than buffer it: the next pass
// is served, with the honest labels, and no batch reply is left behind
// in any party's router.
func TestAbandonedPassLeavesNoDealInFlight(t *testing.T) {
	const batchReply = "triple-batch/resp"
	var hold byzantine.Gate
	net := ownerHeld{ChanNetwork: transport.NewChanNetwork(), hold: &hold, stall: func(msg transport.Message) bool {
		return msg.Step == batchReply && strings.HasSuffix(msg.Session, "#pf1")
	}}
	t.Cleanup(func() { _ = net.Close() })
	defer hold.Set(false)
	f := newMaskFixture(t, Config{Net: net})
	f.wantPass(t, "first pass", 0, 1, true)

	hold.Set(true)
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := f.run.InferBatch(ctx, f.images[1:2]); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("pass with its second segment held returned %v, want a deadline error", err)
	}
	if waited := time.Since(start); waited > time.Second {
		t.Fatalf("the abandoned pass took %v to return; it waited for the held segment", waited)
	}
	hold.Set(false)

	f.wantPass(t, "pass after the abandoned one", 1, 1, true)
	f.wantPass(t, "pass after that", 2, 1, false)
	for p := 1; p <= sharing.NumParties; p++ {
		err := f.c.onParty(p, func(s *servedParty) {
			for _, msg := range s.early.msgs {
				if msg.Step == batchReply {
					t.Errorf("party %d holds a batch reply for %q", p, msg.Session)
				}
			}
			for {
				msg, err := s.ctx.Router.Next(10 * time.Millisecond)
				if err != nil {
					break // nothing left, buffered or in flight
				}
				if msg.Step == batchReply {
					t.Errorf("party %d still holds a batch reply for %q", p, msg.Session)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if ev := honestEvidence(f.c, 0, nil); len(ev) != 0 {
		t.Fatalf("honest parties gained evidence: %v", ev)
	}
}
