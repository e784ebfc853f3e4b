package core

import (
	"encoding/binary"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/trustddl/trustddl/internal/mnist"
	"github.com/trustddl/trustddl/internal/nn"
	"github.com/trustddl/trustddl/internal/sharing"
	"github.com/trustddl/trustddl/internal/transport"
)

// tapNetwork shows every message party 1 receives to tap before the
// party reads it.
type tapNetwork struct {
	transport.Network
	tap func(transport.Message)
}

func (n tapNetwork) Endpoint(actor int) (transport.Endpoint, error) {
	ep, err := n.Network.Endpoint(actor)
	if err != nil || actor != 1 {
		return ep, err
	}
	return tapEndpoint{Endpoint: ep, tap: n.tap}, nil
}

type tapEndpoint struct {
	transport.Endpoint
	tap func(transport.Message)
}

func (e tapEndpoint) Recv(timeout time.Duration) (transport.Message, error) {
	msg, err := e.Endpoint.Recv(timeout)
	if err == nil {
		e.tap(msg)
	}
	return msg, err
}

// TestSecondRunDealsFreshLabels: over two Runs on one cluster — each
// provisioned, trained a step (with its softmax reshare) and asked for
// a pass — no owner deals party 1 two items under one deal number in
// one label domain. The deal counters belong to the dealers, not to a
// Run, so the second Run's deals continue where the first one's ended.
func TestSecondRunDealsFreshLabels(t *testing.T) {
	type label struct {
		owner  int
		domain sharing.Domain
		deal   uint64
	}
	var mu sync.Mutex
	seen := map[label]string{}
	var repeats []string
	record := func(owner int, domain sharing.Domain, item []byte, where string) {
		it, err := transport.DecodeKeyedItem(item, 1)
		if err != nil {
			t.Errorf("%s: %v", where, err)
			return
		}
		l := label{owner, domain, it.Deal}
		if first, ok := seen[l]; ok {
			repeats = append(repeats, fmt.Sprintf("%s and %s", first, where))
		}
		seen[l] = where
	}
	tap := func(msg transport.Message) {
		mu.Lock()
		defer mu.Unlock()
		where := msg.Session + " " + msg.Step
		switch {
		case msg.From == transport.ModelOwner && msg.Step == "triple-batch/resp":
			buf := msg.Payload[4:]
			for k := binary.LittleEndian.Uint32(msg.Payload); k > 0; k-- {
				n := binary.LittleEndian.Uint32(buf)
				record(msg.From, sharing.DomainDeal, buf[4:4+n], where)
				buf = buf[4+n:]
			}
		case msg.From == transport.ModelOwner && strings.HasPrefix(msg.Step, "fn/"):
			record(msg.From, sharing.DomainReshare, msg.Payload, where)
		case msg.From == transport.ModelOwner && (strings.HasPrefix(msg.Step, "w/") || strings.HasPrefix(msg.Step, "v/")),
			msg.From == transport.DataOwner && (msg.Step == "x" || msg.Step == "y"):
			record(msg.From, sharing.DomainDeal, msg.Payload, where)
		}
	}
	netw := transport.NewChanNetwork()
	t.Cleanup(func() { _ = netw.Close() })
	c := newTestCluster(t, Config{Seed: 1, Net: tapNetwork{Network: netw, tap: tap}})
	images := mnist.Synthetic(3, 2).Images
	for r := 0; r < 2; r++ {
		run, err := c.NewRun(paperWeights(t))
		if err != nil {
			t.Fatal(err)
		}
		if err := run.TrainBatch(images, 0.05); err != nil {
			t.Fatal(err)
		}
		if _, err := run.Infer(images[0]); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(repeats) != 0 {
		t.Fatalf("deal numbers dealt twice in one domain: %v", repeats)
	}
	// Per Run: 3 weights, 8 + 5 triple items, x and y twice, 1 reshare.
	if want := 2 * (3 + 13 + 3 + 1); len(seen) != want {
		t.Fatalf("party 1 saw %d keyed items, want %d", len(seen), want)
	}
}

// TestRejoinedPartyExpandsWithResentKeys: a served party restarts with
// no state — no keys either — and announces its rejoin. Re-provisioning
// sends it both owners' keys again, and the next pass is decided with
// it: the plaintext label, and no evidence against the rejoined party.
func TestRejoinedPartyExpandsWithResentKeys(t *testing.T) {
	c, sup := newChaosCluster(t, 19, 5*time.Second)
	for p := 1; p <= sharing.NumParties; p++ {
		if err := sup.Start(p); err != nil {
			t.Fatal(err)
		}
	}
	w := paperWeights(t)
	plain, err := nn.NewPlainPaperNet(w)
	if err != nil {
		t.Fatal(err)
	}
	img := mnist.Synthetic(19, 1).Images[0]
	x, _, err := batchMatrices([]mnist.Image{img})
	if err != nil {
		t.Fatal(err)
	}
	want, err := plain.Predict(x)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.NewRun(w); err != nil {
		t.Fatal(err)
	}
	if err := sup.Kill(2); err != nil {
		t.Fatal(err)
	}
	if err := sup.Restart(2); err != nil {
		t.Fatal(err)
	}
	waitForRejoin(t, c, 2)
	run, err := c.NewRun(w)
	if err != nil {
		t.Fatal(err)
	}
	got, err := run.Infer(img)
	if err != nil {
		t.Fatal(err)
	}
	if got != want[0] {
		t.Fatalf("label %d after the rejoin, plaintext %d", got, want[0])
	}
	// A party that could not expand its shares would deliver nothing or
	// garbage: circumstantial or attributable evidence.
	if att, circ := c.SuspicionLedger().Score(2); att != 0 || circ != 0 {
		t.Fatalf("the rejoined party has evidence against it (%d attributable, %d circumstantial)", att, circ)
	}
}
