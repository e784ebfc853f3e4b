package core

import (
	"context"
	"testing"

	"github.com/trustddl/trustddl/internal/mnist"
	"github.com/trustddl/trustddl/internal/nn"
	"github.com/trustddl/trustddl/internal/obs"
	"github.com/trustddl/trustddl/internal/sharing"
	"github.com/trustddl/trustddl/internal/transport"
)

// passCost is what one operation puts on the wire and asks of the
// owner: counts, not times, so they repeat exactly.
type passCost struct {
	PartyBytes int64 // sent by the three computing parties
	OwnerBytes int64 // sent by the model owner and the data owner
	Messages   int64 // frames, all actors
	Exchanges  int64 // commit-and-open rounds, summed over the parties
	Triples    int   // triples, pairs and auxiliary matrices dealt
}

// TestCostModelGolden pins the exact cost of the four operations the
// benchmark's workloads are made of — a cold and a warm single-image
// pass, a warm batch-4 pass and a batch-8 training step — on the
// channel transport at seed 1, with bound 0. A protocol change that
// adds a round or a megabyte fails here in seconds, with no timing
// involved; a change that means to move a figure updates it here and
// says why. (Frames carry the session label, so a figure moves by a
// few bytes if the operations before it are renumbered.)
func TestCostModelGolden(t *testing.T) {
	reg := obs.NewRegistry("costmodel")
	c := newTestCluster(t, Config{Seed: 1, Obs: reg})
	w, err := nn.InitPaperWeights(1)
	if err != nil {
		t.Fatal(err)
	}
	run, err := c.NewRun(w)
	if err != nil {
		t.Fatal(err)
	}
	images := mnist.Synthetic(1, 8).Images

	measure := func(op func() error) passCost {
		t.Helper()
		wire, owner, exchanges := c.Stats(), c.OwnerStats(), reg.Counter("protocol.exchanges").Value()
		if err := op(); err != nil {
			t.Fatal(err)
		}
		after := c.Stats()
		cost := passCost{
			Messages:  after.Messages - wire.Messages,
			Exchanges: reg.Counter("protocol.exchanges").Value() - exchanges,
			Triples:   c.OwnerStats().TriplesDealt - owner.TriplesDealt,
		}
		for actor := 1; actor <= transport.NumActors; actor++ {
			sent := after.PerActor[actor].Bytes - wire.PerActor[actor].Bytes
			if actor <= sharing.NumParties {
				cost.PartyBytes += sent
			} else {
				cost.OwnerBytes += sent
			}
		}
		return cost
	}
	infer := func(n int) func() error {
		return func() error {
			_, err := run.InferBatch(context.Background(), images[:n])
			return err
		}
	}

	for _, step := range []struct {
		name string
		op   func() error
		want passCost
	}{
		{"cold b1 pass", infer(1), passCost{PartyBytes: 15609942, OwnerBytes: 8015961, Messages: 132, Exchanges: 21, Triples: 7}},
		{"warm b1 pass", infer(1), passCost{PartyBytes: 1335474, OwnerBytes: 878745, Messages: 132, Exchanges: 21, Triples: 7}},
		{"warm b4 pass", infer(4), passCost{PartyBytes: 5320674, OwnerBytes: 3508329, Messages: 132, Exchanges: 21, Triples: 7}},
		{"b8 training step", func() error { return run.TrainBatch(images, 0.05) }, passCost{PartyBytes: 48590508, OwnerBytes: 36584640, Messages: 246, Exchanges: 39, Triples: 13}},
	} {
		if got := measure(step.op); got != step.want {
			t.Errorf("%s: cost %+v, pinned %+v", step.name, got, step.want)
		}
	}
}
