package core

import (
	"fmt"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/trustddl/trustddl/internal/byzantine"
	"github.com/trustddl/trustddl/internal/fixed"
	"github.com/trustddl/trustddl/internal/mnist"
	"github.com/trustddl/trustddl/internal/nn"
	"github.com/trustddl/trustddl/internal/protocol"
	"github.com/trustddl/trustddl/internal/sharing"
	"github.com/trustddl/trustddl/internal/suspicion"
	"github.com/trustddl/trustddl/internal/transport"
)

// TestTrainingStepOpensOnlyWhatItsBackwardReads watches every message
// the parties send during one training step, and every item their
// pipelined owner requests carry. The first parameterised layer's
// input gradient is read by nobody: no triple is dealt for it and no
// exchange runs for it. Every later parameterised layer takes its input
// gradient under its forward's weight mask: its forward deal carries
// the backward pair, no input-gradient triple is requested, and its
// input-gradient exchange opens only e = dY − A′. Every owner request
// is a plan segment: a request that left the plan travels alone, under
// an envelope that is not a segment's.
func TestTrainingStepOpensOnlyWhatItsBackwardReads(t *testing.T) {
	planSegment := regexp.MustCompile(`#pf[0-9]+$`)
	for _, tc := range []struct {
		name string
		arch nn.Arch
		// gradLayers are the parameterised layers whose input gradient
		// the step computes.
		gradLayers []int
	}{
		{"paper", nn.PaperArch(), []int{2, 4}},
		{"dense-first", smallArch(), []int{2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var mu sync.Mutex
			var sent []string                  // "session step" of every party message
			var dealt []protocol.TripleRequest // items of every owner request
			record := func(msg transport.Message) *transport.Message {
				mu.Lock()
				defer mu.Unlock()
				sent = append(sent, msg.Session+" "+msg.Step)
				if msg.To == transport.ModelOwner && strings.HasPrefix(msg.Step, "triple-batch") {
					reqs, err := protocol.DecodeTripleBatch(msg.Payload)
					if err != nil {
						t.Errorf("undecodable owner request: %v", err)
					}
					dealt = append(dealt, reqs...)
				}
				return &msg
			}
			c := newTestCluster(t, Config{Interceptors: map[int]transport.SendInterceptor{1: record, 2: record, 3: record}})
			weights, err := tc.arch.InitWeights(5)
			if err != nil {
				t.Fatal(err)
			}
			run, err := c.NewRunArch(tc.arch, weights)
			if err != nil {
				t.Fatal(err)
			}
			if err := run.TrainBatch(mnist.Synthetic(5, 4).Images, 0.05); err != nil {
				t.Fatal(err)
			}
			mu.Lock()
			defer mu.Unlock()

			if len(dealt) == 0 {
				t.Fatal("no pipelined owner request seen")
			}
			for _, r := range dealt {
				if strings.Contains(r.Session, "/dx/") {
					t.Errorf("input-gradient triple requested: %s", r.Session)
				}
				var layer int
				if _, err := fmt.Sscanf(r.Session[strings.LastIndex(r.Session, "/l")+2:], "%d", &layer); err == nil && strings.HasSuffix(r.Session, "/t") {
					if want := slices.Contains(tc.gradLayers, layer); r.BackPair != want {
						t.Errorf("%s: backward pair %t, want %t", r.Session, r.BackPair, want)
					}
				}
			}
			opened := map[string]bool{}
			for _, s := range sent {
				session, step, _ := strings.Cut(s, " ")
				if step == "triple-batch" && !planSegment.MatchString(session) {
					t.Errorf("off-plan deal: %s", s)
				}
				if !strings.HasSuffix(session, "/dx") {
					continue
				}
				if step != "e/commit" && step != "e/open" {
					t.Errorf("input-gradient exchange %s opens more than e", s)
				}
				opened[session[strings.LastIndex(session, "/b"):]] = true
			}
			want := map[string]bool{}
			for _, l := range tc.gradLayers {
				want[fmt.Sprintf("/b%d/dx", l)] = true
			}
			if !reflect.DeepEqual(opened, want) {
				t.Errorf("input-gradient exchanges %v, want %v", opened, want)
			}
		})
	}
}

// TestTrainingStepUnderEveryAdversary runs one Table I training step
// with each protocol-level adversary of internal/byzantine at each party
// position, against the same step run honestly. The weights the step
// leaves — revealed to the model owner by the decision rule, and, but
// for an equivocator's victim, the set the two honest parties hold
// between them — equal the honest run's up to the truncation carries
// of the candidate pair each opening decides on (2 raw units), and no
// honest party is charged with a commit violation. The input gradients
// multiply under the forward's weight mask, so a liar's corrupted
// dY − A′ is decided like any other opening.
//
// An equivocator's victim is left out of the share check: after it
// excludes the equivocator it holds weight shares that disagree with
// its peers' by the equivocator's 2³⁹ flip, with or without mask reuse
// in the backward; the owner's decision rule drops its set on reveal.
func TestTrainingStepUnderEveryAdversary(t *testing.T) {
	const carries = 2
	images := mnist.Synthetic(3, 8).Images
	type result struct {
		shares   [sharing.NumParties][]sharing.Bundle
		revealed []nn.Mat64
	}
	step := func(t *testing.T, adversaries map[int]protocol.Adversary) (*Cluster, result) {
		t.Helper()
		c := newTestCluster(t, Config{Mode: Malicious, Seed: 3, Adversaries: adversaries})
		run, err := c.NewRun(paperWeights(t))
		if err != nil {
			t.Fatal(err)
		}
		if err := run.TrainBatch(images, 0.05); err != nil {
			t.Fatal(err)
		}
		var r result
		for p := 1; p <= sharing.NumParties; p++ {
			var werr error
			if err := c.onParty(p, func(s *servedParty) { r.shares[p-1], werr = s.arch.WeightBundles(s.net) }); err != nil {
				t.Fatal(err)
			}
			if werr != nil {
				t.Fatal(werr)
			}
		}
		if r.revealed, err = run.WeightMatrices(); err != nil {
			t.Fatal(err)
		}
		return c, r
	}
	_, honest := step(t, nil)
	for byz := 1; byz <= sharing.NumParties; byz++ {
		// Set next(byz) is held by the two honest parties alone: its
		// first share by next(byz), its second by the party after that.
		set := byz%sharing.NumParties + 1
		holder2 := set%sharing.NumParties + 1
		for _, tc := range []struct {
			name string
			adv  protocol.Adversary
			// victimHoldsSet marks an equivocator targeting set's holder.
			victimHoldsSet bool
		}{
			{name: "consistent-liar", adv: byzantine.ConsistentLiar{}},
			{name: "commit-violator", adv: byzantine.CommitViolator{}},
			{name: "equivocator", adv: byzantine.Equivocator{Target: set}, victimHoldsSet: true},
		} {
			t.Run(fmt.Sprintf("%s/party%d", tc.name, byz), func(t *testing.T) {
				c, got := step(t, map[int]protocol.Adversary{byz: tc.adv})
				for i := range honest.revealed {
					if d := maxRawDiff(t, got.revealed[i], honest.revealed[i]); d > carries {
						t.Errorf("revealed weight matrix %d off the honest run's by %v raw units", i, d)
					}
				}
				if !tc.victimHoldsSet {
					for i := range honest.shares[0] {
						want, err := sharing.Reconstruct(honest.shares[set-1][i].Primary, honest.shares[holder2-1][i].Second)
						if err != nil {
							t.Fatal(err)
						}
						w, err := sharing.Reconstruct(got.shares[set-1][i].Primary, got.shares[holder2-1][i].Second)
						if err != nil {
							t.Fatal(err)
						}
						if d, _ := w.MaxAbsDiff(want); d > carries {
							t.Errorf("honest parties' weight matrix %d off the honest run's by %v raw units", i, d)
						}
					}
				}
				for _, ev := range c.Suspicions().Evidence {
					if ev.Party != byz && ev.Kind == suspicion.KindCommitViolation {
						t.Errorf("honest party %d charged: %+v", ev.Party, ev)
					}
				}
			})
		}
	}
}

// maxRawDiff is the largest element difference of two decoded weight
// matrices, in raw fixed-point units.
func maxRawDiff(t *testing.T, a, b nn.Mat64) float64 {
	t.Helper()
	d, err := a.MaxAbsDiff(b)
	if err != nil {
		t.Fatal(err)
	}
	return d * float64(int64(1)<<fixed.DefaultFracBits)
}
