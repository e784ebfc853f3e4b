package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/trustddl/trustddl/internal/byzantine"
	"github.com/trustddl/trustddl/internal/mnist"
	"github.com/trustddl/trustddl/internal/nn"
	"github.com/trustddl/trustddl/internal/protocol"
	"github.com/trustddl/trustddl/internal/transport"
)

// Weight-mask reuse as the pass driver sees it: which passes are cold,
// that a mask never outlives the weights it was opened for, and that
// one Byzantine party can make passes cold but never wrong. All on the
// channel transport; a cold single-image pass of the Table I network
// moves ≈ 23.6 MB, a warm one ≈ 2.2 MB, so the wire meter tells them
// apart without looking inside the parties.

const coldPassBytes = 20 << 20 // between a warm and a cold single-image pass

type maskFixture struct {
	c      *Cluster
	run    *Run
	images []mnist.Image
	want   []int // honest reference labels of images
}

// newMaskFixture provisions the Table I network on a cluster built
// from cfg, and classifies the test images once on an all-honest
// cluster of the same seed, every pass cold, for reference.
func newMaskFixture(t *testing.T, cfg Config) *maskFixture {
	t.Helper()
	cfg.Seed = 1
	w, err := nn.InitPaperWeights(1)
	if err != nil {
		t.Fatal(err)
	}
	f := &maskFixture{images: mnist.Synthetic(1, 12).Images}
	ref, err := newTestCluster(t, Config{Seed: 1}).NewRun(w)
	if err != nil {
		t.Fatal(err)
	}
	for _, img := range f.images {
		ref.renewMaskEpoch()
		label, err := ref.Infer(img)
		if err != nil {
			t.Fatal(err)
		}
		f.want = append(f.want, label)
	}
	f.c = newTestCluster(t, cfg)
	if f.run, err = f.c.NewRun(w); err != nil {
		t.Fatal(err)
	}
	return f
}

// pass classifies images[at:at+n] in one pass, checks every label
// against the reference and reports whether the pass was cold.
func (f *maskFixture) pass(t *testing.T, at, n int) (cold bool) {
	t.Helper()
	before := f.c.Stats().Bytes
	got, err := f.run.InferBatch(context.Background(), f.images[at:at+n])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, f.want[at:at+n]) {
		t.Fatalf("images %d..%d: labels %v, honest reference %v", at, at+n-1, got, f.want[at:at+n])
	}
	return f.c.Stats().Bytes-before > coldPassBytes
}

func (f *maskFixture) wantPass(t *testing.T, what string, at, n int, cold bool) {
	t.Helper()
	if got := f.pass(t, at, n); got != cold {
		t.Fatalf("%s: cold=%v, want cold=%v", what, got, cold)
	}
}

// honestEvidence lists the ledger entries against parties other than
// the one configured as Byzantine, past the allowance known[party].
func honestEvidence(c *Cluster, byz int, known map[int]int) []string {
	var out []string
	for _, e := range c.Suspicions().Evidence {
		if e.Party != byz && e.Count > known[e.Party] {
			out = append(out, fmt.Sprintf("party %d %s ×%d at %s step %s", e.Party, e.Kind, e.Count, e.Session, e.Step))
		}
	}
	return out
}

// TestMaskEpochEndsWithTheWeights: the first pass of a run is cold,
// the following ones are warm at any batch size, and every event that
// changes the weights or re-deals them — a training step, a fresh
// provisioning — makes the next pass cold again.
func TestMaskEpochEndsWithTheWeights(t *testing.T) {
	f := newMaskFixture(t, Config{})
	f.wantPass(t, "first pass of a run", 0, 1, true)
	f.wantPass(t, "second pass", 1, 1, false)
	f.wantPass(t, "batch-4 pass on the same mask", 2, 4, false)
	f.wantPass(t, "batch-8 pass on the same mask", 4, 8, false)
	f.wantPass(t, "single image again", 0, 1, false)

	// A training step with a vanishing learning rate: labels stand, the
	// masks must not.
	if err := f.run.TrainBatch(f.images[:2], 1e-6); err != nil {
		t.Fatal(err)
	}
	f.wantPass(t, "first pass after a training step", 0, 1, true)
	f.wantPass(t, "second pass after a training step", 1, 1, false)

	// Re-provisioning (what a rejoin, a retry and a resume all do).
	weights, velocities, err := f.run.CaptureCheckpoint(false)
	if err != nil {
		t.Fatal(err)
	}
	if f.run, err = f.c.provision(f.run.Arch(), weights, velocities, 0); err != nil {
		t.Fatal(err)
	}
	f.wantPass(t, "first pass after re-provisioning", 0, 1, true)
	f.wantPass(t, "second pass after re-provisioning", 1, 1, false)
	if ev := honestEvidence(f.c, 0, nil); len(ev) != 0 {
		t.Fatalf("all-honest run left evidence: %v", ev)
	}
}

// TestWarmPassesUnderAdversary: a Byzantine party that is active while
// the weight masks are opened — and stays active — changes no label of
// the cold pass or of the 50 warm passes after it, is convicted as it
// is without mask reuse, and pins nothing new on an honest party.
func TestWarmPassesUnderAdversary(t *testing.T) {
	const passes = 51
	for _, tc := range []struct {
		name string
		adv  protocol.Adversary
		// known is honest evidence the parent commit records as well.
		known map[int]int
	}{
		{name: "consistent-liar", adv: byzantine.ConsistentLiar{}},
		{name: "commit-violator", adv: byzantine.CommitViolator{}},
		// ROADMAP item 1, with or without mask reuse: the party an
		// equivocator singles out excludes it and decides from fewer
		// candidates than its honest peer, and the peers' decision rule
		// scores the difference against it — 7 records a pass.
		{name: "equivocator", adv: byzantine.Equivocator{Target: 1}, known: map[int]int{1: 7 * passes}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newMaskFixture(t, Config{Adversaries: map[int]protocol.Adversary{2: tc.adv}})
			f.wantPass(t, "first pass", 0, 1, true)
			for k := 1; k < passes; k++ {
				f.wantPass(t, fmt.Sprintf("warm pass %d", k), k%len(f.images), 1, false)
			}
			if got := f.c.Suspicions().Convicted; !reflect.DeepEqual(got, []int{2}) {
				t.Fatalf("convicted %v, want [2]", got)
			}
			if ev := honestEvidence(f.c, 2, tc.known); len(ev) != 0 {
				t.Fatalf("honest parties gained evidence: %v", ev)
			}
		})
	}
}

// TestAbandonedColdPassIsFollowedByAColdPass: party 3 stalls its fc1
// opening past the pass deadline, so the pass dies with the conv mask
// already cached on some parties and the fc1 mask on none. The next
// pass must not trust any of it: it is cold, and correct.
func TestAbandonedColdPassIsFollowedByAColdPass(t *testing.T) {
	var stall byzantine.Gate
	f := newMaskFixture(t, Config{Interceptors: map[int]transport.SendInterceptor{
		3: func(msg transport.Message) *transport.Message {
			for stall.On() && strings.HasSuffix(msg.Session, "/l2") && strings.HasSuffix(msg.Step, "/open") {
				time.Sleep(time.Millisecond)
			}
			return &msg
		},
	}})
	stall.Set(true)
	release := time.AfterFunc(300*time.Millisecond, func() { stall.Set(false) })
	defer release.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	if _, err := f.run.InferBatch(ctx, f.images[:1]); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stalled pass returned %v, want a deadline error", err)
	}
	f.wantPass(t, "pass after an abandoned cold pass", 0, 1, true)
	f.wantPass(t, "pass after that", 1, 1, false)
	if ev := honestEvidence(f.c, 3, nil); len(ev) != 0 {
		t.Fatalf("honest parties gained evidence: %v", ev)
	}
}

// TestMaskNameSpamCannotUnbindHonestMasks: between passes party 2
// asks the owner for more bogus mask names than its table holds, for
// the honest masks under sessions of its own, and for them with the
// wrong shape. One party alone binds no name, so the committee's masks
// stay where they were: passes stay warm, and right.
func TestMaskNameSpamCannotUnbindHonestMasks(t *testing.T) {
	f := newMaskFixture(t, Config{})
	f.wantPass(t, "first pass", 0, 1, true)
	spammer := f.c.ctxs[1]
	fc1 := fmt.Sprintf("me=%d/l2", f.run.maskEpoch.Load()) // the name fc1's mask is bound under
	for k := 0; k < 3; k++ {
		for i := 0; i < 2*64; i++ {
			if _, err := protocol.RequestMatMulTriple(spammer, fmt.Sprintf("spam/%d/%d", k, i), fmt.Sprintf("bogus-%d-%d", k, i), 1, 2, 2); err != nil {
				t.Fatal(err)
			}
		}
		if tr, err := protocol.RequestMatMulTriple(spammer, fmt.Sprintf("spam/%d/real", k), fc1, 1, nn.PaperConvOut, nn.PaperHidden); err != nil || !tr.B.Primary.IsZeroShape() {
			t.Fatalf("a request under the committee's mask name was not dealt against it (%v)", err)
		}
		if _, err := protocol.RequestMatMulTriple(spammer, fmt.Sprintf("spam/%d/shape", k), fc1, 1, 3, 3); err != nil {
			t.Fatal(err)
		}
		f.wantPass(t, fmt.Sprintf("pass after spam round %d", k), k+1, 1, false)
	}
	if ev := honestEvidence(f.c, 2, nil); len(ev) != 0 {
		t.Fatalf("honest parties gained evidence: %v", ev)
	}
}

// TestOptimisticCommitViolatorIsConvicted: the optimistic exchange
// used to exclude a commit violator without recording anything, so it
// could be flagged forever and never convicted.
func TestOptimisticCommitViolatorIsConvicted(t *testing.T) {
	f := newMaskFixture(t, Config{
		Optimistic:  true,
		Adversaries: map[int]protocol.Adversary{3: byzantine.CommitViolator{}},
	})
	f.pass(t, 0, 1)
	if got := f.c.Suspicions().Convicted; !reflect.DeepEqual(got, []int{3}) {
		t.Fatalf("convicted %v under the optimistic exchange, want [3]:\n%s", got, f.c.Suspicions())
	}
	if ev := honestEvidence(f.c, 3, nil); len(ev) != 0 {
		t.Fatalf("honest parties gained evidence: %v", ev)
	}
}
