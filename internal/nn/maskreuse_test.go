package nn

import (
	"fmt"
	"math"
	mathrand "math/rand/v2"
	"strings"
	"sync"
	"testing"

	"github.com/trustddl/trustddl/internal/byzantine"
	"github.com/trustddl/trustddl/internal/protocol"
	"github.com/trustddl/trustddl/internal/sharing"
	"github.com/trustddl/trustddl/internal/tensor"
	"github.com/trustddl/trustddl/internal/transport"
)

// maskNets builds, per party, the tiny MLP over shares of w1, w2, all
// dealing through the environment's real owner service.
func maskNets(t *testing.T, env *secureEnv, w1, w2 Mat64) [sharing.NumParties]*SecureNetwork {
	t.Helper()
	bw1, bw2 := shareMat(t, env, w1), shareMat(t, env, w2)
	var nets [sharing.NumParties]*SecureNetwork
	for i := range nets {
		d1, err := NewSecureDense(bw1[i])
		if err != nil {
			t.Fatal(err)
		}
		d2, err := NewSecureDense(bw2[i])
		if err != nil {
			t.Fatal(err)
		}
		nets[i] = &SecureNetwork{Layers: []SecureLayer{d1, NewSecureReLU(), d2}, OwnerActor: transport.ModelOwner}
	}
	return nets
}

// maskOf returns the weight mask party i's first dense layer holds.
func maskOf(nets [sharing.NumParties]*SecureNetwork, i int) weightMask {
	return nets[i].Layers[0].(*SecureDense).mask
}

// openedMask reconstructs the plaintext b behind the parties' cached
// shares of the first dense layer's mask.
func openedMask(t *testing.T, nets [sharing.NumParties]*SecureNetwork) Mat {
	t.Helper()
	var bs [sharing.NumParties]sharing.Bundle
	for i := range bs {
		bs[i] = maskOf(nets, i).b
	}
	return open(t, bs)
}

func forwardAll(t *testing.T, env *secureEnv, nets [sharing.NumParties]*SecureNetwork, session string, bx [sharing.NumParties]sharing.Bundle) Mat {
	t.Helper()
	return open(t, runSecure(t, env, func(i int) (sharing.Bundle, error) {
		return nets[i].Logits(env.ctxs[i], OwnerSource{Ctx: env.ctxs[i]}, session, bx[i])
	}))
}

// TestWeightMaskFreshPerWeightEpoch is TestTripleMasksAreFreshPerCall's
// intent for the one mask that is not single-use: a weight mask serves
// one weight value. It is opened once (f = W − b, cached with this
// party's share of b), reused while the weights stand, dropped by
// Update, and the pass after a weight change is dealt a different b.
func TestWeightMaskFreshPerWeightEpoch(t *testing.T) {
	env := newSecureEnv(t)
	rng := mathrand.New(mathrand.NewPCG(5, 6))
	w1, w2 := tinyWeights(rng)
	nets := maskNets(t, env, w1, w2)
	plain := &Network{Layers: []Layer{&Dense{W: w1.Clone()}, NewReLU(), &Dense{W: w2.Clone()}}}
	input := func(rows int) (Mat64, [sharing.NumParties]sharing.Bundle) {
		x := tensor.MustNew[float64](rows, 6)
		for i := range x.Data {
			x.Data[i] = rng.NormFloat64()
		}
		return x, shareMat(t, env, x)
	}
	check := func(what string, got Mat, x Mat64) {
		t.Helper()
		want, err := plain.Logits(x)
		if err != nil {
			t.Fatal(err)
		}
		if d := maxAbsDiffFloat(t, env.params, got, want); d > 1e-3 {
			t.Fatalf("%s: secure logits deviate from plaintext by %v", what, d)
		}
	}
	dealt := func() int { return env.svc.Stats().TriplesDealt }

	// Cold pass: the mask is opened and cached under the epoch's name.
	x, bx := input(1)
	check("cold pass", forwardAll(t, env, nets, WithMaskEpoch("p/1", 1), bx), x)
	cold := maskOf(nets, 0)
	if cold.name != "me=1/l0" {
		t.Fatalf("mask cached under %q, want %q", cold.name, "me=1/l0")
	}
	b1 := openedMask(t, nets)
	var ws [sharing.NumParties]sharing.Bundle
	for i := range ws {
		ws[i] = nets[i].Layers[0].(*SecureDense).W
	}
	wantF, err := open(t, ws).Sub(b1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range nets {
		if !maskOf(nets, i).f.Equal(wantF) {
			t.Fatalf("party %d cached an f that is not W − b", i+1)
		}
	}

	// Warm passes at another batch size: same mask, correct result.
	before := dealt()
	x, bx = input(3)
	check("warm pass", forwardAll(t, env, nets, WithMaskEpoch("p/2", 1), bx), x)
	if got := maskOf(nets, 0); got.name != cold.name || !got.f.Equal(cold.f) || !got.b.Primary.Equal(cold.b.Primary) {
		t.Fatal("a warm pass replaced the cached mask")
	}
	if dealt()-before != 3 { // two pairs and the ReLU's comparison item
		t.Fatalf("warm pass had %d items dealt, want 3", dealt()-before)
	}

	// A training step takes single-use triples and drops the mask.
	oneHot, err := OneHot([]int{1, 0, 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	by := shareMat(t, env, oneHot)
	runSecure(t, env, func(i int) (struct{}, error) {
		return struct{}{}, nets[i].TrainBatch(env.ctxs[i], OwnerSource{Ctx: env.ctxs[i]}, "t/3", bx[i], by[i], 0.1)
	})
	if _, err := plain.TrainBatch(x, []int{1, 0, 2}, 0.1); err != nil {
		t.Fatal(err)
	}
	for i := range nets {
		if m := maskOf(nets, i); m.name != "" || !m.f.IsZeroShape() || !m.b.Primary.IsZeroShape() {
			t.Fatalf("party %d kept its weight mask across an update", i+1)
		}
	}

	// The stale epoch cannot be used by mistake: the owner still deals
	// against its mask, and the layers refuse what they no longer hold.
	var wg sync.WaitGroup
	var errs [sharing.NumParties]error
	for i := range nets {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = nets[i].Logits(env.ctxs[i], OwnerSource{Ctx: env.ctxs[i]}, WithMaskEpoch("p/4", 1), bx[i])
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil || !strings.Contains(err.Error(), "does not hold") {
			t.Fatalf("party %d ran a pass under a stale mask epoch: %v", i+1, err)
		}
	}

	// The next epoch is cold again, under a different b.
	x, bx = input(1)
	check("cold pass after update", forwardAll(t, env, nets, WithMaskEpoch("p/5", 2), bx), x)
	if got := maskOf(nets, 0).name; got != "me=2/l0" {
		t.Fatalf("mask cached under %q after the update, want %q", got, "me=2/l0")
	}
	if openedMask(t, nets).Equal(b1) {
		t.Fatal("the owner dealt the same mask b for two weight values")
	}
}

// TestColdPassUnderAdversaryCachesTheHonestMask: whatever one
// Byzantine party does while the weight masks are opened, both honest
// parties cache the f an all-honest committee caches — bit for bit —
// and the warm passes that follow compute the honest result.
func TestColdPassUnderAdversaryCachesTheHonestMask(t *testing.T) {
	rng := mathrand.New(mathrand.NewPCG(7, 8))
	w1, w2 := tinyWeights(rng)
	xs := make([]Mat64, 4)
	for k := range xs {
		xs[k] = tensor.MustNew[float64](2, 6)
		for i := range xs[k].Data {
			xs[k].Data[i] = rng.NormFloat64()
		}
	}
	// Every environment seeds its dealer alike, so equal request
	// sequences are dealt equal masks and equal input shares.
	passes := func(t *testing.T, adv protocol.Adversary) (masks [sharing.NumParties]weightMask, logits []Mat) {
		env := newSecureEnv(t)
		env.ctxs[1].Adversary = adv
		nets := maskNets(t, env, w1, w2)
		for k, x := range xs {
			bx := shareMat(t, env, x)
			logits = append(logits, forwardAll(t, env, nets, WithMaskEpoch(fmt.Sprintf("p/%d", k), 1), bx))
		}
		for i := range masks {
			masks[i] = maskOf(nets, i)
		}
		return masks, logits
	}
	honestMasks, honestLogits := passes(t, nil)
	for name, adv := range map[string]protocol.Adversary{
		"consistent-liar":  byzantine.ConsistentLiar{},
		"commit-violator":  byzantine.CommitViolator{},
		"equivocator-to-1": byzantine.Equivocator{Target: 1},
	} {
		t.Run(name, func(t *testing.T) {
			masks, logits := passes(t, adv)
			for _, i := range []int{0, 2} {
				if masks[i].name != honestMasks[i].name || !masks[i].f.Equal(honestMasks[i].f) {
					t.Fatalf("honest party %d cached a different f than the all-honest committee", i+1)
				}
				if !masks[i].b.Primary.Equal(honestMasks[i].b.Primary) {
					t.Fatalf("honest party %d kept a different share of b", i+1)
				}
			}
			for k := range logits {
				if d, err := logits[k].MaxAbsDiff(honestLogits[k]); err != nil || d > 64 {
					t.Fatalf("pass %d: logits deviate from the honest committee's by %v raw units (%v)", k, d, err)
				}
			}
		})
	}
}

// TestEquivocatorTargetKeepsConsistentShares: honest parties must
// decide the same public value at every opening, so after a secure
// Dense → ReLU forward with party 1 equivocating towards party 2, every
// share set must still reconstruct the honest output (ROADMAP 14(a)).
// Until the target's decision rule is fixed, the sets that hold party
// 2's shares drift from the one that does not, and this is a known gap.
func TestEquivocatorTargetKeepsConsistentShares(t *testing.T) {
	t.Run("known/equivocator-target", func(t *testing.T) {
		env := newSecureEnv(t)
		env.ctxs[0].Adversary = byzantine.Equivocator{Target: 2}
		rng := mathrand.New(mathrand.NewPCG(14, 1))
		w1, _ := tinyWeights(rng)
		bw := shareMat(t, env, w1)
		// The sets drift only where party 2 decides an opening
		// differently from party 3, which needs a truncation carry that
		// differs between the sets at that element: one 2×6 input may
		// have none, so the gap is the largest over a few.
		var gap float64
		for draw := range 4 {
			x := tensor.MustNew[float64](2, 6)
			for i := range x.Data {
				x.Data[i] = rng.NormFloat64()
			}
			bx := shareMat(t, env, x)
			outs := runSecure(t, env, func(i int) (sharing.Bundle, error) {
				d, err := NewSecureDense(bw[i])
				if err != nil {
					return sharing.Bundle{}, err
				}
				h, err := d.Forward(env.ctxs[i], env.views[i], fmt.Sprintf("eq%d/dense", draw), bx[i])
				if err != nil {
					return sharing.Bundle{}, err
				}
				return NewSecureReLU().Forward(env.ctxs[i], env.views[i], fmt.Sprintf("eq%d/relu", draw), h)
			})
			sets, err := sharing.CollectSets(outs)
			if err != nil {
				t.Fatal(err)
			}
			// s^j = [s]^j_1 + [s]^j_2: sets 1 and 2 hold party 2's
			// shares, set 3 does not.
			var s [sharing.NumParties]Mat
			for j := range sets {
				if s[j], err = sets[j].First.Add(sets[j].Second); err != nil {
					t.Fatal(err)
				}
			}
			for _, j := range []int{0, 1} {
				d, err := s[j].MaxAbsDiff(s[2])
				if err != nil {
					t.Fatal(err)
				}
				gap = max(gap, d)
			}
		}
		if gap < 1<<30 {
			t.Fatalf("gap closed (sets holding party 2's shares are %v raw units from set 3): make the equivocator's target a regression", gap)
		}
		t.Skipf("known gap: with party 1 equivocating towards party 2, the sets holding party 2's shares reconstruct up to 2^%.1f raw units from set 3 after Dense → ReLU",
			math.Log2(gap))
	})
}
