package protocol

import (
	"fmt"
	"testing"

	"github.com/trustddl/trustddl/internal/sharing"
	"github.com/trustddl/trustddl/internal/tensor"
)

// dealTo has the listed parties (1-based) request one MatMul triple
// each, one after the other, and returns what each was dealt.
func dealTo(t *testing.T, env *ownerEnv, parties []int, session, mask string, m, n, p int) map[int]sharing.TripleBundle {
	t.Helper()
	out := make(map[int]sharing.TripleBundle, len(parties))
	for _, i := range parties {
		tr, err := RequestTriple(env.ctxs[i-1], TripleRequest{Kind: ReqMatMul, Session: session, M: m, N: n, P: p, Mask: mask})
		if err != nil {
			t.Fatalf("party %d %s: %v", i, session, err)
		}
		out[i] = tr
	}
	return out
}

func carriesB(tr sharing.TripleBundle) bool { return !tr.B.Primary.IsZeroShape() }

// TestOwnerBindsMaskOnSecondCollector: a mask name is bound once two
// parties collected the deal that drew its mask — one party alone,
// however often it asks, binds nothing — and from then on every party
// asking under that name is dealt the same kind of answer: a pair
// against that mask, at any batch size.
func TestOwnerBindsMaskOnSecondCollector(t *testing.T) {
	env := newOwnerEnv(t)
	const n, p = 3, 2

	// Party 2 alone: full triples under any session, nothing bound.
	for i := 0; i < 3; i++ {
		if tr := dealTo(t, env, []int{2}, fmt.Sprintf("solo/%d", i), "w", 1, n, p)[2]; !carriesB(tr) {
			t.Fatalf("solo request %d was dealt against a mask only one party ever collected", i)
		}
	}
	// The committee's cold deal: all three get the full triple, and the
	// second collector binds the name.
	cold := dealTo(t, env, []int{1, 2, 3}, "s1", "w", 1, n, p)
	var bs [sharing.NumParties]sharing.Bundle
	for i := 1; i <= sharing.NumParties; i++ {
		if !carriesB(cold[i]) {
			t.Fatalf("party %d: cold deal carries no B", i)
		}
		bs[i-1] = cold[i].B
	}
	b := decideBundles(t, bs, nil)

	// Warm deals at two batch sizes: A and C only, C = A·b for that b.
	for k, m := range []int{1, 4} {
		warm := dealTo(t, env, []int{3, 1, 2}, fmt.Sprintf("s%d", k+2), "w", m, n, p)
		var as, cs [sharing.NumParties]sharing.Bundle
		for i := 1; i <= sharing.NumParties; i++ {
			if carriesB(warm[i]) {
				t.Fatalf("party %d: deal under a bound name carries B", i)
			}
			as[i-1], cs[i-1] = warm[i].A, warm[i].C
		}
		want, err := decideBundles(t, as, nil).MatMul(b)
		if err != nil {
			t.Fatal(err)
		}
		if !decideBundles(t, cs, nil).Equal(want) {
			t.Fatalf("warm deal %d: C is not A·b for the bound mask", k)
		}
	}
	// Another shape under the bound name is an unknown mask, and one
	// party asking for it rebinds nothing.
	if tr := dealTo(t, env, []int{2}, "odd", "w", 1, n+1, p)[2]; !carriesB(tr) {
		t.Fatal("a request of another shape was dealt against the bound mask")
	}
	if tr := dealTo(t, env, []int{1}, "s9", "w", 1, n, p)[1]; carriesB(tr) {
		t.Fatal("a single party's request of another shape unbound the committee's mask")
	}
	// No name: a single-use triple, as ever.
	if tr := dealTo(t, env, []int{1}, "plain", "", 1, n, p)[1]; !carriesB(tr) {
		t.Fatal("an unnamed request was dealt without B")
	}
}

// TestOwnerMaskTableEvictionDropsPendingDeals: when committee-confirmed
// names push the oldest one out of the table, a pair already dealt
// against it for a session yet to come (planted by one party while the
// name was bound) goes with it — whoever asks for that session later
// gets a fresh mask, not a pair against the one nobody is told about
// any more.
func TestOwnerMaskTableEvictionDropsPendingDeals(t *testing.T) {
	env := newOwnerEnv(t)
	dealTo(t, env, []int{1, 3}, "s1", "old", 1, 2, 2)
	if tr := dealTo(t, env, []int{2}, "future", "old", 1, 2, 2)[2]; carriesB(tr) {
		t.Fatal("the name was not bound by its second collector")
	}
	for i := 0; i < sharing.MaxRetainedMasks; i++ {
		dealTo(t, env, []int{1, 3}, fmt.Sprintf("fill/%d", i), fmt.Sprintf("new-%d", i), 1, 2, 2)
	}
	for _, i := range []int{1, 3} {
		if tr := dealTo(t, env, []int{i}, "future", "old", 1, 2, 2)[i]; !carriesB(tr) {
			t.Fatalf("party %d was dealt the pair planted against an evicted mask", i)
		}
	}
}

// TestSecMatMulWeightBTOpensMaskOnce: the first call opens e and f and
// returns f; later calls given that f, the kept B and a pair dealt
// against the same b open only e (one bundle instead of two on the
// wire) and compute the same product.
func TestSecMatMulWeightBTOpensMaskOnce(t *testing.T) {
	env := newPartyEnv(t, true)
	w, _ := tensor.FromSlice(3, 2, []float64{0.5, -1, 2, 0.25, -0.75, 1.5})
	bw := shareFloats(t, env, w)
	cold, err := env.dealer.DealBatch([]sharing.BatchOrder{{Kind: sharing.TripleMatMul, M: 2, N: 3, P: 2}})
	if err != nil {
		t.Fatal(err)
	}
	type out struct {
		z sharing.Bundle
		f Mat
	}
	run := func(session string, x tensor.Matrix[float64], triples [sharing.NumParties]sharing.TripleBundle, f [sharing.NumParties]Mat) ([sharing.NumParties]out, int64) {
		t.Helper()
		bx := shareFloats(t, env, x)
		before := env.net.Stats().Bytes
		outs := runAll(t, env, func(ctx *Ctx) (out, error) {
			i := ctx.Index - 1
			z, opened, err := SecMatMulWeightBT(ctx, session, bx[i], bw[i], triples[i], f[i])
			return out{z, opened}, err
		})
		var zs [sharing.NumParties]sharing.Bundle
		for i := range outs {
			zs[i] = outs[i].z
		}
		want, _ := x.MatMul(w)
		floatsClose(t, env.params, decideBundles(t, zs, nil), want, 16)
		return outs, env.net.Stats().Bytes - before
	}

	x1, _ := tensor.FromSlice(2, 3, []float64{1, 2, 3, -1, 0.5, 4})
	first, coldBytes := run("cold", x1, cold[0].Triple, [sharing.NumParties]Mat{})
	for i := 1; i < sharing.NumParties; i++ {
		if !first[i].f.Equal(first[0].f) {
			t.Fatalf("party %d decided a different f", i+1)
		}
	}

	warm, err := env.dealer.DealBatch([]sharing.BatchOrder{{Kind: sharing.TripleMatMul, M: 2, N: 3, P: 2, Against: cold[0].Mask}})
	if err != nil {
		t.Fatal(err)
	}
	var triples [sharing.NumParties]sharing.TripleBundle
	var fs [sharing.NumParties]Mat
	for i := range triples {
		triples[i] = warm[0].Triple[i]
		triples[i].B = cold[0].Triple[i].B
		fs[i] = first[i].f
	}
	x2, _ := tensor.FromSlice(2, 3, []float64{-2, 0.125, 1, 3, -3, 0.5})
	second, warmBytes := run("warm", x2, triples, fs)
	if !second[0].f.Equal(first[0].f) {
		t.Fatal("a warm call returned another f than it was given")
	}
	if warmBytes >= coldBytes {
		t.Fatalf("warm call moved %d bytes, cold call %d", warmBytes, coldBytes)
	}
}

// TestOwnerKeysConvDealsByGeometry: conv geometry is part of a request's
// key. A Byzantine party that asks first for a conv session's product
// without geometry, or with another geometry of the same lowered dims,
// is dealt entries of its own; the honest parties are still dealt A at
// the image shape their geometry says.
func TestOwnerKeysConvDealsByGeometry(t *testing.T) {
	env := newOwnerEnv(t)
	honest := ConvRequest("c/t", "me=1/l0", paperConv, 2, 5)
	other := paperConv
	other.Height, other.Width = 27, 27 // the same 14×14 positions and patch
	forged := ConvRequest("c/t", "me=1/l0", other, 2, 5)
	plain := honest
	plain.Conv = tensor.ConvShape{}
	if forged.M != honest.M || forged.N != honest.N {
		t.Fatal("the forged geometry must lower to the honest dims")
	}
	for _, r := range []TripleRequest{plain, forged} {
		if _, err := RequestTriple(env.ctxs[1], r); err != nil {
			t.Fatal(err)
		}
	}
	for _, i := range []int{0, 2} {
		tr, err := RequestTriple(env.ctxs[i], honest)
		if err != nil {
			t.Fatal(err)
		}
		if tr.A.Rows() != 2 || tr.A.Cols() != paperConv.InSize() {
			t.Fatalf("party %d was dealt A of %dx%d, want %dx%d", i+1, tr.A.Rows(), tr.A.Cols(), 2, paperConv.InSize())
		}
	}
}
