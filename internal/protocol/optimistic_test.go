package protocol

import (
	"testing"

	"github.com/trustddl/trustddl/internal/sharing"
	"github.com/trustddl/trustddl/internal/tensor"
)

// newOptimisticEnv is newPartyEnv with the reduced-redundancy opening
// enabled on all parties.
func newOptimisticEnv(t *testing.T, commitment bool) *partyEnv {
	t.Helper()
	env := newPartyEnv(t, commitment)
	for _, ctx := range env.ctxs {
		ctx.Optimistic = true
	}
	return env
}

func TestOptimisticSecMulBTHonest(t *testing.T) {
	env := newOptimisticEnv(t, true)
	x, _ := tensor.FromSlice(2, 3, []float64{1.5, -2.0, 0.25, 3.0, -0.5, 10.0})
	y, _ := tensor.FromSlice(2, 3, []float64{2.0, 4.0, -8.0, 0.5, -0.5, 0.1})
	bx, by := shareFloats(t, env, x), shareFloats(t, env, y)
	triples, err := env.dealer.HadamardTriple(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	outs := runAll(t, env, func(ctx *Ctx) (sharing.Bundle, error) {
		return SecMulBT(ctx, "omul", bx[ctx.Index-1], by[ctx.Index-1], triples[ctx.Index-1])
	})
	want, _ := x.Hadamard(y)
	floatsClose(t, env.params, decideBundles(t, outs, nil), want, 8)
}

func TestOptimisticSecMatMulBTHonest(t *testing.T) {
	env := newOptimisticEnv(t, true)
	x, _ := tensor.FromSlice(2, 3, []float64{1, 2, 3, -4, 5, -6})
	y, _ := tensor.FromSlice(3, 2, []float64{0.5, -1, 2, 0.25, -3, 1.5})
	bx, by := shareFloats(t, env, x), shareFloats(t, env, y)
	triples, err := env.dealer.MatMulTriple(2, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	outs := runAll(t, env, func(ctx *Ctx) (sharing.Bundle, error) {
		return SecMatMulBT(ctx, "omm", bx[ctx.Index-1], by[ctx.Index-1], triples[ctx.Index-1])
	})
	want, _ := x.MatMul(y)
	floatsClose(t, env.params, decideBundles(t, outs, nil), want, 16)
}

func TestOptimisticSecCompBTHonest(t *testing.T) {
	env := newOptimisticEnv(t, true)
	x, _ := tensor.FromSlice(1, 4, []float64{1.0, -3.5, 2.0, 0.0})
	y, _ := tensor.FromSlice(1, 4, []float64{0.5, 1.0, 2.0, -4.0})
	bx, by := shareFloats(t, env, x), shareFloats(t, env, y)
	triples, err := env.dealer.CompTriple(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	signs := runAll(t, env, func(ctx *Ctx) (Mat, error) {
		tr := triples[ctx.Index-1]
		return SecCompBT(ctx, "ocmp", bx[ctx.Index-1], by[ctx.Index-1], tr.B, tr)
	})
	want := []int64{1, -1, 0, 1}
	for p := 0; p < sharing.NumParties; p++ {
		for i, w := range want {
			if signs[p].Data[i] != w {
				t.Fatalf("party %d element %d: sign %d, want %d", p+1, i, signs[p].Data[i], w)
			}
		}
	}
}

func TestOptimisticSavesTraffic(t *testing.T) {
	// The honest fast path must move fewer bytes than the standard
	// exchange (it ships 2 of 3 matrices plus a vote byte).
	measure := func(optimistic bool) int64 {
		env := newPartyEnv(t, true)
		for _, ctx := range env.ctxs {
			ctx.Optimistic = optimistic
		}
		x, _ := tensor.FromSlice(8, 8, make([]float64, 64))
		bx := shareFloats(t, env, x)
		triples, err := env.dealer.HadamardTriple(8, 8)
		if err != nil {
			t.Fatal(err)
		}
		before := env.net.Stats().Bytes
		runAll(t, env, func(ctx *Ctx) (sharing.Bundle, error) {
			return SecMulBT(ctx, "m", bx[ctx.Index-1], bx[ctx.Index-1], triples[ctx.Index-1])
		})
		return env.net.Stats().Bytes - before
	}
	std := measure(false)
	opt := measure(true)
	if opt >= std {
		t.Fatalf("optimistic exchange (%d bytes) not below standard (%d bytes)", opt, std)
	}
	// Expect roughly a one-third reduction of the opening volume.
	if float64(opt) > 0.85*float64(std) {
		t.Fatalf("optimistic saving too small: %d vs %d bytes", opt, std)
	}
}

func TestOptimisticFallsBackUnderCorruption(t *testing.T) {
	// A Case-3 liar forces the fallback; the result must still be
	// correct at the honest parties.
	for byz := 1; byz <= sharing.NumParties; byz++ {
		env := newOptimisticEnv(t, true)
		env.ctxs[byz-1].Adversary = case3Adversary{}
		x, _ := tensor.FromSlice(2, 2, []float64{1, -2, 3, -4})
		y, _ := tensor.FromSlice(2, 2, []float64{5, 6, -7, 8})
		bx, by := shareFloats(t, env, x), shareFloats(t, env, y)
		triples, err := env.dealer.HadamardTriple(2, 2)
		if err != nil {
			t.Fatal(err)
		}
		outs := runAll(t, env, func(ctx *Ctx) (sharing.Bundle, error) {
			return SecMulBT(ctx, "ofb", bx[ctx.Index-1], by[ctx.Index-1], triples[ctx.Index-1])
		})
		want, _ := x.Hadamard(y)
		floatsClose(t, env.params, decideBundles(t, outs, []int{byz}), want, 8)
	}
}

func TestOptimisticHatOnlyViolatorStaysInvisible(t *testing.T) {
	// A violator that corrupts only its hat copies after committing is
	// a no-op in optimistic mode: honest partial openings agree, the
	// fast path accepts, and the corrupt hats are never opened. The
	// result is correct and nobody needs to be convicted.
	const byz = 2
	env := newOptimisticEnv(t, true)
	env.ctxs[byz-1].Adversary = case1Adversary{}
	x, _ := tensor.FromSlice(1, 3, []float64{2, -2, 4})
	bx := shareFloats(t, env, x)
	triples, err := env.dealer.HadamardTriple(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	outs := runAll(t, env, func(ctx *Ctx) (sharing.Bundle, error) {
		return SecMulBT(ctx, "ocv", bx[ctx.Index-1], bx[ctx.Index-1], triples[ctx.Index-1])
	})
	want, _ := x.Hadamard(x)
	floatsClose(t, env.params, decideBundles(t, outs, []int{byz}), want, 8)
}

// case1Adversary in the optimistic flow corrupts the *partial* opening
// (primary shares); reuse the protocol_test helper via an adapter that
// touches Primary rather than Hat.
type partialViolator struct{ honestAdversary }

func (partialViolator) CorruptPostCommit(_ int, _, _ string, bs []sharing.Bundle) []sharing.Bundle {
	for i := range bs {
		for j := range bs[i].Primary.Data {
			bs[i].Primary.Data[j] ^= 1 << 42
		}
	}
	return bs
}

func TestOptimisticFallbackOnPartialViolator(t *testing.T) {
	// A violator that corrupts its *partial* opening after committing
	// trips the digest check: the honest parties flag it, fall back to
	// the full rule, recover the product and convict the offender.
	const byz = 3
	env := newOptimisticEnv(t, true)
	env.ctxs[byz-1].Adversary = partialViolator{}
	x, _ := tensor.FromSlice(1, 2, []float64{3, -3})
	bx := shareFloats(t, env, x)
	triples, err := env.dealer.HadamardTriple(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	outs := runAll(t, env, func(ctx *Ctx) (sharing.Bundle, error) {
		return SecMulBT(ctx, "opv", bx[ctx.Index-1], bx[ctx.Index-1], triples[ctx.Index-1])
	})
	want, _ := x.Hadamard(x)
	floatsClose(t, env.params, decideBundles(t, outs, []int{byz}), want, 8)
	for i, ctx := range env.ctxs {
		if i+1 == byz {
			continue
		}
		if !ctx.Flagged[byz] {
			t.Fatalf("honest party %d did not convict P%d in the optimistic fallback", i+1, byz)
		}
	}
}
