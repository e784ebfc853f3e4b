package protocol

import (
	"fmt"
	mathrand "math/rand/v2"
	"testing"

	"github.com/trustddl/trustddl/internal/sharing"
	"github.com/trustddl/trustddl/internal/tensor"
)

// randomizedAdversary picks one of the three misbehaviour cases.
func randomizedAdversary(rng *mathrand.Rand) Adversary {
	switch rng.IntN(3) {
	case 0:
		return case3Adversary{}
	case 1:
		return case1Adversary{}
	default:
		return case2Adversary{target: rng.IntN(3) + 1}
	}
}

// TestPropertyProtocolSuiteUnderRandomAdversaries drives the full
// SecMulBT / SecMatMulBT / SecCompBT suite through randomized
// (secret, adversary, party, mode) combinations — a randomized sweep
// over the whole fault model rather than hand-picked cases.
func TestPropertyProtocolSuiteUnderRandomAdversaries(t *testing.T) {
	rng := mathrand.New(mathrand.NewPCG(0xfeed, 0xbeef))
	const rounds = 12
	for round := 0; round < rounds; round++ {
		round := round
		byz := rng.IntN(4) // 0 = everyone honest
		commitment := rng.IntN(2) == 0 || byz != 0 && rng.IntN(2) == 0
		// A retired exchange-mode draw: discarded, so that every round
		// keeps the secrets, adversary and liar position it always had.
		_ = rng.IntN(2)
		var adv Adversary
		if byz != 0 {
			adv = randomizedAdversary(rng)
			commitment = true // attribution cases need the commit phase
		}
		name := fmt.Sprintf("round%d/byz%d/commit%v", round, byz, commitment)
		t.Run(name, func(t *testing.T) {
			env := newPartyEnv(t, commitment)
			if byz != 0 {
				env.ctxs[byz-1].Adversary = adv
			}

			rows, cols := 1+rng.IntN(3), 1+rng.IntN(4)
			x := tensor.MustNew[float64](rows, cols)
			y := tensor.MustNew[float64](rows, cols)
			for i := range x.Data {
				x.Data[i] = rng.NormFloat64() * 3
				y.Data[i] = rng.NormFloat64() * 3
			}
			bx, by := shareFloats(t, env, x), shareFloats(t, env, y)

			// Element-wise product.
			triples, err := env.dealer.HadamardTriple(rows, cols)
			if err != nil {
				t.Fatal(err)
			}
			outs := runAll(t, env, func(ctx *Ctx) (sharing.Bundle, error) {
				return SecMulBT(ctx, fmt.Sprintf("p%d/mul", round), bx[ctx.Index-1], by[ctx.Index-1], triples[ctx.Index-1])
			})
			var flagged []int
			if byz != 0 {
				flagged = []int{byz}
			}
			wantMul, _ := x.Hadamard(y)
			floatsClose(t, env.params, decideBundles(t, outs, flagged), wantMul, 8)

			// Comparison.
			cmpTriples, err := env.dealer.CompTriple(rows, cols)
			if err != nil {
				t.Fatal(err)
			}
			signs := runAll(t, env, func(ctx *Ctx) (Mat, error) {
				tr := cmpTriples[ctx.Index-1]
				return SecCompBT(ctx, fmt.Sprintf("p%d/cmp", round), bx[ctx.Index-1], by[ctx.Index-1], tr.B, tr)
			})
			for p := 0; p < sharing.NumParties; p++ {
				if p+1 == byz {
					continue
				}
				for i := range x.Data {
					want := int64(0)
					switch {
					case x.Data[i] > y.Data[i]:
						want = 1
					case x.Data[i] < y.Data[i]:
						want = -1
					}
					// Equal floats encode identically, so zero stays
					// exact; otherwise the sign must match.
					if signs[p].Data[i] != want {
						t.Fatalf("party %d element %d: sign %d for x=%v y=%v",
							p+1, i, signs[p].Data[i], x.Data[i], y.Data[i])
					}
				}
			}
		})
	}
}

// TestPropertyMatMulBTRandomShapes sweeps SecMatMulBT over random
// dimensions.
func TestPropertyMatMulBTRandomShapes(t *testing.T) {
	rng := mathrand.New(mathrand.NewPCG(0xabc, 0xdef))
	for round := 0; round < 6; round++ {
		m, n, p := 1+rng.IntN(4), 1+rng.IntN(4), 1+rng.IntN(4)
		t.Run(fmt.Sprintf("%dx%dx%d", m, n, p), func(t *testing.T) {
			env := newPartyEnv(t, true)
			x := tensor.MustNew[float64](m, n)
			y := tensor.MustNew[float64](n, p)
			for i := range x.Data {
				x.Data[i] = rng.NormFloat64()
			}
			for i := range y.Data {
				y.Data[i] = rng.NormFloat64()
			}
			bx, by := shareFloats(t, env, x), shareFloats(t, env, y)
			triples, err := env.dealer.MatMulTriple(m, n, p)
			if err != nil {
				t.Fatal(err)
			}
			outs := runAll(t, env, func(ctx *Ctx) (sharing.Bundle, error) {
				return SecMatMulBT(ctx, fmt.Sprintf("mm%d", round), bx[ctx.Index-1], by[ctx.Index-1], triples[ctx.Index-1])
			})
			want, _ := x.MatMul(y)
			floatsClose(t, env.params, decideBundles(t, outs, nil), want, 16)
		})
	}
}
