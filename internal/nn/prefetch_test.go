package nn

import (
	mathrand "math/rand/v2"
	"testing"

	"github.com/trustddl/trustddl/internal/protocol"
	"github.com/trustddl/trustddl/internal/sharing"
	"github.com/trustddl/trustddl/internal/tensor"
)

// TestPrefetchEquivalence: the pipelined source every pass deals
// through and plain on-demand dealing (OwnerSource) give bit-identical
// reveals. Beaver triples cancel, and the owner deals a pass's plan in
// the same order either way, so only the round trips may differ. The
// session runs a cold pass, a warm pass at another batch size, a
// training step and the cold pass after it, so plan segments of one
// operation must not bleed into the next one's deals.
func TestPrefetchEquivalence(t *testing.T) {
	rng := mathrand.New(mathrand.NewPCG(9, 10))
	w1, w2 := tinyWeights(rng)
	xs := make([]Mat64, 4)
	for k, rows := range []int{1, 3, 2, 1} {
		xs[k] = tensor.MustNew[float64](rows, 6)
		for i := range xs[k].Data {
			xs[k].Data[i] = rng.NormFloat64()
		}
	}
	oneHot, err := OneHot([]int{2, 0}, 3)
	if err != nil {
		t.Fatal(err)
	}

	session := func(t *testing.T, pipelined bool) map[string]Mat {
		env := newSecureEnv(t)
		nets := maskNets(t, env, w1, w2)
		var bx [4][sharing.NumParties]sharing.Bundle
		for k, x := range xs {
			bx[k] = shareMat(t, env, x)
		}
		by := shareMat(t, env, oneHot)
		source := func(i int, plan []protocol.TripleRequest, err error) (TripleSource, func()) {
			if err != nil {
				t.Error(err)
			}
			if !pipelined {
				return OwnerSource{Ctx: env.ctxs[i]}, func() {}
			}
			ps := protocol.NewPrefetchSource(env.ctxs[i], plan)
			return ps, ps.Close
		}
		infer := func(session string, k int) Mat {
			return open(t, runSecure(t, env, func(i int) (sharing.Bundle, error) {
				plan, err := nets[i].LogitsPlan(session, xs[k].Rows, xs[k].Cols)
				ts, done := source(i, plan, err)
				defer done()
				return nets[i].Logits(env.ctxs[i], ts, session, bx[k][i])
			}))
		}
		reveals := map[string]Mat{
			"cold pass": infer(WithMaskEpoch("p/1", 1), 0),
			"warm pass": infer(WithMaskEpoch("p/2", 1), 1),
		}
		runSecure(t, env, func(i int) (struct{}, error) {
			plan, err := nets[i].TrainPlan("t/3", xs[2].Rows, xs[2].Cols)
			ts, done := source(i, plan, err)
			defer done()
			return struct{}{}, nets[i].TrainBatch(env.ctxs[i], ts, "t/3", bx[2][i], by[i], 0.1)
		})
		for l, name := range map[int]string{0: "trained W1", 2: "trained W2"} {
			var ws [sharing.NumParties]sharing.Bundle
			for i := range ws {
				ws[i] = nets[i].Layers[l].(*SecureDense).W
			}
			reveals[name] = open(t, ws)
		}
		reveals["cold pass after training"] = infer(WithMaskEpoch("p/4", 2), 3)
		return reveals
	}

	onDemand, pipelined := session(t, false), session(t, true)
	for name, want := range onDemand {
		if !pipelined[name].Equal(want) {
			t.Errorf("%s: the pipelined source revealed a different value than on-demand dealing", name)
		}
	}
}
