package protocol_test

import (
	"fmt"
	"math"
	mathrand "math/rand/v2"
	"sync"
	"testing"
	"time"

	"github.com/trustddl/trustddl/internal/byzantine"
	"github.com/trustddl/trustddl/internal/fixed"
	"github.com/trustddl/trustddl/internal/party"
	"github.com/trustddl/trustddl/internal/protocol"
	"github.com/trustddl/trustddl/internal/sharing"
	"github.com/trustddl/trustddl/internal/tensor"
	"github.com/trustddl/trustddl/internal/transport"
)

// convTestShape has two channels, padding and stride: 3×3 output
// positions over 6×6 images, patch size 18.
var convTestShape = tensor.ConvShape{InChannels: 2, Height: 6, Width: 6, Kernel: 3, Stride: 2, Pad: 1}

// byzMode makes the party at one position Byzantine: a share-level
// adversary, a transport interceptor on its sends, or both unset for
// the honest reference.
type byzMode struct {
	adv       func(pos int) protocol.Adversary
	intercept func(pos int) transport.SendInterceptor
}

// otherThan returns the first party index that is not pos.
func otherThan(pos int) int { return pos%sharing.NumParties + 1 }

// byzModes lists every internal/byzantine behaviour a single protocol
// call can meet. Timing-only ones (Delay, stalls, crash windows) show
// up here as what they amount to for one call: openings that miss the
// receive timer (DropOpenings) or a party that is silent (DropAll).
var byzModes = map[string]byzMode{
	"consistent-liar": {adv: func(int) protocol.Adversary { return byzantine.ConsistentLiar{} }},
	"commit-violator": {adv: func(int) protocol.Adversary { return byzantine.CommitViolator{} }},
	"equivocator": {adv: func(pos int) protocol.Adversary {
		return byzantine.Equivocator{Target: otherThan(pos)}
	}},
	"drop-openings":   {intercept: func(int) transport.SendInterceptor { return byzantine.DropOpenings() }},
	"drop-all":        {intercept: func(int) transport.SendInterceptor { return byzantine.DropAll() }},
	"corrupt-payload": {intercept: func(int) transport.SendInterceptor { return byzantine.CorruptPayload("/open") }},
	"spoof-open": {intercept: func(pos int) transport.SendInterceptor {
		return byzantine.SpoofFrom(otherThan(pos), "/open")
	}},
}

// convRun is what each party computed: the cold call's z and the f it
// opened, then the warm call's z.
type convRun struct {
	cold, warm sharing.Bundle
	f          protocol.Mat
	flagged    [sharing.NumParties + 1]bool
}

// runConvPair runs a cold SecConvWeightBT and a warm one against the
// same weight mask on a fresh three-party network, with the party at
// byz (0: none) behaving as mode says. Every run seeds its dealer
// alike, so the honest parties of two runs hold identical shares.
func runConvPair(t *testing.T, x1, x2, w tensor.Matrix[float64], byz int, mode byzMode) [sharing.NumParties]convRun {
	t.Helper()
	params := fixed.Default()
	net := transport.NewChanNetwork()
	t.Cleanup(func() { _ = net.Close() })
	var ctxs [sharing.NumParties]*protocol.Ctx
	for i := 1; i <= sharing.NumParties; i++ {
		ep, err := net.Endpoint(i)
		if err != nil {
			t.Fatal(err)
		}
		if i == byz && mode.intercept != nil {
			ep = transport.Intercepted(ep, mode.intercept(i))
		}
		if ctxs[i-1], err = protocol.NewCtx(party.NewRouter(ep, 150*time.Millisecond), i, params, true); err != nil {
			t.Fatal(err)
		}
		if i == byz && mode.adv != nil {
			ctxs[i-1].Adversary = mode.adv(i)
		}
	}

	dealer := sharing.NewDealer(sharing.NewSeededSource(91), params)
	share := func(m tensor.Matrix[float64]) [sharing.NumParties]sharing.Bundle {
		bs, err := dealer.ShareFloats(m)
		if err != nil {
			t.Fatal(err)
		}
		return bs
	}
	order := func(images int, against protocol.Mat) sharing.BatchOrder {
		r := protocol.ConvRequest("", "", convTestShape, images, w.Cols)
		return sharing.BatchOrder{Kind: sharing.TripleMatMul, M: r.M, N: r.N, P: r.P, Conv: r.Conv, Against: against}
	}
	bw, bx1, bx2 := share(w), share(x1), share(x2)
	cold, err := dealer.DealBatch([]sharing.BatchOrder{order(x1.Rows, protocol.Mat{})})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := dealer.DealBatch([]sharing.BatchOrder{order(x2.Rows, cold[0].Mask)})
	if err != nil {
		t.Fatal(err)
	}

	var out [sharing.NumParties]convRun
	var errs [sharing.NumParties]error
	var wg sync.WaitGroup
	for i := range ctxs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx := ctxs[i]
			z, f, err := protocol.SecConvWeightBT(ctx, "conv/cold", convTestShape, bx1[i], bw[i], cold[0].Triple[i], protocol.Mat{})
			if err != nil {
				errs[i] = err
				return
			}
			pair := warm[0].Triple[i]
			pair.B = cold[0].Triple[i].B
			zw, _, err := protocol.SecConvWeightBT(ctx, "conv/warm", convTestShape, bx2[i], bw[i], pair, f)
			out[i] = convRun{cold: z, warm: zw, f: f, flagged: ctx.Flagged}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil && i+1 != byz {
			t.Fatalf("honest party %d: %v", i+1, err)
		}
	}
	return out
}

// openRun reconstructs the parties' output bundles by the six-way
// decision.
func openRun(t *testing.T, runs [sharing.NumParties]convRun, pick func(convRun) sharing.Bundle) protocol.Mat {
	t.Helper()
	var bs [sharing.NumParties]sharing.Bundle
	for i := range runs {
		bs[i] = pick(runs[i])
	}
	sets, err := sharing.CollectSets(bs)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := sharing.ReconstructSix(sets)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := rec.DecideRows()
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestSecConvWeightBT: the conv sibling of SecMatMulWeightBT matches
// the plaintext convolution within SecMatMulBT's tolerance, cold (e and
// f opened) and then warm (only e, at image shape, against the cached
// f and B). Under every Byzantine mode at every party position the
// honest parties compute exactly what they compute in the all-honest
// run, and convict nobody but the Byzantine party.
func TestSecConvWeightBT(t *testing.T) {
	rng := mathrand.New(mathrand.NewPCG(3, 25))
	normal := func(rows, cols int) tensor.Matrix[float64] {
		m := tensor.MustNew[float64](rows, cols)
		for i := range m.Data {
			m.Data[i] = rng.NormFloat64()
		}
		return m
	}
	x1, x2 := normal(2, convTestShape.InSize()), normal(3, convTestShape.InSize())
	w := normal(convTestShape.PatchSize(), 2)

	params := fixed.Default()
	honest := runConvPair(t, x1, x2, w, 0, byzMode{})
	for _, c := range []struct {
		name string
		x    tensor.Matrix[float64]
		pick func(convRun) sharing.Bundle
	}{
		{"cold", x1, func(r convRun) sharing.Bundle { return r.cold }},
		{"warm", x2, func(r convRun) sharing.Bundle { return r.warm }},
	} {
		want, err := tensor.Conv2DBatch(convTestShape, c.x, w)
		if err != nil {
			t.Fatal(err)
		}
		got := openRun(t, honest, c.pick)
		if got.Rows != want.Rows || got.Cols != want.Cols {
			t.Fatalf("%s: z is %dx%d, want %dx%d", c.name, got.Rows, got.Cols, want.Rows, want.Cols)
		}
		for i, v := range want.Data {
			if d := math.Abs(params.ToFloat(got.Data[i]) - v); d > 16*params.Ulp() {
				t.Fatalf("%s: element %d off the plaintext conv by %v", c.name, i, d)
			}
		}
	}
	for i := range honest {
		if honest[i].flagged != ([sharing.NumParties + 1]bool{}) {
			t.Fatalf("all-honest run: party %d convicted %v", i+1, honest[i].flagged)
		}
	}

	for name, mode := range byzModes {
		for byz := 1; byz <= sharing.NumParties; byz++ {
			t.Run(fmt.Sprintf("%s/P%d", name, byz), func(t *testing.T) {
				runs := runConvPair(t, x1, x2, w, byz, mode)
				for i := range runs {
					if i+1 == byz {
						continue
					}
					r, h := runs[i], honest[i]
					if !r.f.Equal(h.f) || !r.cold.Primary.Equal(h.cold.Primary) || !r.cold.Hat.Equal(h.cold.Hat) || !r.cold.Second.Equal(h.cold.Second) {
						t.Fatalf("honest party %d: cold output differs from the all-honest run", i+1)
					}
					if !r.warm.Primary.Equal(h.warm.Primary) || !r.warm.Hat.Equal(h.warm.Hat) || !r.warm.Second.Equal(h.warm.Second) {
						t.Fatalf("honest party %d: warm output differs from the all-honest run", i+1)
					}
					for p := 1; p <= sharing.NumParties; p++ {
						if r.flagged[p] && p != byz {
							t.Fatalf("honest party %d convicted honest party %d", i+1, p)
						}
					}
				}
			})
		}
	}
}
