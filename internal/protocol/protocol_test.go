package protocol

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"github.com/trustddl/trustddl/internal/fixed"
	"github.com/trustddl/trustddl/internal/party"
	"github.com/trustddl/trustddl/internal/sharing"
	"github.com/trustddl/trustddl/internal/tensor"
	"github.com/trustddl/trustddl/internal/transport"
)

// honestAdversary embeds honest defaults so tests override one hook.
type honestAdversary struct{}

func (honestAdversary) CorruptPreCommit(_, _ string, bs []sharing.Bundle) []sharing.Bundle {
	return bs
}

func (honestAdversary) CorruptPostCommit(_ int, _, _ string, bs []sharing.Bundle) []sharing.Bundle {
	return bs
}

// case3Adversary corrupts shares before committing (consistent lie).
type case3Adversary struct{ honestAdversary }

func (case3Adversary) CorruptPreCommit(_, _ string, bs []sharing.Bundle) []sharing.Bundle {
	for i := range bs {
		for j := range bs[i].Primary.Data {
			bs[i].Primary.Data[j] += 1 << 33
		}
		for j := range bs[i].Second.Data {
			bs[i].Second.Data[j] -= 1 << 34
		}
	}
	return bs
}

// case1Adversary commits honestly but opens corrupted shares to all.
type case1Adversary struct{ honestAdversary }

func (case1Adversary) CorruptPostCommit(_ int, _, _ string, bs []sharing.Bundle) []sharing.Bundle {
	for i := range bs {
		for j := range bs[i].Hat.Data {
			bs[i].Hat.Data[j] ^= 1 << 40
		}
	}
	return bs
}

// case2Adversary equivocates: corrupts openings only toward one party.
type case2Adversary struct {
	honestAdversary

	target int
}

func (a case2Adversary) CorruptPostCommit(to int, _, _ string, bs []sharing.Bundle) []sharing.Bundle {
	if to != a.target {
		return bs
	}
	for i := range bs {
		for j := range bs[i].Primary.Data {
			bs[i].Primary.Data[j] += 1 << 41
		}
	}
	return bs
}

// partyEnv wires three computing-party contexts over one in-process
// network.
type partyEnv struct {
	net     *transport.ChanNetwork
	ctxs    [sharing.NumParties]*Ctx
	dealer  *sharing.Dealer
	params  fixed.Params
	timeout time.Duration
}

func newPartyEnv(t *testing.T, commitment bool) *partyEnv {
	t.Helper()
	env := &partyEnv{
		net:     transport.NewChanNetwork(),
		params:  fixed.Default(),
		timeout: 400 * time.Millisecond,
	}
	t.Cleanup(func() { _ = env.net.Close() })
	env.dealer = sharing.NewDealer(sharing.NewSeededSource(77), env.params)
	for i := 1; i <= sharing.NumParties; i++ {
		ep, err := env.net.Endpoint(i)
		if err != nil {
			t.Fatal(err)
		}
		ctx, err := NewCtx(party.NewRouter(ep, env.timeout), i, env.params, commitment)
		if err != nil {
			t.Fatal(err)
		}
		ctx.SetKeys(transport.ModelOwner, env.dealer.Keys(i))
		env.ctxs[i-1] = ctx
	}
	return env
}

// runAll executes fn concurrently on all three parties and returns the
// per-party results.
func runAll[T any](t *testing.T, env *partyEnv, fn func(ctx *Ctx) (T, error)) [sharing.NumParties]T {
	t.Helper()
	var (
		wg   sync.WaitGroup
		out  [sharing.NumParties]T
		errs [sharing.NumParties]error
	)
	for i := 0; i < sharing.NumParties; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i], errs[i] = fn(env.ctxs[i])
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil && env.ctxs[i].Adversary == nil {
			t.Fatalf("honest party %d: %v", i+1, err)
		}
	}
	return out
}

// decideBundles validates and opens a result bundle triple.
func decideBundles(t *testing.T, bundles [sharing.NumParties]sharing.Bundle, flagged []int) Mat {
	t.Helper()
	sets, err := sharing.CollectSets(bundles)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := sharing.ReconstructSix(sets)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range flagged {
		rec.FlagParty(p)
	}
	got, _, err := rec.DecideRows()
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func floatsClose(t *testing.T, params fixed.Params, got Mat, want tensor.Matrix[float64], tolUlps float64) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("shape %dx%d, want %dx%d", got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		g := params.ToFloat(got.Data[i])
		if math.Abs(g-want.Data[i]) > tolUlps*params.Ulp() {
			t.Fatalf("element %d: got %v, want %v (tol %v ulp)", i, g, want.Data[i], tolUlps)
		}
	}
}

func shareFloats(t *testing.T, env *partyEnv, m tensor.Matrix[float64]) [sharing.NumParties]sharing.Bundle {
	t.Helper()
	bs, err := env.dealer.ShareFloats(m)
	if err != nil {
		t.Fatal(err)
	}
	return bs
}

func TestSecMulBTHonest(t *testing.T) {
	env := newPartyEnv(t, true)
	x, _ := tensor.FromSlice(2, 3, []float64{1.5, -2.0, 0.25, 3.0, -0.5, 10.0})
	y, _ := tensor.FromSlice(2, 3, []float64{2.0, 4.0, -8.0, 0.5, -0.5, 0.1})
	bx, by := shareFloats(t, env, x), shareFloats(t, env, y)
	triples, err := env.dealer.HadamardTriple(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	outs := runAll(t, env, func(ctx *Ctx) (sharing.Bundle, error) {
		return SecMulBT(ctx, "mul1", bx[ctx.Index-1], by[ctx.Index-1], triples[ctx.Index-1])
	})
	want, _ := x.Hadamard(y)
	floatsClose(t, env.params, decideBundles(t, outs, nil), want, 8)
}

func TestSecMatMulBTHonest(t *testing.T) {
	env := newPartyEnv(t, true)
	x, _ := tensor.FromSlice(2, 3, []float64{1, 2, 3, -4, 5, -6})
	y, _ := tensor.FromSlice(3, 2, []float64{0.5, -1, 2, 0.25, -3, 1.5})
	bx, by := shareFloats(t, env, x), shareFloats(t, env, y)
	triples, err := env.dealer.MatMulTriple(2, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	outs := runAll(t, env, func(ctx *Ctx) (sharing.Bundle, error) {
		return SecMatMulBT(ctx, "mm1", bx[ctx.Index-1], by[ctx.Index-1], triples[ctx.Index-1])
	})
	want, _ := x.MatMul(y)
	// Matrix products accumulate 3 truncated terms: allow more slack.
	floatsClose(t, env.params, decideBundles(t, outs, nil), want, 16)
}

func TestSecMulBTNoCommitmentMode(t *testing.T) {
	env := newPartyEnv(t, false) // HbC configuration: redundancy only
	x, _ := tensor.FromSlice(1, 2, []float64{3, -3})
	y, _ := tensor.FromSlice(1, 2, []float64{2, 2})
	bx, by := shareFloats(t, env, x), shareFloats(t, env, y)
	triples, err := env.dealer.HadamardTriple(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	outs := runAll(t, env, func(ctx *Ctx) (sharing.Bundle, error) {
		return SecMulBT(ctx, "mulnc", bx[ctx.Index-1], by[ctx.Index-1], triples[ctx.Index-1])
	})
	want, _ := x.Hadamard(y)
	floatsClose(t, env.params, decideBundles(t, outs, nil), want, 8)
}

// runByzantineMul runs SecMulBT with the given adversary on byz and
// checks the honest parties' outputs reconstruct to x ⊙ y.
// byzantineMul runs SecMulBT on a fixed 2×2 input with party byz
// running adv, and returns the deployment, the product the honest
// parties' outputs reveal and the plaintext product.
func byzantineMul(t *testing.T, adv Adversary, byz int, commitment bool) (*partyEnv, Mat, tensor.Matrix[float64]) {
	t.Helper()
	env := newPartyEnv(t, commitment)
	env.ctxs[byz-1].Adversary = adv
	x, _ := tensor.FromSlice(2, 2, []float64{1, -2, 3, -4})
	y, _ := tensor.FromSlice(2, 2, []float64{5, 6, -7, 8})
	bx, by := shareFloats(t, env, x), shareFloats(t, env, y)
	triples, err := env.dealer.HadamardTriple(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	outs := runAll(t, env, func(ctx *Ctx) (sharing.Bundle, error) {
		return SecMulBT(ctx, "mulbyz", bx[ctx.Index-1], by[ctx.Index-1], triples[ctx.Index-1])
	})
	want, _ := x.Hadamard(y)
	// The Byzantine party's outputs are untrusted: flag them in the
	// final validation, exactly as a downstream consumer (owner) would.
	return env, decideBundles(t, outs, []int{byz}), want
}

func runByzantineMul(t *testing.T, adv Adversary, byz int, commitment bool) *partyEnv {
	t.Helper()
	env, got, want := byzantineMul(t, adv, byz, commitment)
	floatsClose(t, env.params, got, want, 8)
	return env
}

func TestSecMulBTCase3ConsistentCorruption(t *testing.T) {
	for byz := 1; byz <= sharing.NumParties; byz++ {
		env := runByzantineMul(t, case3Adversary{}, byz, true)
		// Case 3 passes the hash check: no commitment flags are raised,
		// the decision rule alone restores correctness.
		for i, ctx := range env.ctxs {
			if i+1 == byz {
				continue
			}
			if ctx.FlagCount() != 0 {
				t.Fatalf("byz=%d: honest party %d flagged someone for a hash-consistent lie", byz, i+1)
			}
		}
	}

	// ROADMAP item 1(a): a liar that shifts all three of its shares by
	// the same δ moves the four reconstructions they feed by δ together,
	// so two corrupted candidates agree at distance 0 exactly like the
	// honest pair, and the canonical preference picks the corrupted pair
	// whenever it comes first — at P1 and P2, not at P3.
	t.Run("known/same-shift", func(t *testing.T) {
		var off [sharing.NumParties]float64
		flags := 0
		for byz := 1; byz <= sharing.NumParties; byz++ {
			env, got, want := byzantineMul(t, sameShiftAdversary{}, byz, true)
			for i := range want.Data {
				off[byz-1] = max(off[byz-1], math.Abs(env.params.ToFloat(got.Data[i])-want.Data[i]))
			}
			for i, ctx := range env.ctxs {
				if i+1 != byz {
					flags += ctx.FlagCount()
				}
			}
		}
		if off[0] < 1 && off[1] < 1 {
			t.Fatalf("gap closed (off by %v): make the same-shift liar a Case 3 regression", off)
		}
		t.Skipf("known gap: a same-shift liar (δ = 2³³) moves SecMulBT's honest output by %.1f / %.1f / %.1f at P1 / P2 / P3, with %d flags raised",
			off[0], off[1], off[2], flags)
	})
}

// sameShiftAdversary adds the same δ to its primary, hat and second
// shares before committing: a hash-consistent lie that shifts every
// reconstruction its shares feed by one common δ.
type sameShiftAdversary struct{ honestAdversary }

func (sameShiftAdversary) CorruptPreCommit(_, _ string, bs []sharing.Bundle) []sharing.Bundle {
	for i := range bs {
		for _, m := range []Mat{bs[i].Primary, bs[i].Hat, bs[i].Second} {
			for j := range m.Data {
				m.Data[j] += 1 << 33
			}
		}
	}
	return bs
}

func TestSecMulBTCase1CommitViolation(t *testing.T) {
	const byz = 2
	env := runByzantineMul(t, case1Adversary{}, byz, true)
	for i, ctx := range env.ctxs {
		if i+1 == byz {
			continue
		}
		if !ctx.Flagged[byz] {
			t.Fatalf("honest party %d did not convict P%d of violating the commitment phase", i+1, byz)
		}
	}
}

// fieldViolator commits honestly, then flips one bit of one share
// matrix — Primary, Hat or Second — in the opening it sends to both
// peers.
type fieldViolator struct {
	honestAdversary

	field int
}

func (a fieldViolator) CorruptPostCommit(_ int, _, _ string, bs []sharing.Bundle) []sharing.Bundle {
	for i := range bs {
		m := [...]Mat{bs[i].Primary, bs[i].Hat, bs[i].Second}[a.field]
		for j := range m.Data {
			m.Data[j] ^= 1 << 42
		}
	}
	return bs
}

// TestSecMulBTCommitViolationAnyShareAnyParty: the commitment covers
// the whole opening, so a post-commit change to any one of the three
// share matrices, by any party, is convicted by both honest parties —
// and by nobody else — while they still recover the product.
func TestSecMulBTCommitViolationAnyShareAnyParty(t *testing.T) {
	for byz := 1; byz <= sharing.NumParties; byz++ {
		for field, name := range []string{"primary", "hat", "second"} {
			t.Run(fmt.Sprintf("P%d-%s", byz, name), func(t *testing.T) {
				env := runByzantineMul(t, fieldViolator{field: field}, byz, true)
				for i, ctx := range env.ctxs {
					if i+1 == byz {
						continue
					}
					if !ctx.Flagged[byz] || ctx.FlagCount() != 1 {
						t.Fatalf("honest party %d convicted %v, want only P%d", i+1, ctx.Flagged[1:], byz)
					}
				}
			})
		}
	}
}

func TestSecMulBTCase2Equivocation(t *testing.T) {
	// P2 lies only to P3: P3 convicts P2, P1 convicts nobody, yet both
	// honest parties recover the correct product (the paper's Case 2:
	// no consensus on the offender is needed for correctness).
	const byz, target = 2, 3
	env := runByzantineMul(t, case2Adversary{target: target}, byz, true)
	if got := env.ctxs[0].FlagCount(); got != 0 {
		t.Fatalf("P1 convicted %d parties, want 0", got)
	}
	if !env.ctxs[target-1].Flagged[byz] {
		t.Fatalf("P%d did not convict the equivocating P%d", target, byz)
	}
}

func TestSecMulBTCase3WithoutCommitment(t *testing.T) {
	// Redundancy alone (HbC mode) still recovers from corrupted shares;
	// it only loses the ability to *attribute* them.
	runByzantineMul(t, case3Adversary{}, 1, false)
}

func TestSecMulBTDroppedOpenMessages(t *testing.T) {
	// A Byzantine party that silently drops its opening to everyone is
	// detected via the receive timer and excluded.
	const byz = 3
	// Drops happen in transit, so model them with an intercepted
	// endpoint for P3 rather than a protocol-level adversary.
	net := transport.NewChanNetwork()
	defer net.Close()
	params := fixed.Default()
	dealer := sharing.NewDealer(sharing.NewSeededSource(5), params)
	var ctxs [sharing.NumParties]*Ctx
	for i := 1; i <= sharing.NumParties; i++ {
		ep, err := net.Endpoint(i)
		if err != nil {
			t.Fatal(err)
		}
		if i == byz {
			ep = transport.Intercepted(ep, func(msg transport.Message) *transport.Message {
				if msg.Step == "ef/open" {
					return nil
				}
				return &msg
			})
		}
		ctx, err := NewCtx(party.NewRouter(ep, 300*time.Millisecond), i, params, true)
		if err != nil {
			t.Fatal(err)
		}
		ctxs[i-1] = ctx
	}
	x, _ := tensor.FromSlice(1, 2, []float64{2, -2})
	y, _ := tensor.FromSlice(1, 2, []float64{3, 3})
	bx, err := dealer.ShareFloats(x)
	if err != nil {
		t.Fatal(err)
	}
	by, err := dealer.ShareFloats(y)
	if err != nil {
		t.Fatal(err)
	}
	triples, err := dealer.HadamardTriple(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var outs [sharing.NumParties]sharing.Bundle
	var errs [sharing.NumParties]error
	for i := 0; i < sharing.NumParties; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i], errs[i] = SecMulBT(ctxs[i], "drop", bx[i], by[i], triples[i])
		}(i)
	}
	wg.Wait()
	for i := 0; i < sharing.NumParties; i++ {
		if i+1 != byz && errs[i] != nil {
			t.Fatalf("honest party %d: %v", i+1, errs[i])
		}
	}
	for i := 0; i < sharing.NumParties; i++ {
		if i+1 == byz {
			continue
		}
		if !ctxs[i].Flagged[byz] {
			t.Fatalf("party %d did not flag the silent P%d", i+1, byz)
		}
	}
	want, _ := x.Hadamard(y)
	got := decideBundles(t, outs, []int{byz})
	floatsClose(t, params, got, want, 8)
}

// TestSecCompBTHonest also pins that SecCompBT takes its t argument as
// the triple's right operand and does not reject a triple whose own B
// differs from it: with C = A⊙t the signs are right whatever B holds.
func TestSecCompBTHonest(t *testing.T) {
	env := newPartyEnv(t, true)
	x, _ := tensor.FromSlice(1, 4, []float64{1.0, -3.5, 2.0, 0.0})
	y, _ := tensor.FromSlice(1, 4, []float64{0.5, 1.0, 2.0, -4.0})
	bx, by := shareFloats(t, env, x), shareFloats(t, env, y)
	triples, err := env.dealer.CompTriple(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	other, err := env.dealer.HadamardTriple(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	signs := runAll(t, env, func(ctx *Ctx) (Mat, error) {
		tr := triples[ctx.Index-1]
		mask := tr.B
		tr.B = other[ctx.Index-1].B
		return SecCompBT(ctx, "cmp1", bx[ctx.Index-1], by[ctx.Index-1], mask, tr)
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

func TestSecCompBTWithByzantineParty(t *testing.T) {
	env := newPartyEnv(t, true)
	const byz = 1
	env.ctxs[byz-1].Adversary = case3Adversary{}
	x, _ := tensor.FromSlice(1, 3, []float64{5, -5, 1})
	y, _ := tensor.FromSlice(1, 3, []float64{1, 1, 1})
	bx, by := shareFloats(t, env, x), shareFloats(t, env, y)
	triples, err := env.dealer.CompTriple(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	signs := runAll(t, env, func(ctx *Ctx) (Mat, error) {
		tr := triples[ctx.Index-1]
		return SecCompBT(ctx, "cmpbyz", bx[ctx.Index-1], by[ctx.Index-1], tr.B, tr)
	})
	want := []int64{1, -1, 0}
	for p := 0; p < sharing.NumParties; p++ {
		if p+1 == byz {
			continue
		}
		for i, w := range want {
			if signs[p].Data[i] != w {
				t.Fatalf("honest party %d element %d: sign %d, want %d", p+1, i, signs[p].Data[i], w)
			}
		}
	}
}

// TestSecCompBTRejectsItemWithoutMask: a comparison reply in the form
// of a pair dealt against a retained mask, without t, is refused by
// the decoder; and a triple without B reaching SecCompBT is refused at
// every party before any exchange, instead of panicking on the
// missing t.
func TestSecCompBTRejectsItemWithoutMask(t *testing.T) {
	env := newPartyEnv(t, true)
	x, _ := tensor.FromSlice(1, 2, []float64{1, -1})
	bx := shareFloats(t, env, x)
	items, err := env.dealer.CompTriple(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	deals, err := env.dealer.Deal([]sharing.BatchOrder{{Aux: true, M: 1, N: 2}})
	if err != nil {
		t.Fatal(err)
	}
	req := TripleRequest{Kind: ReqAux, Session: "nomask", M: 1, N: 2}
	for i, ctx := range env.ctxs {
		// The decoder refuses a comparison item without its t ...
		it := deals[0].Party[i]
		it.Layout = it.Without(sharing.CompT)
		it.Second[sharing.CompT] = Mat{}
		if _, err := decodeTriple(transport.EncodeKeyedItem(it), req, env.dealer.Keys(i+1)); err == nil {
			t.Fatal("a comparison item without its t decoded")
		}
		// ... and SecCompBT refuses such a triple too.
		tr := items[i]
		tr.B = sharing.Bundle{}
		if _, err := SecCompBT(ctx, "nomask", bx[i], bx[i], tr.B, tr); err == nil {
			t.Fatalf("party %d: comparison without its positive mask accepted", i+1)
		}
	}
	if got := env.net.Stats().Messages; got != 0 {
		t.Fatalf("%d messages sent for a refused comparison", got)
	}
}

func TestSecMulBTRejectsMalformedBundles(t *testing.T) {
	env := newPartyEnv(t, true)
	_, err := SecMulBT(env.ctxs[0], "bad", sharing.Bundle{}, sharing.Bundle{}, sharing.TripleBundle{})
	if err == nil {
		t.Fatal("empty bundles accepted")
	}
}

func TestNewCtxValidatesIndex(t *testing.T) {
	if _, err := NewCtx(nil, 0, fixed.Default(), true); err == nil {
		t.Fatal("index 0 accepted")
	}
	if _, err := NewCtx(nil, 4, fixed.Default(), true); err == nil {
		t.Fatal("index 4 accepted")
	}
}

func TestPeers(t *testing.T) {
	env := newPartyEnv(t, true)
	got := env.ctxs[1].Peers()
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("P2 peers = %v, want [1 3]", got)
	}
}
