package protocol

import (
	"fmt"
	"testing"

	"github.com/trustddl/trustddl/internal/sharing"
	"github.com/trustddl/trustddl/internal/tensor"
)

// TestPrefetchSourceDeliversPlan pushes a three-request plan through
// the pipeline on all parties (depth 2 → two segments) and feeds the
// delivered randomness into a real SecMulBT, proving the batch-dealt
// shares are cross-party consistent and arrive in plan order.
func TestPrefetchSourceDeliversPlan(t *testing.T) {
	env := newOwnerEnv(t)
	plan := []TripleRequest{
		{Kind: ReqMatMul, Session: "pf/l0/t", M: 1, N: 2, P: 1},
		{Kind: ReqAux, Session: "pf/l1/aux", M: 2, N: 2},
		{Kind: ReqHadamard, Session: "pf/l1/t", M: 2, N: 2},
	}
	x, _ := tensor.FromSlice(2, 2, []float64{1, 2, 3, 4})
	y, _ := tensor.FromSlice(2, 2, []float64{5, 6, 7, 8})
	bx, by := shareFloats(t, env.partyEnv, x), shareFloats(t, env.partyEnv, y)
	outs := runAll(t, env.partyEnv, func(ctx *Ctx) (sharing.Bundle, error) {
		ps := NewPrefetchSource(ctx, plan, 2)
		if ps == nil {
			return sharing.Bundle{}, fmt.Errorf("prefetch source unexpectedly disabled")
		}
		defer func() {
			if err := ps.Close(); err != nil {
				t.Errorf("close: %v", err)
			}
		}()
		mt, err := ps.MatMulTriple("pf/l0/t", "", 1, 2, 1)
		if err != nil {
			return sharing.Bundle{}, err
		}
		if mt.C.Primary.Rows != 1 || mt.C.Primary.Cols != 1 {
			return sharing.Bundle{}, fmt.Errorf("matmul triple product shape %dx%d, want 1x1", mt.C.Primary.Rows, mt.C.Primary.Cols)
		}
		aux, err := ps.AuxPositive("pf/l1/aux", 2, 2)
		if err != nil {
			return sharing.Bundle{}, err
		}
		if aux.Primary.Size() != 4 {
			return sharing.Bundle{}, fmt.Errorf("aux shape wrong: %d elements", aux.Primary.Size())
		}
		triple, err := ps.HadamardTriple("pf/l1/t", 2, 2)
		if err != nil {
			return sharing.Bundle{}, err
		}
		return SecMulBT(ctx, "pf/l1/t", bx[ctx.Index-1], by[ctx.Index-1], triple)
	})
	want, _ := x.Hadamard(y)
	floatsClose(t, env.params, decideBundles(t, outs, nil), want, 8)
	if st := env.svc.Stats(); st.TriplesDealt != 3 {
		t.Fatalf("triples dealt = %d, want 3 (one per plan entry, shared across parties)", st.TriplesDealt)
	}
}

// TestPrefetchSourceFallsBackOffPlan checks that a request outside the
// plan transparently takes the on-demand dealing path.
func TestPrefetchSourceFallsBackOffPlan(t *testing.T) {
	env := newOwnerEnv(t)
	plan := []TripleRequest{{Kind: ReqHadamard, Session: "fb/t", M: 1, N: 2}}
	outs := runAll(t, env.partyEnv, func(ctx *Ctx) (sharing.TripleBundle, error) {
		ps := NewPrefetchSource(ctx, plan, 4)
		if ps == nil {
			return sharing.TripleBundle{}, fmt.Errorf("prefetch source unexpectedly disabled")
		}
		defer func() {
			if err := ps.Close(); err != nil {
				t.Errorf("close: %v", err)
			}
		}()
		if _, err := ps.HadamardTriple("fb/t", 1, 2); err != nil {
			return sharing.TripleBundle{}, err
		}
		// A shape the plan never promised: must fall back, not fail.
		return ps.HadamardTriple("fb/extra", 3, 3)
	})
	for p := 0; p < sharing.NumParties; p++ {
		if outs[p].A.Primary.Size() != 9 {
			t.Fatalf("party %d fallback triple has %d elements, want 9", p+1, outs[p].A.Primary.Size())
		}
	}
}

// TestPrefetchSourceCloseDrains abandons a plan after one of four
// segments; Close must drain the in-flight responses so the router
// stays clean for whatever the party does next.
func TestPrefetchSourceCloseDrains(t *testing.T) {
	env := newOwnerEnv(t)
	plan := []TripleRequest{
		{Kind: ReqHadamard, Session: "dr/a", M: 1, N: 1},
		{Kind: ReqHadamard, Session: "dr/b", M: 1, N: 1},
		{Kind: ReqHadamard, Session: "dr/c", M: 1, N: 1},
		{Kind: ReqHadamard, Session: "dr/d", M: 1, N: 1},
	}
	outs := runAll(t, env.partyEnv, func(ctx *Ctx) (sharing.TripleBundle, error) {
		ps := NewPrefetchSource(ctx, plan, 1)
		if ps == nil {
			return sharing.TripleBundle{}, fmt.Errorf("prefetch source unexpectedly disabled")
		}
		if _, err := ps.HadamardTriple("dr/a", 1, 1); err != nil {
			return sharing.TripleBundle{}, err
		}
		if err := ps.Close(); err != nil {
			return sharing.TripleBundle{}, err
		}
		if err := ps.Close(); err != nil { // idempotent
			return sharing.TripleBundle{}, err
		}
		// The drained router must serve fresh traffic with no stale
		// batch responses in the way.
		return RequestHadamardTriple(ctx, "dr/after", 1, 1)
	})
	for p := 0; p < sharing.NumParties; p++ {
		if outs[p].A.Primary.Size() != 1 {
			t.Fatalf("party %d post-drain request broken", p+1)
		}
	}
}

// TestPrefetchSourceDepthGating pins the constructor contract: nil for
// empty plans or non-positive resolved depth, and depth 0 deferring to
// the process-wide default.
func TestPrefetchSourceDepthGating(t *testing.T) {
	env := newOwnerEnv(t)
	ctx := env.ctxs[0]
	plan := []TripleRequest{{Kind: ReqHadamard, Session: "dg/t", M: 1, N: 1}}
	if ps := NewPrefetchSource(ctx, nil, 8); ps != nil {
		t.Fatal("empty plan must disable prefetching")
	}
	if ps := NewPrefetchSource(ctx, plan, 0); ps != nil {
		t.Fatal("depth 0 with process default 0 must disable prefetching")
	}
	prev := SetDefaultPrefetchDepth(2)
	defer SetDefaultPrefetchDepth(0)
	if prev != 2 {
		t.Fatalf("SetDefaultPrefetchDepth returned %d, want 2", prev)
	}
	ps := NewPrefetchSource(ctx, plan, 0)
	if ps == nil {
		t.Fatal("depth 0 must pick up the process default")
	}
	if _, err := ps.HadamardTriple("dg/t", 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}
	if got := SetDefaultPrefetchDepth(-5); got != 0 {
		t.Fatalf("negative default depth resolved to %d, want 0", got)
	}
}
