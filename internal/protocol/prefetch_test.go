package protocol

import (
	"fmt"
	"testing"
	"time"

	"github.com/trustddl/trustddl/internal/sharing"
	"github.com/trustddl/trustddl/internal/tensor"
	"github.com/trustddl/trustddl/internal/transport"
)

// ownerRequests counts the messages the model owner has received.
func ownerRequests(env *ownerEnv) int64 {
	return env.net.Stats().PerActor[transport.ModelOwner].RecvMessages
}

// TestPrefetchSourceDeliversPlan pushes a six-request plan — two
// segments — through the pipeline on all parties and feeds randomness
// from the second segment into a real SecMulBT, proving the batch-dealt
// shares are cross-party consistent and arrive in plan order, one owner
// message per segment per party.
func TestPrefetchSourceDeliversPlan(t *testing.T) {
	env := newOwnerEnv(t)
	plan := []TripleRequest{
		{Kind: ReqMatMul, Session: "pf/l0/t", M: 1, N: 2, P: 1},
		{Kind: ReqAux, Session: "pf/l1/aux", M: 2, N: 2},
		{Kind: ReqHadamard, Session: "pf/l1/t", M: 2, N: 2},
		{Kind: ReqHadamard, Session: "pf/l2/t", M: 1, N: 1},
		{Kind: ReqHadamard, Session: "pf/l3/t", M: 1, N: 1},
		{Kind: ReqHadamard, Session: "pf/l4/t", M: 2, N: 2},
	}
	x, _ := tensor.FromSlice(2, 2, []float64{1, 2, 3, 4})
	y, _ := tensor.FromSlice(2, 2, []float64{5, 6, 7, 8})
	bx, by := shareFloats(t, env.partyEnv, x), shareFloats(t, env.partyEnv, y)
	outs := runAll(t, env.partyEnv, func(ctx *Ctx) (sharing.Bundle, error) {
		ps := NewPrefetchSource(ctx, plan)
		defer ps.Close()
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
		for _, r := range plan[2:5] {
			if _, err := ps.HadamardTriple(r.Session, r.M, r.N); err != nil {
				return sharing.Bundle{}, err
			}
		}
		triple, err := ps.HadamardTriple("pf/l4/t", 2, 2)
		if err != nil {
			return sharing.Bundle{}, err
		}
		return SecMulBT(ctx, "pf/l4/t", bx[ctx.Index-1], by[ctx.Index-1], triple)
	})
	want, _ := x.Hadamard(y)
	floatsClose(t, env.params, decideBundles(t, outs, nil), want, 8)
	if st := env.svc.Stats(); st.TriplesDealt != len(plan) {
		t.Fatalf("triples dealt = %d, want %d (one per plan entry, shared across parties)", st.TriplesDealt, len(plan))
	}
	if got := ownerRequests(env); got != 2*sharing.NumParties {
		t.Fatalf("owner received %d messages, want %d (two segments per party)", got, 2*sharing.NumParties)
	}
}

// TestPrefetchSourceFallsBackOffPlan checks that a request outside the
// plan transparently takes the on-demand dealing path.
func TestPrefetchSourceFallsBackOffPlan(t *testing.T) {
	env := newOwnerEnv(t)
	plan := []TripleRequest{{Kind: ReqHadamard, Session: "fb/t", M: 1, N: 2}}
	outs := runAll(t, env.partyEnv, func(ctx *Ctx) (sharing.TripleBundle, error) {
		ps := NewPrefetchSource(ctx, plan)
		defer ps.Close()
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

// TestPrefetchSourceCloseDrains abandons a two-segment plan after its
// first request, with the second segment in flight. Close must not
// block on it, and the router must drop it when it arrives: the
// party's next request is served, and no batch response is left in the
// buffer to confuse a later pass.
func TestPrefetchSourceCloseDrains(t *testing.T) {
	env := newOwnerEnv(t)
	var plan []TripleRequest
	for k := 0; k < segmentSize+1; k++ {
		plan = append(plan, TripleRequest{Kind: ReqHadamard, Session: fmt.Sprintf("dr/%d", k), M: 1, N: 1})
	}
	outs := runAll(t, env.partyEnv, func(ctx *Ctx) (sharing.TripleBundle, error) {
		ps := NewPrefetchSource(ctx, plan)
		if _, err := ps.HadamardTriple("dr/0", 1, 1); err != nil {
			return sharing.TripleBundle{}, err
		}
		ps.Close()
		ps.Close() // idempotent
		triple, err := RequestHadamardTriple(ctx, "dr/after", 1, 1)
		for err == nil {
			msg, nerr := ctx.Router.Next(10 * time.Millisecond)
			if nerr != nil {
				break // nothing left, buffered or in flight
			}
			err = fmt.Errorf("an abandoned segment's %q reached the party", msg.Step)
		}
		return triple, err
	})
	for p := 0; p < sharing.NumParties; p++ {
		if outs[p].A.Primary.Size() != 1 {
			t.Fatalf("party %d post-drain request broken", p+1)
		}
	}
}

// TestPrefetchSourceEmptyPlan: with no plan (the layer walk could not
// be planned) every request is dealt on demand, and nothing is batched.
func TestPrefetchSourceEmptyPlan(t *testing.T) {
	env := newOwnerEnv(t)
	runAll(t, env.partyEnv, func(ctx *Ctx) (sharing.TripleBundle, error) {
		ps := NewPrefetchSource(ctx, nil)
		defer ps.Close()
		return ps.HadamardTriple("ep/t", 1, 1)
	})
	if got := ownerRequests(env); got != sharing.NumParties {
		t.Fatalf("owner received %d messages, want %d (one on-demand deal per party)", got, sharing.NumParties)
	}
}
