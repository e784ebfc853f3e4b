package protocol

import (
	"fmt"
	"slices"
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

// TestPrefetchSourceDeliversPlan pushes a five-request plan — two
// segments — through the pipeline on all parties and feeds the
// comparison item from the second segment into a real SecCompBT,
// proving the batch-dealt shares are cross-party consistent and arrive
// in plan order, one owner message per segment per party.
func TestPrefetchSourceDeliversPlan(t *testing.T) {
	env := newOwnerEnv(t)
	plan := []TripleRequest{
		{Kind: ReqMatMul, Session: "pf/l0/t", M: 1, N: 2, P: 1},
		{Kind: ReqAux, Session: "pf/l1/aux", M: 2, N: 2},
		{Kind: ReqAux, Session: "pf/l2/aux", M: 1, N: 1},
		{Kind: ReqAux, Session: "pf/l3/aux", M: 1, N: 1},
		{Kind: ReqAux, Session: "pf/l4/aux", M: 2, N: 2},
	}
	x, _ := tensor.FromSlice(2, 2, []float64{1, 2, 3, 4})
	y, _ := tensor.FromSlice(2, 2, []float64{0.5, 6, 3, -1})
	bx, by := shareFloats(t, env.partyEnv, x), shareFloats(t, env.partyEnv, y)
	signs := runAll(t, env.partyEnv, func(ctx *Ctx) (Mat, error) {
		ps := NewPrefetchSource(ctx, plan)
		defer ps.Close()
		mt, err := ps.MatMulTriple("pf/l0/t", "", 1, 2, 1, false)
		if err != nil {
			return Mat{}, err
		}
		if mt.C.Primary.Rows != 1 || mt.C.Primary.Cols != 1 {
			return Mat{}, fmt.Errorf("matmul triple product shape %dx%d, want 1x1", mt.C.Primary.Rows, mt.C.Primary.Cols)
		}
		for _, r := range plan[1:4] {
			ct, err := ps.CompTriple(r.Session, r.M, r.N)
			if err != nil {
				return Mat{}, err
			}
			if ct.B.Primary.Size() != r.M*r.N {
				return Mat{}, fmt.Errorf("%s: t has %d elements, want %d", r.Session, ct.B.Primary.Size(), r.M*r.N)
			}
		}
		triple, err := ps.CompTriple("pf/l4/aux", 2, 2)
		if err != nil {
			return Mat{}, err
		}
		return SecCompBT(ctx, "pf/l4", bx[ctx.Index-1], by[ctx.Index-1], triple.B, triple)
	})
	for p := range signs {
		if want := []int64{1, -1, 0, 1}; !slices.Equal(signs[p].Data, want) {
			t.Fatalf("party %d: signs %v, want %v", p+1, signs[p].Data, want)
		}
	}
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
	plan := []TripleRequest{{Kind: ReqAux, Session: "fb/aux", M: 1, N: 2}}
	outs := runAll(t, env.partyEnv, func(ctx *Ctx) (sharing.TripleBundle, error) {
		ps := NewPrefetchSource(ctx, plan)
		defer ps.Close()
		if _, err := ps.CompTriple("fb/aux", 1, 2); err != nil {
			return sharing.TripleBundle{}, err
		}
		// A shape the plan never promised: must fall back, not fail.
		return ps.CompTriple("fb/extra", 3, 3)
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
		plan = append(plan, TripleRequest{Kind: ReqAux, Session: fmt.Sprintf("dr/%d", k), M: 1, N: 1})
	}
	outs := runAll(t, env.partyEnv, func(ctx *Ctx) (sharing.TripleBundle, error) {
		ps := NewPrefetchSource(ctx, plan)
		if _, err := ps.CompTriple("dr/0", 1, 1); err != nil {
			return sharing.TripleBundle{}, err
		}
		ps.Close()
		ps.Close() // idempotent
		triple, err := RequestTriple(ctx, TripleRequest{Kind: ReqHadamard, Session: "dr/after", M: 1, N: 1})
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
// be planned) every request is dealt on demand, each alone in its own
// owner message.
func TestPrefetchSourceEmptyPlan(t *testing.T) {
	env := newOwnerEnv(t)
	runAll(t, env.partyEnv, func(ctx *Ctx) (sharing.TripleBundle, error) {
		ps := NewPrefetchSource(ctx, nil)
		defer ps.Close()
		return ps.CompTriple("ep/aux", 1, 1)
	})
	if got := ownerRequests(env); got != sharing.NumParties {
		t.Fatalf("owner received %d messages, want %d (one on-demand deal per party)", got, sharing.NumParties)
	}
}
