package protocol

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/trustddl/trustddl/internal/fixed"
	"github.com/trustddl/trustddl/internal/sharing"
	"github.com/trustddl/trustddl/internal/tensor"
	"github.com/trustddl/trustddl/internal/transport"
)

// twinDealers returns two dealers of one seed: one deals in keyed form,
// the other deals the same stream as full bundles.
func twinDealers(seed uint64) (keyed, full *sharing.Dealer) {
	return sharing.NewDealer(sharing.NewSeededSource(seed), fixed.Default()),
		sharing.NewDealer(sharing.NewSeededSource(seed), fixed.Default())
}

// TestKeyedReplyMatchesDealBatch: for every order kind and every party,
// the owner's keyed reply — encoded, decoded against the request and
// expanded with the party's keys — is bit for bit the bundle DealBatch
// deals that party from the same stream; and so is a dealt value.
func TestKeyedReplyMatchesDealBatch(t *testing.T) {
	keyed, full := twinDealers(17)
	mask := tensor.MustNew[int64](3, 4)
	for i := range mask.Data {
		mask.Data[i] = int64(i) - 5
	}
	for i, r := range keyedFuzzReqs {
		o := keyedFuzzOrder(i, mask)
		deals, err := keyed.Deal([]sharing.BatchOrder{o})
		if err != nil {
			t.Fatal(err)
		}
		want, err := full.DealBatch([]sharing.BatchOrder{o})
		if err != nil {
			t.Fatal(err)
		}
		for p := 1; p <= sharing.NumParties; p++ {
			got, err := decodeTriple(transport.EncodeKeyedItem(deals[0].Party[p-1]), r, keyed.Keys(p))
			if err != nil {
				t.Fatalf("%s request, party %d: %v", r.Session, p, err)
			}
			if !reflect.DeepEqual(got, want[0].Triple[p-1]) {
				t.Fatalf("%s request, party %d: the keyed reply expands to another bundle than DealBatch's", r.Session, p)
			}
		}
	}
	v := tensor.MustNew[int64](3, 5)
	for i := range v.Data {
		v.Data[i] = int64(i) << 30
	}
	items, err := keyed.DealValue(v)
	if err != nil {
		t.Fatal(err)
	}
	want, err := full.Share(v)
	if err != nil {
		t.Fatal(err)
	}
	for p := 1; p <= sharing.NumParties; p++ {
		got, err := expandValue(transport.EncodeKeyedItem(items[p-1]), keyed.Keys(p))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want[p-1]) {
			t.Fatalf("party %d: the keyed value expands to another bundle than Share's", p)
		}
	}
}

// TestPreViewMatchesDealBatch: the offline path expands the same keyed
// items — a cold named MatMul, the warm one against its mask, a conv,
// a forward with its backward pair and a comparison item give every
// party what DealBatch deals it from the same stream.
func TestPreViewMatchesDealBatch(t *testing.T) {
	keyed, full := twinDealers(18)
	pre := sharing.NewPreDealer(keyed)
	conv := tensor.ConvShape{InChannels: 1, Height: 4, Width: 4, Kernel: 3, Stride: 1, Pad: 1}
	take := func(v *sharing.PreView, k int) (sharing.TripleBundle, error) {
		switch k {
		case 0:
			return v.MatMulTriple("pv/cold", "w", 2, 3, 4, false)
		case 1:
			return v.MatMulTriple("pv/warm", "w", 2, 3, 4, false)
		case 2:
			return v.ConvTriple("pv/conv", "", conv, 2, 2, false)
		case 3:
			return v.MatMulTriple("pv/bp", "", 2, 3, 4, true)
		default:
			return v.CompTriple("pv/aux", 2, 3)
		}
	}
	var mask Mat
	for k := 0; k < 5; k++ {
		o := []sharing.BatchOrder{
			{Kind: sharing.TripleMatMul, M: 2, N: 3, P: 4},
			{Kind: sharing.TripleMatMul, M: 2, N: 3, P: 4, Against: mask},
			ConvRequest("", "", conv, 2, 2).order(),
			{Kind: sharing.TripleMatMul, M: 2, N: 3, P: 4, BackPair: true},
			{Aux: true, M: 2, N: 3},
		}[k]
		want, err := full.DealBatch([]sharing.BatchOrder{o})
		if err != nil {
			t.Fatal(err)
		}
		if k == 0 {
			mask = want[0].Mask
		}
		for p := 1; p <= sharing.NumParties; p++ {
			v, err := pre.View(p)
			if err != nil {
				t.Fatal(err)
			}
			got, err := take(v, k)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want[0].Triple[p-1]) {
				t.Fatalf("request %d, party %d: the view expands to another bundle than DealBatch's", k, p)
			}
		}
	}
}

// TestRedealtRequestGetsNewDeal: a request whose entry every party
// collected and the owner retired is dealt again under a new deal
// number, with a different A — a repeated label would deal the same A
// twice, and two openings against it would reveal x₁ − x₂.
func TestRedealtRequestGetsNewDeal(t *testing.T) {
	env := newOwnerEnv(t)
	req := TripleRequest{Kind: ReqHadamard, Session: "again", M: 2, N: 3}
	type dealt struct {
		deal uint64
		a    sharing.Bundle
	}
	round := func(envSession string) [sharing.NumParties]dealt {
		return runAll(t, env.partyEnv, func(ctx *Ctx) (dealt, error) {
			if err := sendBatch(ctx, envSession, []TripleRequest{req}); err != nil {
				return dealt{}, err
			}
			msg, items, err := recvBatch(ctx, envSession, 1)
			if err != nil {
				return dealt{}, err
			}
			defer msg.Release()
			it, err := transport.DecodeKeyedItem(items[0], ctx.Index)
			if err != nil {
				return dealt{}, err
			}
			tr, err := decodeTriple(items[0], req, env.dealer.Keys(ctx.Index))
			return dealt{it.Deal, tr.A}, err
		})
	}
	first := round("again#1")
	waitRetired(t, env)
	second := round("again#2")
	var a1, a2 [sharing.NumParties]sharing.Bundle
	for p := range first {
		if first[p].deal != first[0].deal || second[p].deal != second[0].deal {
			t.Fatal("the parties of one entry were told different deal numbers")
		}
		a1[p], a2[p] = first[p].a, second[p].a
	}
	if first[0].deal == second[0].deal {
		t.Fatalf("the retired request was dealt again under deal %d", first[0].deal)
	}
	if decideBundles(t, a1, nil).Equal(decideBundles(t, a2, nil)) {
		t.Fatal("the request dealt again has the same A")
	}
}

// waitRetired waits until the owner holds no dealt entry: markServed
// retires an entry right after the owner sent its last reply.
func waitRetired(t *testing.T, env *ownerEnv) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		env.svc.mu.Lock()
		left := len(env.svc.triples)
		env.svc.mu.Unlock()
		if left == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d dealt entries never retired", left)
		}
	}
}

// TestPrefetchSourceResyncsAfterOffPlanRequest renames one planned
// request, as a layer whose session drifted from the plan does: that
// request alone leaves the plan, the cursor moves past the planned
// entry it replaced, every segment is still collected, and no dealt
// item is left at the owner once the pass ends.
func TestPrefetchSourceResyncsAfterOffPlanRequest(t *testing.T) {
	env := newOwnerEnv(t)
	var plan []TripleRequest
	for k := 0; k < 2*segmentSize; k++ {
		plan = append(plan, TripleRequest{Kind: ReqAux, Session: fmt.Sprintf("rs/l%d/aux", k), M: 1, N: 2})
	}
	asked := append([]TripleRequest(nil), plan...)
	asked[1].Session = "rs/l1/aux-moved"
	runAll(t, env.partyEnv, func(ctx *Ctx) (sharing.TripleBundle, error) {
		ps := NewPrefetchSource(ctx, plan)
		defer ps.Close()
		var last sharing.TripleBundle
		for _, r := range asked {
			tr, err := ps.CompTriple(r.Session, r.M, r.N)
			if err != nil {
				return sharing.TripleBundle{}, err
			}
			last = tr
		}
		return last, nil
	})
	if got, want := ownerRequests(env), int64(3*sharing.NumParties); got != want {
		t.Fatalf("owner received %d messages, want %d: two segments and one off-plan request per party", got, want)
	}
	if st := env.svc.Stats(); st.TriplesDealt != len(plan)+1 {
		t.Fatalf("triples dealt = %d, want %d", st.TriplesDealt, len(plan)+1)
	}
	waitRetired(t, env)
}
