package sharing

import (
	"reflect"
	"testing"

	"github.com/trustddl/trustddl/internal/fixed"
)

func batchDealer(seed uint64) *Dealer {
	return NewDealer(NewSeededSource(seed), fixed.Default())
}

// TestDealBatchMatchesIndividualStream pins the contract DealBatch
// documents: a batch must consume the dealer's randomness exactly as
// the same sequence of individual deals would, producing bit-identical
// bundles. The prefetch pipeline's depth-N vs on-demand equivalence
// rests on this.
func TestDealBatchMatchesIndividualStream(t *testing.T) {
	orders := []BatchOrder{
		{Kind: TripleHadamard, M: 2, N: 3},
		{Kind: TripleMatMul, M: 2, N: 3, P: 4},
		{Aux: true, M: 3, N: 2},
		{Kind: TripleHadamard, M: 1, N: 1},
		{Kind: TripleMatMul, M: 4, N: 1, P: 2},
	}
	batched, err := batchDealer(99).DealBatch(orders)
	if err != nil {
		t.Fatal(err)
	}
	ind := batchDealer(99)
	for i, o := range orders {
		var want BatchItem
		switch {
		case o.Aux:
			want.IsAux = true
			want.Aux, err = ind.AuxPositive(o.M, o.N)
		case o.Kind == TripleHadamard:
			want.Triple, err = ind.HadamardTriple(o.M, o.N)
		default:
			want.Triple, err = ind.MatMulTriple(o.M, o.N, o.P)
		}
		if err != nil {
			t.Fatalf("individual deal %d: %v", i, err)
		}
		got := batched[i]
		got.Mask = Mat{} // dealer-side only; the individual deals do not report it
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("batch item %d differs from the individual deal of the same stream position", i)
		}
	}
}

// TestDealBatchTriplesAreConsistent reconstructs a, b, c of each dealt
// triple and checks c is the exact ring product.
func TestDealBatchTriplesAreConsistent(t *testing.T) {
	orders := []BatchOrder{
		{Kind: TripleHadamard, M: 2, N: 2},
		{Kind: TripleMatMul, M: 2, N: 3, P: 2},
	}
	items, err := batchDealer(7).DealBatch(orders)
	if err != nil {
		t.Fatal(err)
	}
	open := func(bundles [NumParties]Bundle) Mat {
		v, err := Reconstruct(bundles[0].Primary, bundles[1].Second)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	for i, it := range items {
		var as, bs, cs [NumParties]Bundle
		for p := 0; p < NumParties; p++ {
			as[p], bs[p], cs[p] = it.Triple[p].A, it.Triple[p].B, it.Triple[p].C
		}
		a, b, c := open(as), open(bs), open(cs)
		var want Mat
		if orders[i].Kind == TripleHadamard {
			want, err = a.Hadamard(b)
		} else {
			want, err = a.MatMul(b)
		}
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(c, want) {
			t.Fatalf("item %d: c is not the ring product of a and b", i)
		}
	}
}

func TestDealBatchRejectsUnknownKind(t *testing.T) {
	if _, err := batchDealer(1).DealBatch([]BatchOrder{{Kind: TripleKind(9), M: 1, N: 1}}); err == nil {
		t.Fatal("unknown kind must error")
	}
}
