package sharing

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/trustddl/trustddl/internal/fixed"
	"github.com/trustddl/trustddl/internal/tensor"
)

func batchDealer(seed uint64) *Dealer {
	return NewDealer(NewSeededSource(seed), fixed.Default())
}

// testConv is a two-channel geometry with padding and stride: 2×3
// output positions, patch size 18.
var testConv = tensor.ConvShape{InChannels: 2, Height: 4, Width: 5, Kernel: 3, Stride: 2, Pad: 1}

// convOrder is the conv order over images images and p filters.
func convOrder(images, p int) BatchOrder {
	return BatchOrder{Kind: TripleMatMul, M: images * testConv.OutHeight() * testConv.OutWidth(), N: testConv.PatchSize(), P: p, Conv: testConv}
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
		convOrder(2, 3),
		{Kind: TripleHadamard, M: 2, N: 2},
		// A training step's forward orders, with their backward pairs.
		{Kind: TripleMatMul, M: 2, N: 3, P: 4, BackPair: true},
		withBackPair(convOrder(2, 3)),
		{Kind: TripleHadamard, M: 1, N: 2},
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
			want.Triple, err = ind.CompTriple(o.M, o.N)
		case o.Kind == TripleHadamard:
			want.Triple, err = ind.HadamardTriple(o.M, o.N)
		case o.isConv() || o.BackPair:
			want, err = ind.dealOne(o)
			want.Mask = Mat{}
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

func withBackPair(o BatchOrder) BatchOrder {
	o.BackPair = true
	return o
}

// TestDealBatchBackPairFollowsTheTriple: an order's backward pair is
// drawn after everything its triple draws, so the triple is the one
// the same order without the pair deals, plain and conv alike; only a
// matrix triple has one.
func TestDealBatchBackPairFollowsTheTriple(t *testing.T) {
	for _, o := range []BatchOrder{{Kind: TripleMatMul, M: 3, N: 4, P: 2}, convOrder(2, 3)} {
		plain, err := batchDealer(5).DealBatch([]BatchOrder{o})
		if err != nil {
			t.Fatal(err)
		}
		paired, err := batchDealer(5).DealBatch([]BatchOrder{withBackPair(o)})
		if err != nil {
			t.Fatal(err)
		}
		for p := range paired[0].Triple {
			got := paired[0].Triple[p]
			if got.Back.A.Primary.IsZeroShape() {
				t.Fatalf("party %d was dealt no backward pair", p+1)
			}
			got.Back = Pair{}
			if !reflect.DeepEqual(got, plain[0].Triple[p]) {
				t.Fatalf("party %d: the pair changed the triple it rides on", p+1)
			}
		}
	}
	if _, err := batchDealer(5).DealBatch([]BatchOrder{{Aux: true, M: 2, N: 2, BackPair: true}}); err == nil {
		t.Fatal("backward pair dealt on a comparison item")
	}
}

// TestDealBatchTriplesAreConsistent reconstructs a, b, c of each dealt
// triple and checks c is the exact ring product, and for a backward
// pair that c′ = a′·bᵀ.
func TestDealBatchTriplesAreConsistent(t *testing.T) {
	orders := []BatchOrder{
		{Kind: TripleHadamard, M: 2, N: 2},
		{Kind: TripleMatMul, M: 2, N: 3, P: 2},
		{Kind: TripleMatMul, M: 4, N: 3, P: 2, BackPair: true},
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
		if !orders[i].BackPair {
			continue
		}
		var a2s, c2s [NumParties]Bundle
		for p := 0; p < NumParties; p++ {
			a2s[p], c2s[p] = it.Triple[p].Back.A, it.Triple[p].Back.C
		}
		if want, err = open(a2s).MatMul(b.Transpose()); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(open(c2s), want) {
			t.Fatalf("item %d: c′ is not the ring product of a′ and bᵀ", i)
		}
	}
}

// TestDealBatchConvTriple: a conv order deals a at image shape and
// c = Conv2DBatch(a, b) exactly, both fresh and against a retained
// mask; dims that are not the lowering of the geometry are rejected.
func TestDealBatchConvTriple(t *testing.T) {
	d := batchDealer(25)
	cold, err := d.DealBatch([]BatchOrder{convOrder(3, 4)})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := d.DealBatch([]BatchOrder{func() BatchOrder { o := convOrder(1, 4); o.Against = cold[0].Mask; return o }()})
	if err != nil {
		t.Fatal(err)
	}
	a0, b, c0 := openTriple(t, cold[0].Triple)
	matEqual(t, cold[0].Mask, b, "retained plaintext vs shared b")
	a1, b1, c1 := openTriple(t, warm[0].Triple)
	if !b1.IsZeroShape() || !warm[0].Mask.IsZeroShape() {
		t.Fatal("a conv pair dealt against a retained mask carries B")
	}
	for _, tc := range []struct {
		name   string
		images int
		a, c   Mat
	}{{"fresh", 3, a0, c0}, {"against", 1, a1, c1}} {
		if tc.a.Rows != tc.images || tc.a.Cols != testConv.InSize() {
			t.Fatalf("%s: a is %dx%d, want image shape %dx%d", tc.name, tc.a.Rows, tc.a.Cols, tc.images, testConv.InSize())
		}
		want, err := tensor.Conv2DBatch(testConv, tc.a, b)
		if err != nil {
			t.Fatal(err)
		}
		matEqual(t, tc.c, want, tc.name+": c = conv(a, b)")
	}

	for _, bad := range []BatchOrder{
		func() BatchOrder { o := convOrder(2, 4); o.M++; return o }(),
		func() BatchOrder { o := convOrder(2, 4); o.N--; return o }(),
		func() BatchOrder { o := convOrder(2, 4); o.Kind = TripleHadamard; return o }(),
		func() BatchOrder { o := convOrder(2, 4); o.Conv.Kernel = 9; return o }(),
	} {
		if _, err := d.DealBatch([]BatchOrder{bad}); err == nil {
			t.Fatalf("order %+v accepted", bad)
		}
	}
}

// TestDealBatchCompTriple: an Aux order deals the comparison item — B
// opens to a t in [0.5, 8), C to exactly A⊙t — whatever its Kind says,
// its bundles own their storage, and it cannot be dealt against a
// retained mask or carry conv geometry.
func TestDealBatchCompTriple(t *testing.T) {
	d := batchDealer(26)
	orders := []BatchOrder{{Aux: true, M: 3, N: 4}, {Aux: true, Kind: TripleMatMul, M: 2, N: 5}}
	items, err := d.DealBatch(orders)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := d.Params().FromFloat(0.5), d.Params().FromFloat(8)
	for i, it := range items {
		a, b, c := openTriple(t, it.Triple)
		if b.Rows != orders[i].M || b.Cols != orders[i].N {
			t.Fatalf("item %d: t is %dx%d, want %dx%d", i, b.Rows, b.Cols, orders[i].M, orders[i].N)
		}
		for k, v := range b.Data {
			if v < lo || v >= hi {
				t.Fatalf("item %d: t element %d = %d outside [%d, %d)", i, k, v, lo, hi)
			}
		}
		want, err := a.Hadamard(b)
		if err != nil {
			t.Fatal(err)
		}
		matEqual(t, c, want, fmt.Sprintf("item %d: c = a⊙t", i))
		if !it.Mask.IsZeroShape() {
			t.Fatalf("item %d reports a retained mask", i)
		}
		as, bs, cs := components(it.Triple)
		ownStorage(t, fmt.Sprintf("item %d", i), as, bs, cs)
	}

	mask := Mat{Rows: 3, Cols: 4, Data: make([]int64, 12)}
	for _, bad := range []BatchOrder{
		{Aux: true, M: 3, N: 4, Against: mask},
		{Aux: true, Kind: TripleMatMul, M: 6, N: testConv.PatchSize(), P: 2, Conv: testConv},
	} {
		if _, err := d.DealBatch([]BatchOrder{bad}); err == nil {
			t.Fatalf("comparison order %+v accepted", bad)
		}
	}
}

func TestDealBatchRejectsUnknownKind(t *testing.T) {
	if _, err := batchDealer(1).DealBatch([]BatchOrder{{Kind: TripleKind(9), M: 1, N: 1}}); err == nil {
		t.Fatal("unknown kind must error")
	}
}

// rowsOf returns rows [lo, hi) of every party's bundle.
func rowsOf(bs [NumParties]Bundle, lo, hi int) [NumParties]Bundle {
	rows := func(m Mat) Mat {
		return Mat{Rows: hi - lo, Cols: m.Cols, Data: m.Data[lo*m.Cols : hi*m.Cols]}
	}
	var out [NumParties]Bundle
	for p, b := range bs {
		out[p] = Bundle{Primary: rows(b.Primary), Hat: rows(b.Hat), Second: rows(b.Second)}
	}
	return out
}

// components splits per-party triple bundles into per-component ones.
func components(tr [NumParties]TripleBundle) (as, bs, cs [NumParties]Bundle) {
	for p := range tr {
		as[p], bs[p], cs[p] = tr[p].A, tr[p].B, tr[p].C
	}
	return as, bs, cs
}

// The three tests below pin what lets a row replay of a batched pass
// consume slices of the batch pass's randomness instead of a dealing of
// its own: sharing is linear, so the share-level row slices of one
// dealt item are themselves valid items of the row shape, and the
// item is, share for share, the stack of its row items.

// TestRowMatMulTriplesStackShareLevel: rows [lo, hi) of a matrix
// triple's A and C shares, with the whole B, are a triple: c_r = a_r·b.
func TestRowMatMulTriplesStackShareLevel(t *testing.T) {
	const m, n, p, unit = 6, 7, 3, 2
	tr, err := batchDealer(77).MatMulTriple(m, n, p)
	if err != nil {
		t.Fatal(err)
	}
	as, bs, cs := components(tr)
	b := decide(t, bs)
	for lo := 0; lo < m; lo += unit {
		a, c := decide(t, rowsOf(as, lo, lo+unit)), decide(t, rowsOf(cs, lo, lo+unit))
		want, err := a.MatMul(b)
		if err != nil {
			t.Fatal(err)
		}
		matEqual(t, c, want, fmt.Sprintf("rows [%d,%d): c = a·b", lo, lo+unit))
	}
}

// TestRowHadamardTriplesStackShareLevel: rows [lo, hi) of all three
// components of an element-wise triple are a triple: c_r = a_r ⊙ b_r.
func TestRowHadamardTriplesStackShareLevel(t *testing.T) {
	const m, cols = 4, 6
	tr, err := batchDealer(77).HadamardTriple(m, cols)
	if err != nil {
		t.Fatal(err)
	}
	as, bs, cs := components(tr)
	for r := 0; r < m; r++ {
		a, b, c := decide(t, rowsOf(as, r, r+1)), decide(t, rowsOf(bs, r, r+1)), decide(t, rowsOf(cs, r, r+1))
		want, err := a.Hadamard(b)
		if err != nil {
			t.Fatal(err)
		}
		matEqual(t, c, want, fmt.Sprintf("row %d: c = a⊙b", r))
	}
}

// TestRowAuxPositiveStackShareLevel: every row slice of an auxiliary
// matrix opens to values in the positive range [0.5, 8).
func TestRowAuxPositiveStackShareLevel(t *testing.T) {
	const m, cols = 3, 5
	d := batchDealer(77)
	aux, err := d.AuxPositive(m, cols)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := d.Params().FromFloat(0.5), d.Params().FromFloat(8)
	for r := 0; r < m; r++ {
		for i, v := range decide(t, rowsOf(aux, r, r+1)).Data {
			if v < lo || v >= hi {
				t.Fatalf("row %d element %d = %d outside [%d, %d)", r, i, v, lo, hi)
			}
		}
	}
}
