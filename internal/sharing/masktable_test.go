package sharing

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/trustddl/trustddl/internal/tensor"
)

// openTriple reconstructs the plaintext components of a dealt triple;
// B is the zero matrix value when the triple carries none.
func openTriple(t *testing.T, tr [NumParties]TripleBundle) (a, b, c Mat) {
	t.Helper()
	var as, bs, cs [NumParties]Bundle
	for p := 0; p < NumParties; p++ {
		as[p], bs[p], cs[p] = tr[p].A, tr[p].B, tr[p].C
	}
	a, c = decide(t, as), decide(t, cs)
	if !bs[0].Primary.IsZeroShape() {
		b = decide(t, bs)
	}
	return a, b, c
}

// TestDealBatchAgainstRetainedMask: an order dealt against a retained
// mask yields a fresh input mask, no B, and c = a·b for the retained b —
// and a mask of the wrong shape or on the wrong kind is rejected.
func TestDealBatchAgainstRetainedMask(t *testing.T) {
	d := batchDealer(21)
	cold, err := d.DealBatch([]BatchOrder{{Kind: TripleMatMul, M: 2, N: 3, P: 4}})
	if err != nil {
		t.Fatal(err)
	}
	a0, b0, _ := openTriple(t, cold[0].Triple)
	matEqual(t, cold[0].Mask, b0, "retained plaintext vs shared b")

	warm, err := d.DealBatch([]BatchOrder{{Kind: TripleMatMul, M: 5, N: 3, P: 4, Against: cold[0].Mask}})
	if err != nil {
		t.Fatal(err)
	}
	if !warm[0].Mask.IsZeroShape() {
		t.Fatal("a pair dealt against a retained mask reports a new mask")
	}
	a1, b1, c1 := openTriple(t, warm[0].Triple)
	if !b1.IsZeroShape() {
		t.Fatal("a pair dealt against a retained mask carries B shares")
	}
	if a1.Rows != 5 || a0.Equal(a1) {
		t.Fatal("input mask is not fresh per deal")
	}
	want, err := a1.MatMul(b0)
	if err != nil {
		t.Fatal(err)
	}
	matEqual(t, c1, want, "c = a·b against the retained b")

	for _, bad := range []BatchOrder{
		{Kind: TripleMatMul, M: 2, N: 4, P: 3, Against: cold[0].Mask},
		{Kind: TripleHadamard, M: 3, N: 4, Against: cold[0].Mask},
	} {
		if _, err := d.DealBatch([]BatchOrder{bad}); err == nil {
			t.Fatalf("order %+v accepted", bad)
		}
	}
}

// TestPreDealerReusesNamedMask: the first deal under a mask name is a
// full triple, later ones under the same name are pairs against the
// same b for any batch size, another name or no name draws a new b.
func TestPreDealerReusesNamedMask(t *testing.T) {
	pre := NewPreDealer(batchDealer(22))
	deal := func(session, mask string, m int) [NumParties]TripleBundle {
		t.Helper()
		var out [NumParties]TripleBundle
		for p := 1; p <= NumParties; p++ {
			v, err := pre.View(p)
			if err != nil {
				t.Fatal(err)
			}
			if out[p-1], err = v.MatMulTriple(session, mask, m, 3, 2, false); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	_, b0, _ := openTriple(t, deal("s1", "w", 1))
	if b0.IsZeroShape() {
		t.Fatal("first deal under a name carries no B")
	}
	for i, m := range []int{1, 4} {
		a, b, c := openTriple(t, deal(fmt.Sprintf("s%d", i+2), "w", m))
		if !b.IsZeroShape() {
			t.Fatalf("deal %d under a retained name carries B", i+2)
		}
		want, err := a.MatMul(b0)
		if err != nil {
			t.Fatal(err)
		}
		matEqual(t, c, want, "pair against the named mask")
	}
	for _, mask := range []string{"w2", ""} {
		_, b, _ := openTriple(t, deal("s9"+mask, mask, 1))
		if b.IsZeroShape() || b.Equal(b0) {
			t.Fatalf("mask %q did not draw a fresh b", mask)
		}
	}
}

// TestPreDealerConvTriple: a conv triple from the offline pool has A at
// image shape and C = conv(A, b), and under a retained name the next
// one is a pair against the same b — the one mask serves the conv like
// any matrix product.
func TestPreDealerConvTriple(t *testing.T) {
	pre := NewPreDealer(batchDealer(23))
	deal := func(session string, images int) [NumParties]TripleBundle {
		t.Helper()
		var out [NumParties]TripleBundle
		for p := 1; p <= NumParties; p++ {
			v, err := pre.View(p)
			if err != nil {
				t.Fatal(err)
			}
			if out[p-1], err = v.ConvTriple(session, "conv", testConv, images, 2, false); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	_, b0, _ := openTriple(t, deal("s1", 2))
	for i, images := range []int{1, 3} {
		a, b, c := openTriple(t, deal(fmt.Sprintf("s%d", i+2), images))
		if !b.IsZeroShape() {
			t.Fatalf("conv deal %d under a retained name carries B", i+2)
		}
		if a.Rows != images || a.Cols != testConv.InSize() {
			t.Fatalf("A is %dx%d, want %dx%d", a.Rows, a.Cols, images, testConv.InSize())
		}
		want, err := tensor.Conv2DBatch(testConv, a, b0)
		if err != nil {
			t.Fatal(err)
		}
		matEqual(t, c, want, "conv pair against the named mask")
	}
}

func TestMaskTableBoundedOldestFirst(t *testing.T) {
	var tab MaskTable
	m := Mat{Rows: 1, Cols: 1, Data: []int64{7}}
	for i := 0; i <= MaxRetainedMasks; i++ {
		tab.Put(fmt.Sprint(i), m)
	}
	if !tab.Get("0", 1, 1).IsZeroShape() {
		t.Fatal("oldest name survived a full table")
	}
	if got := tab.Get(fmt.Sprint(MaxRetainedMasks), 1, 1); !reflect.DeepEqual(got, m) {
		t.Fatal("newest name missing")
	}
	if !tab.Get("1", 2, 1).IsZeroShape() {
		t.Fatal("a name retained with another shape was reported as known")
	}
	if len(tab.byName) != MaxRetainedMasks || len(tab.order) != MaxRetainedMasks {
		t.Fatalf("table holds %d/%d names, bound %d", len(tab.byName), len(tab.order), MaxRetainedMasks)
	}
}
