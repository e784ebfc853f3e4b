package sharing

import (
	"fmt"
	"reflect"
	"testing"
)

// openTriple reconstructs the plaintext components of a dealt triple;
// B is the zero matrix value when the triple carries none.
func openTriple(t *testing.T, tr [NumParties]TripleBundle) (a, b, c Mat) {
	t.Helper()
	var as, bs, cs [NumParties]Bundle
	for p := 0; p < NumParties; p++ {
		as[p], bs[p], cs[p] = tr[p].A, tr[p].B, tr[p].C
	}
	a, c = reconstruct(t, as), reconstruct(t, cs)
	if !bs[0].Primary.IsZeroShape() {
		b = reconstruct(t, bs)
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
			if out[p-1], err = v.MatMulTriple(session, mask, m, 3, 2); err != nil {
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

// TestRowPreDealerReusesNamedMask: a row-stable family requested under
// a retained mask name is dealt against that mask, and its row slices
// still stack share-for-share into the batch slice.
func TestRowPreDealerReusesNamedMask(t *testing.T) {
	pre, err := NewRowPreDealer(rowDealer(), 3)
	if err != nil {
		t.Fatal(err)
	}
	family := func(session string) (batch [NumParties]TripleBundle, rows [3][NumParties]TripleBundle) {
		t.Helper()
		for p := 1; p <= NumParties; p++ {
			bv, err := pre.BatchView(p)
			if err != nil {
				t.Fatal(err)
			}
			if batch[p-1], err = bv.MatMulTriple(session, "w", 3, 4, 2); err != nil {
				t.Fatal(err)
			}
			for r := range rows {
				rv, err := pre.RowView(p, r)
				if err != nil {
					t.Fatal(err)
				}
				if rows[r][p-1], err = rv.MatMulTriple(session, "w", 1, 4, 2); err != nil {
					t.Fatal(err)
				}
			}
		}
		return batch, rows
	}
	cold, _ := family("s1")
	_, b0, _ := openTriple(t, cold)
	if b0.IsZeroShape() {
		t.Fatal("first family under a name carries no B")
	}
	warm, rows := family("s2")
	a, b, c := openTriple(t, warm)
	if !b.IsZeroShape() {
		t.Fatal("family under a retained name carries B")
	}
	want, err := a.MatMul(b0)
	if err != nil {
		t.Fatal(err)
	}
	matEqual(t, c, want, "family against the named mask")
	for r := range rows {
		bundleRowEqual(t, warm[0].A, r, rows[r][0].A, "warm view A")
		bundleRowEqual(t, warm[0].C, r, rows[r][0].C, "warm view C")
	}
}
