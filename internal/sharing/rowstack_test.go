package sharing

import (
	"testing"

	"github.com/trustddl/trustddl/internal/fixed"
)

func rowDealer() *Dealer {
	return NewDealer(NewSeededSource(77), fixed.Default())
}

// matEqual asserts bit-level equality of two share matrices.
func matEqual(t *testing.T, got, want Mat, what string) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d vs %dx%d", what, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("%s: element %d: %d vs %d", what, i, got.Data[i], want.Data[i])
		}
	}
}

// rowOf extracts row r of a share matrix.
func rowOf(m Mat, r int) Mat {
	out := Mat{Rows: 1, Cols: m.Cols, Data: make([]int64, m.Cols)}
	copy(out.Data, m.Data[r*m.Cols:(r+1)*m.Cols])
	return out
}

// bundleRowEqual asserts row r of the batch bundle is bit-identical to
// the single-row bundle, on every component.
func bundleRowEqual(t *testing.T, batch Bundle, r int, row Bundle, what string) {
	t.Helper()
	matEqual(t, rowOf(batch.Primary, r), row.Primary, what+" primary")
	matEqual(t, rowOf(batch.Hat, r), row.Hat, what+" hat")
	matEqual(t, rowOf(batch.Second, r), row.Second, what+" second")
}

// reconstruct opens a [NumParties]Bundle via the six-way decision.
func reconstruct(t *testing.T, bundles [NumParties]Bundle) Mat {
	t.Helper()
	sets, err := CollectSets(bundles)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := ReconstructSix(sets)
	if err != nil {
		t.Fatal(err)
	}
	v, _, err := rec.Decide()
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestRowMatMulTriplesStackShareLevel(t *testing.T) {
	d := rowDealer()
	const m, n, p = 5, 7, 3
	rt, err := d.RowMatMulTriples(m, n, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rt.Rows) != m {
		t.Fatalf("%d row triples, want %d", len(rt.Rows), m)
	}
	for i := 0; i < NumParties; i++ {
		if rt.Batch[i].A.Rows() != m || rt.Batch[i].A.Cols() != n {
			t.Fatalf("batch A shape %dx%d", rt.Batch[i].A.Rows(), rt.Batch[i].A.Cols())
		}
		for r := 0; r < m; r++ {
			bundleRowEqual(t, rt.Batch[i].A, r, rt.Rows[r][i].A, "A")
			bundleRowEqual(t, rt.Batch[i].C, r, rt.Rows[r][i].C, "C")
			// The weight-side mask is common, not stacked.
			matEqual(t, rt.Batch[i].B.Primary, rt.Rows[r][i].B.Primary, "B primary")
			matEqual(t, rt.Batch[i].B.Hat, rt.Rows[r][i].B.Hat, "B hat")
			matEqual(t, rt.Batch[i].B.Second, rt.Rows[r][i].B.Second, "B second")
		}
	}
	// The batch triple is a correct Beaver triple: C = A·B in the ring.
	var as, bs, cs [NumParties]Bundle
	for i := 0; i < NumParties; i++ {
		as[i], bs[i], cs[i] = rt.Batch[i].A, rt.Batch[i].B, rt.Batch[i].C
	}
	a, b, c := reconstruct(t, as), reconstruct(t, bs), reconstruct(t, cs)
	want, err := a.MatMul(b)
	if err != nil {
		t.Fatal(err)
	}
	matEqual(t, c, want, "C = A·B")
}

func TestRowHadamardTriplesStackShareLevel(t *testing.T) {
	d := rowDealer()
	const m, cols = 4, 6
	rt, err := d.RowHadamardTriples(m, cols)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < NumParties; i++ {
		for r := 0; r < m; r++ {
			bundleRowEqual(t, rt.Batch[i].A, r, rt.Rows[r][i].A, "A")
			bundleRowEqual(t, rt.Batch[i].B, r, rt.Rows[r][i].B, "B")
			bundleRowEqual(t, rt.Batch[i].C, r, rt.Rows[r][i].C, "C")
		}
	}
	var as, bs, cs [NumParties]Bundle
	for i := 0; i < NumParties; i++ {
		as[i], bs[i], cs[i] = rt.Batch[i].A, rt.Batch[i].B, rt.Batch[i].C
	}
	a, b, c := reconstruct(t, as), reconstruct(t, bs), reconstruct(t, cs)
	want, err := a.Hadamard(b)
	if err != nil {
		t.Fatal(err)
	}
	matEqual(t, c, want, "C = A⊙B")
}

func TestRowAuxPositiveStackShareLevel(t *testing.T) {
	d := rowDealer()
	const m, cols = 3, 5
	ra, err := d.RowAuxPositive(m, cols)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < NumParties; i++ {
		for r := 0; r < m; r++ {
			bundleRowEqual(t, ra.Batch[i], r, ra.Rows[r][i], "aux")
		}
	}
	var bs [NumParties]Bundle
	for i := 0; i < NumParties; i++ {
		bs[i] = ra.Batch[i]
	}
	v := reconstruct(t, bs)
	for i, x := range v.Data {
		if x <= 0 {
			t.Fatalf("aux element %d not positive: %d", i, x)
		}
	}
}

func TestRowPreDealerViews(t *testing.T) {
	p, err := NewRowPreDealer(rowDealer(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRowPreDealer(rowDealer(), 0); err == nil {
		t.Fatal("batch 0 accepted")
	}
	if _, err := p.RowView(1, 3); err == nil {
		t.Fatal("out-of-range row accepted")
	}
	if _, err := p.BatchView(4); err == nil {
		t.Fatal("out-of-range party accepted")
	}

	// The batch view and the row views of one session resolve to the
	// same family: row r of the batch slice equals the row slice.
	for party := 1; party <= NumParties; party++ {
		bv, err := p.BatchView(party)
		if err != nil {
			t.Fatal(err)
		}
		batch, err := bv.MatMulTriple("s1", "", 3, 4, 2)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 3; r++ {
			rv, err := p.RowView(party, r)
			if err != nil {
				t.Fatal(err)
			}
			row, err := rv.MatMulTriple("s1", "", 1, 4, 2)
			if err != nil {
				t.Fatal(err)
			}
			bundleRowEqual(t, batch.A, r, row.A, "view A")
			bundleRowEqual(t, batch.C, r, row.C, "view C")
			matEqual(t, batch.B.Primary, row.B.Primary, "view B")
		}
	}

	// A batch-view request whose leading dimension does not divide the
	// batch falls back to a flat dealing; repeated requests are stable.
	bv, _ := p.BatchView(1)
	f1, err := bv.MatMulTriple("dw", "", 4, 3, 2) // 4 does not divide over batch 3
	if err != nil {
		t.Fatal(err)
	}
	f1again, err := bv.MatMulTriple("dw", "", 4, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	matEqual(t, f1.A.Primary, f1again.A.Primary, "flat stability")
	if f1.A.Rows() != 4 {
		t.Fatalf("flat triple rows %d, want 4", f1.A.Rows())
	}

	// A divisible leading dimension decomposes at block granularity:
	// a 6-row batch request over batch 3 serves 2-row blocks, and the
	// row view's 2-row request resolves to block r.
	blockBatch, err := bv.MatMulTriple("conv", "", 6, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 3; r++ {
		rv, err := p.RowView(1, r)
		if err != nil {
			t.Fatal(err)
		}
		blk, err := rv.MatMulTriple("conv", "", 2, 4, 2)
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u < 2; u++ {
			matEqual(t, rowOf(blockBatch.A.Primary, 2*r+u), rowOf(blk.A.Primary, u), "block A")
			matEqual(t, rowOf(blockBatch.C.Primary, 2*r+u), rowOf(blk.C.Primary, u), "block C")
		}
	}
}

func TestStackBundlesRejectsMismatch(t *testing.T) {
	d := rowDealer()
	a, err := d.uniform(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.uniform(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	sa, err := d.Share(a)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := d.Share(b)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := StackBundles([]Bundle{sa[0], sb[0]}); err == nil {
		t.Fatal("column mismatch accepted")
	}
	if _, err := StackBundles(nil); err == nil {
		t.Fatal("empty stack accepted")
	}
}
