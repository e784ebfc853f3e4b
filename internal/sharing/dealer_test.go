package sharing

import (
	"fmt"
	"testing"

	"github.com/trustddl/trustddl/internal/tensor"
)

// decide reconstructs a bundle triple back to the underlying value.
func decide(t *testing.T, bundles [NumParties]Bundle) Mat {
	t.Helper()
	sets, err := CollectSets(bundles)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := ReconstructSix(sets)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := rec.DecideRows()
	if err != nil {
		t.Fatal(err)
	}
	return got
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

func TestShareFloatsRoundTrip(t *testing.T) {
	d := newTestDealer()
	m, _ := tensor.FromSlice(2, 2, []float64{1.5, -2.25, 0, 3.75})
	bundles, err := d.ShareFloats(m)
	if err != nil {
		t.Fatal(err)
	}
	got := decide(t, bundles)
	for i, want := range m.Data {
		if gotF := d.Params().ToFloat(got.Data[i]); gotF != want {
			t.Errorf("element %d: %v, want %v", i, gotF, want)
		}
	}
}

func TestHadamardTripleIdentity(t *testing.T) {
	d := newTestDealer()
	triples, err := d.HadamardTriple(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	var as, bs, cs [NumParties]Bundle
	for i := 0; i < NumParties; i++ {
		as[i], bs[i], cs[i] = triples[i].A, triples[i].B, triples[i].C
	}
	a, b, c := decide(t, as), decide(t, bs), decide(t, cs)
	want, err := a.Hadamard(b)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Equal(want) {
		t.Fatal("Hadamard triple does not satisfy c = a ⊙ b")
	}
}

func TestMatMulTripleIdentity(t *testing.T) {
	d := newTestDealer()
	triples, err := d.MatMulTriple(2, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	var as, bs, cs [NumParties]Bundle
	for i := 0; i < NumParties; i++ {
		as[i], bs[i], cs[i] = triples[i].A, triples[i].B, triples[i].C
	}
	a, b, c := decide(t, as), decide(t, bs), decide(t, cs)
	if a.Rows != 2 || a.Cols != 3 || b.Rows != 3 || b.Cols != 4 || c.Rows != 2 || c.Cols != 4 {
		t.Fatalf("triple shapes wrong: a %dx%d b %dx%d c %dx%d", a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols)
	}
	want, err := a.MatMul(b)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Equal(want) {
		t.Fatal("MatMul triple does not satisfy c = a × b")
	}
}

func TestAuxPositive(t *testing.T) {
	d := newTestDealer()
	bundles, err := d.AuxPositive(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	tMat := decide(t, bundles)
	lo, hi := d.Params().FromFloat(0.5), d.Params().FromFloat(8)
	for i, v := range tMat.Data {
		if v < lo || v >= hi {
			t.Fatalf("aux element %d = %d outside [%d, %d): sign masking broken", i, v, lo, hi)
		}
	}
}

func TestDealerRejectsEmptySecret(t *testing.T) {
	d := newTestDealer()
	if _, err := d.Share(Mat{}); err == nil {
		t.Fatal("Share of empty matrix: want error")
	}
}

func TestTripleMasksAreFreshPerCall(t *testing.T) {
	d := newTestDealer()
	t1, err := d.HadamardTriple(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := d.HadamardTriple(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if t1[0].A.Primary.Equal(t2[0].A.Primary) {
		t.Fatal("two triples share identical mask shares: triples must be single-use (§II)")
	}
}

// TestDealtBundlesOwnTheirStorage: no two matrices of a dealing share
// a backing array. Parties served in process (PreDealer) hold the very
// bundles the dealer built, so one party writing its shares in place
// must not reach another's — whether the sharing came from Share or
// from the masks DealBatch pre-draws for c.
func TestDealtBundlesOwnTheirStorage(t *testing.T) {
	d := batchDealer(31)
	shared, err := d.Share(Mat{Rows: 2, Cols: 3, Data: []int64{1, 2, 3, 4, 5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	items, err := d.DealBatch([]BatchOrder{{Kind: TripleMatMul, M: 2, N: 3, P: 2}, convOrder(1, 2)})
	if err != nil {
		t.Fatal(err)
	}
	sharings := [][NumParties]Bundle{shared}
	for _, it := range items {
		as, bs, cs := components(it.Triple)
		sharings = append(sharings, as, bs, cs)
	}
	ownStorage(t, "dealing", sharings...)
}

// ownStorage fails if any two matrices of the given sharings share a
// backing array.
func ownStorage(t *testing.T, what string, sharings ...[NumParties]Bundle) {
	t.Helper()
	seen := map[*int64]string{}
	for k, bundles := range sharings {
		for p, b := range bundles {
			for name, m := range map[string]Mat{"Primary": b.Primary, "Hat": b.Hat, "Second": b.Second} {
				where := fmt.Sprintf("sharing %d party %d %s", k, p+1, name)
				if other, dup := seen[&m.Data[0]]; dup {
					t.Fatalf("%s: %s and %s share storage", what, other, where)
				}
				seen[&m.Data[0]] = where
			}
		}
	}
}
