package sharing

import (
	"fmt"

	"github.com/trustddl/trustddl/internal/fixed"
	"github.com/trustddl/trustddl/internal/obs"
	"github.com/trustddl/trustddl/internal/tensor"
)

// Dealer implements the trusted share-creation role that the paper
// assigns to the data owner (inputs, labels) and the model owner
// (weights, Beaver triples, auxiliary positive matrices) — §III-A.
//
// For every secret the dealer creates three independent 2-additive
// share sets of the same underlying value and distributes them as the
// per-party bundles of Fig. 1. The same value must back all three sets:
// the BT protocols reconstruct one masked value per multiplication and
// reuse it across all sets' share computations, which is only correct
// when the sets agree.
type Dealer struct {
	src    Source
	params fixed.Params

	// saturations counts owner-side float encodings that had to clamp
	// to the ring bounds (NaN, ±Inf, overflow) — a rogue gradient or
	// loss is a trainability signal, not a silent corruption. Nil when
	// no registry is attached.
	saturations *obs.Counter
}

// NewDealer returns a dealer drawing share randomness from src and
// encoding reals with params.
func NewDealer(src Source, params fixed.Params) *Dealer {
	return &Dealer{src: src, params: params}
}

// SetObs attaches a metrics registry: ShareFloats then counts clamped
// encodings under fixed.saturations. A nil registry detaches.
func (d *Dealer) SetObs(reg *obs.Registry) {
	d.saturations = reg.Counter("fixed.saturations")
}

// Params exposes the dealer's fixed-point configuration.
func (d *Dealer) Params() fixed.Params { return d.params }

// Share splits a ring-domain secret into the three per-party bundles.
func (d *Dealer) Share(s Mat) ([NumParties]Bundle, error) {
	var bundles [NumParties]Bundle
	if s.IsZeroShape() {
		return bundles, fmt.Errorf("sharing: cannot share an empty matrix")
	}
	// Three independent 2-additive sharings of the same value.
	var sets [NumParties][2]Mat
	for j := 0; j < NumParties; j++ {
		shares, err := CreateShares(d.src, s, 2)
		if err != nil {
			return bundles, err
		}
		sets[j] = [2]Mat{shares[0], shares[1]}
	}
	return distribute(sets), nil
}

// distribute hands three 2-additive share sets out as the per-party
// bundles of Fig. 1, taking ownership of the sets' matrices. SetsOf's
// three indices are each a permutation of the parties, so every first
// share is one party's Primary and another's Hat, and every second
// share one party's Second: one clone per set gives each bundle storage
// no other bundle shares.
func distribute(sets [NumParties][2]Mat) [NumParties]Bundle {
	var bundles [NumParties]Bundle
	for i := 1; i <= NumParties; i++ {
		i1, i2, i3 := SetsOf(i)
		bundles[i-1] = Bundle{
			Primary: sets[i1-1][0],
			Hat:     sets[i2-1][0].Clone(),
			Second:  sets[i3-1][1],
		}
	}
	return bundles
}

// ShareFloats encodes a float64 matrix into the ring and shares it.
// Values the ring cannot represent (NaN, ±Inf, overflow) are clamped
// deterministically by the checked encoder and counted when a metrics
// registry is attached (SetObs).
func (d *Dealer) ShareFloats(m tensor.Matrix[float64]) ([NumParties]Bundle, error) {
	enc := tensor.Matrix[int64]{Rows: m.Rows, Cols: m.Cols, Data: make([]int64, m.Size())}
	for i, v := range m.Data {
		e, exact := d.params.FromFloatChecked(v)
		if !exact {
			d.saturations.Inc()
		}
		enc.Data[i] = e
	}
	return d.Share(enc)
}

// TripleKind distinguishes Beaver triples for element-wise
// multiplication (SecMul-BT) from matrix-product triples (SecMatMul-BT).
type TripleKind int

// Triple kinds.
const (
	// TripleHadamard backs element-wise multiplication: a, b, c share
	// one shape and c = a ⊙ b in the ring.
	TripleHadamard TripleKind = iota + 1
	// TripleMatMul backs matrix multiplication: a is m×n, b is n×p and
	// c = a × b in the ring.
	TripleMatMul
)

// TripleBundle is one party's slice of a Beaver triple: bundles for a,
// b and c under the three-set scheme.
type TripleBundle struct {
	A Bundle
	B Bundle
	C Bundle
	// Back is the backward pair of a matrix triple dealt with
	// BatchOrder.BackPair, empty otherwise.
	Back Pair
}

// Pair is one party's slice of a matrix triple's backward pair: bundles
// of a fresh A′ and of C′ = A′·bᵀ. With the transpose of its share of b
// as B it is a Beaver triple for a product by the transposed weights
// that b masks, whose f is the transpose of the f already opened.
type Pair struct {
	A Bundle
	C Bundle
}

// HadamardTriple deals a fresh element-wise Beaver triple of the given
// shape. a and b are uniform ring matrices (perfectly masking the
// multiplication operands) and c is their exact ring Hadamard product,
// carrying doubled fixed-point scale just like the product it masks.
func (d *Dealer) HadamardTriple(rows, cols int) ([NumParties]TripleBundle, error) {
	it, err := d.dealOne(BatchOrder{Kind: TripleHadamard, M: rows, N: cols})
	return it.Triple, err
}

// MatMulTriple deals a fresh matrix-product Beaver triple with a of
// shape m×n and b of shape n×p.
func (d *Dealer) MatMulTriple(m, n, p int) ([NumParties]TripleBundle, error) {
	it, err := d.dealOne(BatchOrder{Kind: TripleMatMul, M: m, N: n, P: p})
	return it.Triple, err
}

// CompTriple deals SecComp-BT's comparison item (BatchOrder.Aux): an
// element-wise triple whose b is a matrix t of random positive reals,
// so A, B = t and C = A⊙t. sign(t⊙(x−y)) = sign(x−y) because every
// element of t is positive (§II). Elements are drawn uniformly from
// [0.5, 8); reconstructing t⊙(x−y) therefore reveals the comparison
// magnitude only up to that factor, matching the leakage the paper
// accepts for its comparison protocol.
func (d *Dealer) CompTriple(rows, cols int) ([NumParties]TripleBundle, error) {
	it, err := d.dealOne(BatchOrder{Aux: true, M: rows, N: cols})
	return it.Triple, err
}

// AuxPositive deals a comparison item and returns only the shares of
// its positive mask t.
func (d *Dealer) AuxPositive(rows, cols int) ([NumParties]Bundle, error) {
	tr, err := d.CompTriple(rows, cols)
	var t [NumParties]Bundle
	for p := range t {
		t[p] = tr[p].B
	}
	return t, err
}

// dealOne deals a single order: every dealing routine is DealBatch.
func (d *Dealer) dealOne(o BatchOrder) (BatchItem, error) {
	items, err := d.DealBatch([]BatchOrder{o})
	if err != nil {
		return BatchItem{}, err
	}
	return items[0], nil
}

func (d *Dealer) uniform(rows, cols int) (Mat, error) {
	m, err := tensor.New[int64](rows, cols)
	if err != nil {
		return Mat{}, err
	}
	for i := range m.Data {
		m.Data[i] = ringElement(d.src)
	}
	return m, nil
}
