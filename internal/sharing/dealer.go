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
//
// Dealing is seeded (keyed.go): the shares come from AES-CTR streams
// under keys drawn once from the Source, labelled by the dealer's deal
// counter, and each party is sent only what its keys cannot produce.
// A Dealer is not safe for concurrent use.
type Dealer struct {
	params fixed.Params
	domain Domain
	// sets[j-1] is the key of set j, shared with its two first-share
	// holders; private[p-1] is shared with party p alone; own is the
	// dealer's unshared key.
	sets, private [NumParties]Key
	own           Key
	// deals is the next deal number.
	deals uint64

	// saturations counts owner-side float encodings that had to clamp
	// to the ring bounds (NaN, ±Inf, overflow) — a rogue gradient or
	// loss is a trainability signal, not a silent corruption. Nil when
	// no registry is attached.
	saturations *obs.Counter
}

// NewDealer returns a dealer whose keys are drawn from src and which
// encodes reals with params. A seeded src makes the whole deal stream
// reproducible.
func NewDealer(src Source, params fixed.Params) *Dealer {
	d := &Dealer{params: params, domain: DomainDeal}
	for j := range d.sets {
		d.sets[j] = drawKey(src)
	}
	for p := range d.private {
		d.private[p] = drawKey(src)
	}
	d.own = drawKey(src)
	return d
}

// Resharer returns a dealer with d's keys, dealing in the reshare
// domain under its own deal counter: the owner's reshares of delegated
// function results (softmax, §III-C) then leave the deal stream a pure
// function of the deal order, and parties expand them with the keys
// they already hold (PartyKeys.Reshare).
func (d *Dealer) Resharer() *Dealer {
	return &Dealer{params: d.params, domain: DomainReshare, sets: d.sets, private: d.private, own: d.own, saturations: d.saturations}
}

// Keys returns what party p holds of the dealer's keys.
func (d *Dealer) Keys(p int) PartyKeys {
	i1, i2, _ := SetsOf(p)
	return PartyKeys{Party: p, Domain: d.domain, Primary: d.sets[i1-1], Hat: d.sets[i2-1], Private: d.private[p-1]}
}

// SetObs attaches a metrics registry: DealFloats (and ShareFloats)
// then count clamped encodings under fixed.saturations. A nil registry detaches.
func (d *Dealer) SetObs(reg *obs.Registry) {
	d.saturations = reg.Counter("fixed.saturations")
}

// Params exposes the dealer's fixed-point configuration.
func (d *Dealer) Params() fixed.Params { return d.params }

// DealValue deals a ring-domain secret in keyed form: one deal with the
// single component CompValue, of which every party receives its Second.
func (d *Dealer) DealValue(s Mat) ([NumParties]KeyedItem, error) {
	var items [NumParties]KeyedItem
	if s.IsZeroShape() {
		return items, fmt.Errorf("sharing: cannot share an empty matrix")
	}
	n := d.deals
	d.deals++
	var kd KeyedDeal
	d.dealKnown(&kd, n, CompValue, s)
	return kd.Party, nil
}

// Share splits a ring-domain secret into the three per-party bundles:
// DealValue, expanded with each party's keys.
func (d *Dealer) Share(s Mat) ([NumParties]Bundle, error) {
	items, err := d.DealValue(s)
	return d.expandValues(items, err)
}

// expandValues expands each party's item of a dealt value.
func (d *Dealer) expandValues(items [NumParties]KeyedItem, err error) ([NumParties]Bundle, error) {
	var bundles [NumParties]Bundle
	if err != nil {
		return bundles, err
	}
	for p := range bundles {
		if bundles[p], err = items[p].Value(d.Keys(p + 1)); err != nil {
			return bundles, err
		}
	}
	return bundles, nil
}

// DealFloats encodes a float64 matrix into the ring and deals it
// (DealValue). Values the ring cannot represent (NaN, ±Inf, overflow)
// are clamped deterministically by the checked encoder and counted
// when a metrics registry is attached (SetObs).
func (d *Dealer) DealFloats(m tensor.Matrix[float64]) ([NumParties]KeyedItem, error) {
	enc := tensor.Matrix[int64]{Rows: m.Rows, Cols: m.Cols, Data: make([]int64, m.Size())}
	for i, v := range m.Data {
		e, exact := d.params.FromFloatChecked(v)
		if !exact {
			d.saturations.Inc()
		}
		enc.Data[i] = e
	}
	return d.DealValue(enc)
}

// ShareFloats is DealFloats expanded into the three bundles.
func (d *Dealer) ShareFloats(m tensor.Matrix[float64]) ([NumParties]Bundle, error) {
	items, err := d.DealFloats(m)
	return d.expandValues(items, err)
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
