package sharing

import (
	"fmt"
	"sync"

	"github.com/trustddl/trustddl/internal/tensor"
)

// BatchOrder describes one correlated-randomness item of a batched
// deal: a Beaver triple (Kind selects Hadamard or MatMul) or the
// comparison item of SecComp-BT (Aux). Hadamard and Aux items use the
// M×N shape; MatMul items describe a (M×N)·(N×P) product.
type BatchOrder struct {
	Kind TripleKind
	// Aux asks for SecComp-BT's comparison item, whatever Kind says: an
	// element-wise triple whose b is a positive mask t, drawn uniformly
	// from [0.5, 8). B is t and C = A⊙t, so the comparison β = α⊙t
	// opens only α − A.
	Aux bool
	M   int
	N   int
	P   int
	// Against, when set on a MatMul order, is a weight-side mask b
	// (N×P) the dealer drew earlier and still holds: the item is then
	// the input-side pair (A, C = A·b) with B left empty — the
	// requester kept its share of b from the deal that drew it.
	Against Mat
	// Conv, when set on a MatMul order, is the geometry of the
	// convolution that product lowers: M = images·OutH·OutW and
	// N = PatchSize. a is then drawn at image shape, images × InSize,
	// and c = Conv2DBatch(Conv, a, b) — the lowered product's c for an
	// a that is never lowered, so the requester opens x − a at image
	// shape. b, Against and c are as for the lowered order.
	Conv tensor.ConvShape
	// BackPair, on a MatMul order, also deals the triple's backward
	// pair (TripleBundle.Back): a uniform A′ of M×P and C′ = A′·bᵀ of
	// M×N, drawn right after the triple's own draws. A training step's
	// forward asks for it, so that its backward can multiply the
	// gradient by the transposed weights under the same b.
	BackPair bool
}

// isConv reports whether the order carries conv geometry.
func (o BatchOrder) isConv() bool { return o.Conv != (tensor.ConvShape{}) }

// ConvImages checks that a conv order's dims are the lowering of its
// geometry and returns the number of images it covers.
func (o BatchOrder) ConvImages() (int, error) {
	if o.Kind != TripleMatMul {
		return 0, fmt.Errorf("sharing: conv geometry on a non-matmul order")
	}
	if err := o.Conv.Validate(); err != nil {
		return 0, err
	}
	positions := o.Conv.OutHeight() * o.Conv.OutWidth()
	if o.N != o.Conv.PatchSize() || o.M <= 0 || o.M%positions != 0 {
		return 0, fmt.Errorf("sharing: (%dx%d)·(%dx%d) order is not a lowering of conv %+v", o.M, o.N, o.N, o.P, o.Conv)
	}
	return o.M / positions, nil
}

// Layout returns what the item of the order consists of: A (at image
// shape for a conv order), then B — or, for a comparison item, t; none
// when the order is dealt Against a retained mask — then C, and the
// backward pair's A′ and C′ when it asks for them. It rejects orders
// that cannot be dealt.
func (o BatchOrder) Layout() (Layout, error) {
	var l Layout
	if o.Aux {
		o.Kind = TripleHadamard
	}
	if o.M <= 0 || o.N <= 0 || (o.Kind == TripleMatMul && o.P <= 0) {
		return l, fmt.Errorf("sharing: order dims %dx%dx%d", o.M, o.N, o.P)
	}
	bRows, bCols, cCols := o.M, o.N, o.N
	switch o.Kind {
	case TripleHadamard:
	case TripleMatMul:
		bRows, bCols, cCols = o.N, o.P, o.P
	default:
		return l, fmt.Errorf("sharing: unknown triple kind %d", o.Kind)
	}
	fresh := o.Against.IsZeroShape()
	if !fresh && (o.Kind != TripleMatMul || o.Against.Rows != o.N || o.Against.Cols != o.P) {
		return l, fmt.Errorf("sharing: %dx%d mask for a (%dx%d)·(%dx%d) order",
			o.Against.Rows, o.Against.Cols, o.M, o.N, bRows, bCols)
	}
	if o.BackPair && o.Kind != TripleMatMul {
		return l, fmt.Errorf("sharing: backward pair on a non-matmul order")
	}
	aRows, aCols := o.M, o.N
	if o.isConv() {
		images, err := o.ConvImages()
		if err != nil {
			return l, err
		}
		aRows, aCols = images, o.Conv.InSize()
	}
	l.with(CompA, aRows, aCols)
	switch {
	case o.Aux:
		l.with(CompT, bRows, bCols)
	case fresh:
		l.with(CompB, bRows, bCols)
	}
	l.with(CompC, o.M, cCols)
	if o.BackPair {
		l.with(CompBackA, o.M, o.P)
		l.with(CompBackC, o.M, o.N)
	}
	return l, nil
}

// BatchItem is one dealt item of a batch: the per-party triple bundles.
type BatchItem struct {
	Triple [NumParties]TripleBundle
	// Mask is the plaintext b of a freshly drawn MatMul triple, for a
	// dealer-side caller that retains it to deal later input-side
	// pairs against (BatchOrder.Against). It never leaves the dealer.
	Mask Mat
}

// Deal deals all items of one batch in keyed form; it is the dealer's
// only triple dealing routine (DealBatch, HadamardTriple, MatMulTriple,
// CompTriple and AuxPositive expand its items). Each item takes the next
// deal number, in order, and every share of it derives from that number
// alone: a batch deals exactly what the same orders dealt one batch
// each would. Keeping the deals identical is a correctness contract,
// not cosmetics: fixed-point truncation is share-local, so opened
// protocol outputs depend (at the ulp level) on the share randomness,
// and a pipelined multi-order fetch must stay bit-identical to
// on-demand single-order deals. Since no item reads what another draws,
// the items — their key streams and their CPU-bound triple products
// c = a·b / a⊙b / conv(a, b) — are dealt concurrently (each product
// additionally fanning out over the parallel tensor kernels). A batch
// with an order that cannot be dealt deals nothing and takes no number.
func (d *Dealer) Deal(orders []BatchOrder) ([]KeyedDeal, error) {
	layouts := make([]Layout, len(orders))
	for i, o := range orders {
		var err error
		if layouts[i], err = o.Layout(); err != nil {
			return nil, fmt.Errorf("sharing: batch item %d: %w", i, err)
		}
	}
	first := d.deals
	d.deals += uint64(len(orders))
	out := make([]KeyedDeal, len(orders))
	errs := make([]error, len(orders))
	var wg sync.WaitGroup
	for i := range orders {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = d.dealItem(&out[i], first+uint64(i), orders[i], layouts[i])
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("sharing: batch item %d: %w", i, err)
		}
	}
	return out, nil
}

// dealItem deals order o as deal n: a, then b (a positive t for a
// comparison item, nothing when dealt against a retained mask), the
// product c, and the backward pair a′, c′ = a′·bᵀ.
func (d *Dealer) dealItem(kd *KeyedDeal, n uint64, o BatchOrder, l Layout) error {
	a := d.dealUniform(kd, n, CompA, l.Shapes[CompA])
	b := o.Against
	switch {
	case l.Has(CompT):
		b = d.positive(n, l.Shapes[CompT])
		d.dealKnown(kd, n, CompT, b)
	case l.Has(CompB):
		b = d.dealUniform(kd, n, CompB, l.Shapes[CompB])
		if o.Kind == TripleMatMul {
			kd.Mask = b
		}
	}
	var c Mat
	var err error
	switch {
	case o.Kind == TripleHadamard || o.Aux:
		c, err = a.Hadamard(b)
	case o.isConv():
		c, err = tensor.Conv2DBatch(o.Conv, a, b)
	default:
		c, err = a.MatMul(b)
	}
	if err != nil {
		return err
	}
	d.dealKnown(kd, n, CompC, c)
	if !o.BackPair {
		return nil
	}
	a2 := d.dealUniform(kd, n, CompBackA, l.Shapes[CompBackA])
	c2, err := a2.MatMul(b.Transpose())
	if err != nil {
		return err
	}
	d.dealKnown(kd, n, CompBackC, c2)
	return nil
}

// dealKnown deals component c of deal n for a value s the dealer
// holds: each set's first share comes from the set's key, and the
// party holding the set's second share receives s minus it.
func (d *Dealer) dealKnown(kd *KeyedDeal, n uint64, c Component, s Mat) {
	for j := 1; j <= NumParties; j++ {
		second := prf(s.Rows, s.Cols, d.sets[j-1], label(d.domain, n, c, j))
		subFrom(second.Data, s.Data)
		kd.Party[j%NumParties].Second[c] = second
	}
	d.lay(kd, n, c, s.Rows, s.Cols)
}

// dealUniform draws uniform component c of deal n and returns the
// secret: the deal's keyed set comes whole from keys — its first share
// from the set key, its second from the holder's private key — and the
// holders of the other two sets' second shares receive them.
func (d *Dealer) dealUniform(kd *KeyedDeal, n uint64, c Component, shape [2]int) Mat {
	rows, cols := shape[0], shape[1]
	js := keyedSet(n)
	s := prf(rows, cols, d.sets[js-1], label(d.domain, n, c, js))
	second := prf(rows, cols, d.private[js%NumParties], label(d.domain, n, c, js))
	for i, v := range second.Data {
		s.Data[i] += v
	}
	for j := 1; j <= NumParties; j++ {
		if j == js {
			continue
		}
		second := prf(rows, cols, d.sets[j-1], label(d.domain, n, c, j))
		subFrom(second.Data, s.Data)
		kd.Party[j%NumParties].Second[c] = second
	}
	d.lay(kd, n, c, rows, cols)
	return s
}

// lay records component c of deal n in every party's item.
func (d *Dealer) lay(kd *KeyedDeal, n uint64, c Component, rows, cols int) {
	for p := range kd.Party {
		kd.Party[p].Deal = n
		kd.Party[p].with(c, rows, cols)
	}
}

// subFrom sets dst = s − dst over the ring.
func subFrom(dst, s []int64) {
	s = s[:len(dst)]
	for i, v := range dst {
		dst[i] = s[i] - v
	}
}

// positive draws the positive mask t of comparison deal n, uniform in
// [0.5, 8), from the dealer's unshared key.
func (d *Dealer) positive(n uint64, shape [2]int) Mat {
	t := prf(shape[0], shape[1], d.own, label(d.domain, n, CompT, 0))
	for i, v := range t.Data {
		t.Data[i] = d.params.FromFloat(0.5 + 7.5*float64(uint64(v)>>11)/(1<<53))
	}
	return t
}

// DealBatch deals a batch (Deal) and expands every item with every
// party's keys: the full per-party triple bundles, for callers that
// hold all three parties' shares.
func (d *Dealer) DealBatch(orders []BatchOrder) ([]BatchItem, error) {
	deals, err := d.Deal(orders)
	if err != nil {
		return nil, err
	}
	out := make([]BatchItem, len(deals))
	for i, kd := range deals {
		out[i].Mask = kd.Mask
		for p := range kd.Party {
			out[i].Triple[p] = kd.Party[p].Triple(d.Keys(p + 1))
		}
	}
	return out, nil
}
