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

// BatchItem is one dealt item of a batch: the per-party triple bundles.
type BatchItem struct {
	Triple [NumParties]TripleBundle
	// Mask is the plaintext b of a freshly drawn MatMul triple, for a
	// dealer-side caller that retains it to deal later input-side
	// pairs against (BatchOrder.Against). It never leaves the dealer.
	Mask Mat
}

// DealBatch deals all items of one batch; it is the dealer's only
// dealing routine (HadamardTriple, MatMulTriple, CompTriple and
// AuxPositive are one-order batches). A batch draws from the dealer's
// Source exactly as the same orders dealt one batch each would.
// Keeping the streams identical is a correctness contract, not
// cosmetics: fixed-point truncation is share-local, so opened protocol
// outputs depend (at the ulp level) on the share randomness, and a
// pipelined multi-order fetch must stay bit-identical to on-demand
// single-order deals. All randomness is therefore drawn serially per
// item — operands, then the share masks of a, b and c in that order;
// only the CPU-bound triple products c = a·b / a⊙b / conv(a, b), which
// consume no randomness, run concurrently across items (each
// additionally fanning out over the parallel tensor kernels). The c
// share sets are assembled afterwards from masks pre-drawn in phase 1.
// An order dealt Against a retained mask skips exactly the draws of b
// and of b's shares, a conv order draws a at image shape, an Aux order
// draws its b as the positive mask t, and a BackPair order follows its
// own draws with the pair's (a′, a′'s shares, c′'s masks); a stream
// with none of them is the stream it always was.
func (d *Dealer) DealBatch(orders []BatchOrder) ([]BatchItem, error) {
	type pending struct {
		a, b   Mat // triple operands
		c      Mat // product, filled concurrently
		as, bs [NumParties]Bundle
		// cMasks holds, per share set, the mask CreateShares would have
		// drawn for c — pre-drawn so sharing c after the concurrent
		// product phase consumes no randomness.
		cMasks [NumParties]Mat
		// The backward pair of a BackPair order, drawn and shared alike.
		a2, c2  Mat
		a2s     [NumParties]Bundle
		c2Masks [NumParties]Mat
	}
	out := make([]BatchItem, len(orders))
	ops := make([]pending, len(orders))

	// Phase 1 — serial: every source draw, in the individual-deal order.
	for i, o := range orders {
		if o.Aux {
			o.Kind = TripleHadamard
		}
		bShape := [2]int{o.M, o.N}
		cShape := [2]int{o.M, o.N}
		switch o.Kind {
		case TripleHadamard:
		case TripleMatMul:
			bShape = [2]int{o.N, o.P}
			cShape = [2]int{o.M, o.P}
		default:
			return nil, fmt.Errorf("sharing: batch item %d: unknown triple kind %d", i, o.Kind)
		}
		var err error
		fresh := o.Against.IsZeroShape()
		if !fresh && (o.Kind != TripleMatMul || o.Against.Rows != o.N || o.Against.Cols != o.P) {
			return nil, fmt.Errorf("sharing: batch item %d: %dx%d mask for a (%dx%d)·(%dx%d) order",
				i, o.Against.Rows, o.Against.Cols, o.M, o.N, bShape[0], bShape[1])
		}
		if o.BackPair && o.Kind != TripleMatMul {
			return nil, fmt.Errorf("sharing: batch item %d: backward pair on a non-matmul order", i)
		}
		aShape := [2]int{o.M, o.N}
		if o.isConv() {
			images, err := o.ConvImages()
			if err != nil {
				return nil, fmt.Errorf("sharing: batch item %d: %w", i, err)
			}
			aShape = [2]int{images, o.Conv.InSize()}
		}
		if ops[i].a, err = d.uniform(aShape[0], aShape[1]); err != nil {
			return nil, fmt.Errorf("sharing: batch item %d: %w", i, err)
		}
		ops[i].b = o.Against
		draw := d.uniform
		if o.Aux {
			draw = d.auxMatrix
		}
		if fresh {
			if ops[i].b, err = draw(bShape[0], bShape[1]); err != nil {
				return nil, fmt.Errorf("sharing: batch item %d: %w", i, err)
			}
		}
		if ops[i].as, err = d.Share(ops[i].a); err != nil {
			return nil, fmt.Errorf("sharing: batch item %d: %w", i, err)
		}
		if fresh {
			if ops[i].bs, err = d.Share(ops[i].b); err != nil {
				return nil, fmt.Errorf("sharing: batch item %d: %w", i, err)
			}
			if o.Kind == TripleMatMul {
				out[i].Mask = ops[i].b
			}
		}
		for j := 0; j < NumParties; j++ {
			if ops[i].cMasks[j], err = d.uniform(cShape[0], cShape[1]); err != nil {
				return nil, fmt.Errorf("sharing: batch item %d: %w", i, err)
			}
		}
		if !o.BackPair {
			continue
		}
		if ops[i].a2, err = d.uniform(o.M, o.P); err != nil {
			return nil, fmt.Errorf("sharing: batch item %d: %w", i, err)
		}
		if ops[i].a2s, err = d.Share(ops[i].a2); err != nil {
			return nil, fmt.Errorf("sharing: batch item %d: %w", i, err)
		}
		for j := 0; j < NumParties; j++ {
			if ops[i].c2Masks[j], err = d.uniform(o.M, o.N); err != nil {
				return nil, fmt.Errorf("sharing: batch item %d: %w", i, err)
			}
		}
	}

	// Phase 2 — concurrent: the triple products, the CPU-bound part.
	var wg sync.WaitGroup
	errs := make([]error, len(orders))
	for i := range orders {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var err error
			switch o := orders[i]; {
			case o.Kind == TripleHadamard || o.Aux:
				ops[i].c, err = ops[i].a.Hadamard(ops[i].b)
			case o.isConv():
				ops[i].c, err = tensor.Conv2DBatch(o.Conv, ops[i].a, ops[i].b)
			default:
				ops[i].c, err = ops[i].a.MatMul(ops[i].b)
			}
			if err == nil && orders[i].BackPair {
				ops[i].c2, err = ops[i].a2.MatMul(ops[i].b.Transpose())
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("sharing: batch item %d: %w", i, err)
		}
	}

	// Phase 3 — assembly, no randomness: build c's bundles from the
	// phase-1 masks and combine the triples.
	for i := range orders {
		cs, err := shareWithMasks(ops[i].c, ops[i].cMasks)
		if err != nil {
			return nil, fmt.Errorf("sharing: batch item %d: %w", i, err)
		}
		for p := 0; p < NumParties; p++ {
			out[i].Triple[p] = TripleBundle{A: ops[i].as[p], B: ops[i].bs[p], C: cs[p]}
		}
		if !orders[i].BackPair {
			continue
		}
		c2s, err := shareWithMasks(ops[i].c2, ops[i].c2Masks)
		if err != nil {
			return nil, fmt.Errorf("sharing: batch item %d: %w", i, err)
		}
		for p := 0; p < NumParties; p++ {
			out[i].Triple[p].Back = Pair{A: ops[i].a2s[p], C: c2s[p]}
		}
	}
	return out, nil
}

// shareWithMasks splits s into the three per-party bundles using
// pre-drawn first-share masks, one per share set — producing exactly
// the bundles Share would had CreateShares drawn those masks.
func shareWithMasks(s Mat, masks [NumParties]Mat) ([NumParties]Bundle, error) {
	var bundles [NumParties]Bundle
	if s.IsZeroShape() {
		return bundles, fmt.Errorf("sharing: cannot share an empty matrix")
	}
	var sets [NumParties][2]Mat
	for j := 0; j < NumParties; j++ {
		if masks[j].Rows != s.Rows || masks[j].Cols != s.Cols {
			return bundles, fmt.Errorf("sharing: mask %d shape %dx%d does not match secret %dx%d",
				j, masks[j].Rows, masks[j].Cols, s.Rows, s.Cols)
		}
		last := s.Clone()
		if err := last.SubInPlace(masks[j]); err != nil {
			return bundles, err
		}
		sets[j] = [2]Mat{masks[j], last}
	}
	return distribute(sets), nil
}

// auxMatrix draws the positive mask t of a comparison item.
func (d *Dealer) auxMatrix(rows, cols int) (Mat, error) {
	t, err := tensor.New[int64](rows, cols)
	if err != nil {
		return Mat{}, err
	}
	for i := range t.Data {
		t.Data[i] = d.params.FromFloat(0.5 + 7.5*unitFloat(d.src))
	}
	return t, nil
}
