package sharing

import (
	"fmt"
	"sync"

	"github.com/trustddl/trustddl/internal/tensor"
)

// BatchOrder describes one correlated-randomness item of a batched
// deal: either a Beaver triple (Kind selects Hadamard or MatMul) or an
// auxiliary positive matrix for SecComp-BT (Aux). Hadamard and aux
// items use the M×N shape; MatMul items describe a (M×N)·(N×P)
// product.
type BatchOrder struct {
	Kind TripleKind
	Aux  bool
	M    int
	N    int
	P    int
	// Against, when set on a MatMul order, is a weight-side mask b
	// (N×P) the dealer drew earlier and still holds: the item is then
	// the input-side pair (A, C = A·b) with B left empty — the
	// requester kept its share of b from the deal that drew it.
	Against Mat
}

// BatchItem is one dealt item of a batch: the per-party triple bundles
// or, for IsAux, the per-party bundles of the auxiliary matrix.
type BatchItem struct {
	Triple [NumParties]TripleBundle
	Aux    [NumParties]Bundle
	IsAux  bool
	// Mask is the plaintext b of a freshly drawn MatMul triple, for a
	// dealer-side caller that retains it to deal later input-side
	// pairs against (BatchOrder.Against). It never leaves the dealer.
	Mask Mat
}

// DealBatch deals all items of one batch, drawing from the dealer's
// Source exactly as the equivalent sequence of individual
// HadamardTriple / MatMulTriple / AuxPositive calls would. Keeping the
// two streams identical is a correctness contract, not cosmetics:
// fixed-point truncation is share-local, so opened protocol outputs
// depend (at the ulp level) on the share randomness, and the batched
// offline path must stay bit-identical to the on-demand path. All
// randomness is therefore drawn serially per item — operands first,
// then the share masks, in the individual deal's order; only the
// CPU-bound triple products c = a·b / a⊙b, which consume no
// randomness, run concurrently across items (each additionally fanning
// out over the parallel tensor kernels). The c share sets are
// assembled afterwards from masks pre-drawn in phase 1. An order dealt
// Against a retained mask skips exactly the draws of b and of b's
// shares, so a stream with no such order is the stream it always was.
func (d *Dealer) DealBatch(orders []BatchOrder) ([]BatchItem, error) {
	type pending struct {
		a, b   Mat // triple operands
		c      Mat // product, filled concurrently
		as, bs [NumParties]Bundle
		// cMasks holds, per share set, the mask CreateShares would have
		// drawn for c — pre-drawn so sharing c after the concurrent
		// product phase consumes no randomness.
		cMasks [NumParties]Mat
	}
	out := make([]BatchItem, len(orders))
	ops := make([]pending, len(orders))

	// Phase 1 — serial: every source draw, in the individual-deal order.
	for i, o := range orders {
		if o.Aux {
			t, err := d.auxMatrix(o.M, o.N)
			if err != nil {
				return nil, fmt.Errorf("sharing: batch item %d: %w", i, err)
			}
			bs, err := d.Share(t)
			if err != nil {
				return nil, fmt.Errorf("sharing: batch item %d: %w", i, err)
			}
			out[i] = BatchItem{Aux: bs, IsAux: true}
			continue
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
		if ops[i].a, err = d.uniform(o.M, o.N); err != nil {
			return nil, fmt.Errorf("sharing: batch item %d: %w", i, err)
		}
		ops[i].b = o.Against
		if fresh {
			if ops[i].b, err = d.uniform(bShape[0], bShape[1]); err != nil {
				return nil, fmt.Errorf("sharing: batch item %d: %w", i, err)
			}
		}
		// The individual path computes c here (no draws) and then shares
		// a, b, c in that order; mirror its mask draws exactly.
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
	}

	// Phase 2 — concurrent: the triple products, the CPU-bound part.
	var wg sync.WaitGroup
	errs := make([]error, len(orders))
	for i := range orders {
		if orders[i].Aux {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var err error
			if orders[i].Kind == TripleHadamard {
				ops[i].c, err = ops[i].a.Hadamard(ops[i].b)
			} else {
				ops[i].c, err = ops[i].a.MatMul(ops[i].b)
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
		if orders[i].Aux {
			continue
		}
		cs, err := shareWithMasks(ops[i].c, ops[i].cMasks)
		if err != nil {
			return nil, fmt.Errorf("sharing: batch item %d: %w", i, err)
		}
		for p := 0; p < NumParties; p++ {
			out[i].Triple[p] = TripleBundle{A: ops[i].as[p], B: ops[i].bs[p], C: cs[p]}
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
	for i := 1; i <= NumParties; i++ {
		i1, i2, i3 := SetsOf(i)
		bundles[i-1] = Bundle{
			Primary: sets[i1-1][0].Clone(),
			Hat:     sets[i2-1][0].Clone(),
			Second:  sets[i3-1][1].Clone(),
		}
	}
	return bundles, nil
}

// auxMatrix draws the SecComp-BT masking matrix of AuxPositive without
// sharing it (DealBatch separates drawing from sharing).
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
