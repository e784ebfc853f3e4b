// Row-stable batched triple dealing.
//
// A batched secure step carries its batch as the leading rows of one
// share tensor. For every row-wise protocol — forward matmul (rows
// independent, contraction over the feature dim), Hadamard products,
// SecComp-BT sign masking — the batch computation decomposes exactly
// into the per-row computations, PROVIDED the correlated randomness
// decomposes the same way. The plain Dealer cannot give that: it draws
// a batch-shaped triple as one fresh sample, so a batch-N step and N
// sequential single-row steps consume different masks, and the local
// share truncation (Bundle.Truncate) turns that difference into ±1-ulp
// carry noise in the revealed values.
//
// The dealers in this file close that gap. A row-stable matrix triple
// for an m×n · n×p product is built as m single-row triples
// (aᵣ: 1×n, b: n×p, cᵣ = aᵣ·b) sharing ONE weight-side mask b; the
// batch triple is their literal row-stack — share by share, not just
// value by value. A batched step and its per-row replay therefore see
// bit-identical masks, bit-identical opened values, bit-identical
// truncation carries and bit-identical outputs. The equivalence suite
// (internal/nn, the root batch tests) runs on these dealers.
//
// Reusing b across the rows of one batch is the standard matrix-triple
// shape (one weight mask per product); reusing it additionally across
// the sequential replay of the same step reveals f = W − b once more
// with the same value, which leaks nothing new as long as W is
// unchanged — the inference case. Training replay re-deals b (weights
// move between sequential steps, and f deltas would otherwise reveal
// weight deltas), which is why only the linear row-wise parts of a
// training step are bit-stable (see the nn batch equivalence tests).
package sharing

import (
	"fmt"
	"sync"
)

// stackMats row-concatenates matrices with equal column counts. Data
// is row-major, so the stack is a straight concatenation.
func stackMats(parts []Mat) (Mat, error) {
	if len(parts) == 0 {
		return Mat{}, fmt.Errorf("sharing: stack of zero matrices")
	}
	cols := parts[0].Cols
	rows := 0
	for _, p := range parts {
		if p.Cols != cols {
			return Mat{}, fmt.Errorf("sharing: stack column mismatch %d vs %d", p.Cols, cols)
		}
		rows += p.Rows
	}
	out := Mat{Rows: rows, Cols: cols, Data: make([]int64, 0, rows*cols)}
	for _, p := range parts {
		out.Data = append(out.Data, p.Data...)
	}
	return out, nil
}

// StackBundles row-concatenates share bundles component-wise: the
// result is a valid sharing of the row-stacked secret, and row r of
// every component is bit-identical to bundle r.
func StackBundles(parts []Bundle) (Bundle, error) {
	ps := make([]Mat, len(parts))
	hs := make([]Mat, len(parts))
	ss := make([]Mat, len(parts))
	for i, b := range parts {
		if err := b.Validate(); err != nil {
			return Bundle{}, fmt.Errorf("sharing: stack part %d: %w", i, err)
		}
		ps[i], hs[i], ss[i] = b.Primary, b.Hat, b.Second
	}
	p, err := stackMats(ps)
	if err != nil {
		return Bundle{}, err
	}
	h, err := stackMats(hs)
	if err != nil {
		return Bundle{}, err
	}
	s, err := stackMats(ss)
	if err != nil {
		return Bundle{}, err
	}
	return Bundle{Primary: p, Hat: h, Second: s}, nil
}

// RowTriples is a row-decomposable triple family: Batch is the m-row
// triple and Rows[r] the single-row triple of row r, with Batch.A and
// Batch.C the share-level row-stacks of the row slices and Batch.B the
// common weight-side mask (for matrix triples) or the row-stack (for
// Hadamard triples). Mask is the plaintext of that common mask when
// this dealing drew it, for the dealer-side caller that retains it.
type RowTriples struct {
	Batch [NumParties]TripleBundle
	Rows  [][NumParties]TripleBundle
	Mask  Mat
}

// RowAux is a row-decomposable auxiliary-positive family.
type RowAux struct {
	Batch [NumParties]Bundle
	Rows  [][NumParties]Bundle
}

// RowMatMulTriples deals a row-stable m×n · n×p matrix triple: one
// weight-side mask b, m single-row input masks aᵣ with cᵣ = aᵣ·b, and
// their share-level row-stack as the batch triple.
func (d *Dealer) RowMatMulTriples(m, n, p int) (RowTriples, error) {
	return d.BlockMatMulTriples(m, 1, n, p)
}

// BlockMatMulTriples generalizes RowMatMulTriples to blocks of unit
// rows: the batch triple covers (blocks·unit)×n · n×p and Rows[r] is
// the unit×n slice of block r. Layers whose batched operand carries
// several rows per image (the im2col-lowered convolution: positions
// rows per image) decompose per image at this granularity.
func (d *Dealer) BlockMatMulTriples(blocks, unit, n, p int) (RowTriples, error) {
	return d.blockMatMul(blocks, unit, n, p, Mat{})
}

// blockMatMul is BlockMatMulTriples, or — given a retained n×p mask to
// deal against — only its input side: the blocks' (aᵣ, cᵣ = aᵣ·b) with
// every B left empty, as in BatchOrder.Against.
func (d *Dealer) blockMatMul(blocks, unit, n, p int, against Mat) (RowTriples, error) {
	if blocks < 1 || unit < 1 {
		return RowTriples{}, fmt.Errorf("sharing: block triple %d×%d", blocks, unit)
	}
	out := RowTriples{Rows: make([][NumParties]TripleBundle, blocks)}
	b := against
	var bShares [NumParties]Bundle
	if b.IsZeroShape() {
		var err error
		if b, err = d.uniform(n, p); err != nil {
			return RowTriples{}, err
		}
		if bShares, err = d.Share(b); err != nil {
			return RowTriples{}, err
		}
		out.Mask = b
	} else if b.Rows != n || b.Cols != p {
		return RowTriples{}, fmt.Errorf("sharing: %dx%d mask for a block triple over %dx%d", b.Rows, b.Cols, n, p)
	}
	aParts := make([][]Bundle, NumParties)
	cParts := make([][]Bundle, NumParties)
	for r := 0; r < blocks; r++ {
		a, err := d.uniform(unit, n)
		if err != nil {
			return RowTriples{}, err
		}
		c, err := a.MatMul(b)
		if err != nil {
			return RowTriples{}, err
		}
		aShares, err := d.Share(a)
		if err != nil {
			return RowTriples{}, err
		}
		cShares, err := d.Share(c)
		if err != nil {
			return RowTriples{}, err
		}
		for i := 0; i < NumParties; i++ {
			out.Rows[r][i] = TripleBundle{A: aShares[i], B: bShares[i], C: cShares[i]}
			aParts[i] = append(aParts[i], aShares[i])
			cParts[i] = append(cParts[i], cShares[i])
		}
	}
	for i := 0; i < NumParties; i++ {
		a, err := StackBundles(aParts[i])
		if err != nil {
			return RowTriples{}, err
		}
		c, err := StackBundles(cParts[i])
		if err != nil {
			return RowTriples{}, err
		}
		out.Batch[i] = TripleBundle{A: a, B: bShares[i], C: c}
	}
	return out, nil
}

// RowHadamardTriples deals a row-stable m×cols element-wise triple:
// every component of the batch triple is the share-level row-stack of
// the single-row triples.
func (d *Dealer) RowHadamardTriples(m, cols int) (RowTriples, error) {
	return d.BlockHadamardTriples(m, 1, cols)
}

// BlockHadamardTriples is RowHadamardTriples at block granularity:
// blocks slices of unit rows each.
func (d *Dealer) BlockHadamardTriples(blocks, unit, cols int) (RowTriples, error) {
	if blocks < 1 || unit < 1 {
		return RowTriples{}, fmt.Errorf("sharing: block triple %d×%d", blocks, unit)
	}
	out := RowTriples{Rows: make([][NumParties]TripleBundle, blocks)}
	var parts [NumParties]struct{ a, b, c []Bundle }
	for r := 0; r < blocks; r++ {
		rowBundles, err := d.HadamardTriple(unit, cols)
		if err != nil {
			return RowTriples{}, err
		}
		out.Rows[r] = rowBundles
		for i := 0; i < NumParties; i++ {
			parts[i].a = append(parts[i].a, rowBundles[i].A)
			parts[i].b = append(parts[i].b, rowBundles[i].B)
			parts[i].c = append(parts[i].c, rowBundles[i].C)
		}
	}
	for i := 0; i < NumParties; i++ {
		a, err := StackBundles(parts[i].a)
		if err != nil {
			return RowTriples{}, err
		}
		b, err := StackBundles(parts[i].b)
		if err != nil {
			return RowTriples{}, err
		}
		c, err := StackBundles(parts[i].c)
		if err != nil {
			return RowTriples{}, err
		}
		out.Batch[i] = TripleBundle{A: a, B: b, C: c}
	}
	return out, nil
}

// RowAuxPositive deals a row-stable m×cols auxiliary positive matrix.
func (d *Dealer) RowAuxPositive(m, cols int) (RowAux, error) {
	return d.BlockAuxPositive(m, 1, cols)
}

// BlockAuxPositive is RowAuxPositive at block granularity.
func (d *Dealer) BlockAuxPositive(blocks, unit, cols int) (RowAux, error) {
	if blocks < 1 || unit < 1 {
		return RowAux{}, fmt.Errorf("sharing: block aux %d×%d", blocks, unit)
	}
	out := RowAux{Rows: make([][NumParties]Bundle, blocks)}
	parts := make([][]Bundle, NumParties)
	for r := 0; r < blocks; r++ {
		rowBundles, err := d.AuxPositive(unit, cols)
		if err != nil {
			return RowAux{}, err
		}
		out.Rows[r] = rowBundles
		for i := 0; i < NumParties; i++ {
			parts[i] = append(parts[i], rowBundles[i])
		}
	}
	for i := 0; i < NumParties; i++ {
		b, err := StackBundles(parts[i])
		if err != nil {
			return RowAux{}, err
		}
		out.Batch[i] = b
	}
	return out, nil
}

// RowPreDealer pre-deals row-stable triples and serves them through
// two kinds of views: a BatchView consumed by the batched secure pass,
// and per-row RowViews consumed by its sequential single-row replay.
// Both draw from one dealing per (session, shape) key, so the batch
// step and its replay see bit-identical correlated randomness.
//
// Requests whose leading dimension is neither the configured batch
// size nor 1 (e.g. the in×batch · batch×out gradient contraction of a
// backward pass) fall back to a plain keyed dealing shared by all
// views, like PreDealer.
type RowPreDealer struct {
	mu      sync.Mutex
	dealer  *Dealer
	rows    int
	masks   MaskTable
	mats    map[string]*RowTriples
	hads    map[string]*RowTriples
	auxes   map[string]*RowAux
	flat    map[string][NumParties]TripleBundle
	flatAux map[string][NumParties]Bundle
}

// NewRowPreDealer wraps a dealer for row-stable dealing at the given
// batch size.
func NewRowPreDealer(d *Dealer, rows int) (*RowPreDealer, error) {
	if rows < 1 {
		return nil, fmt.Errorf("sharing: row predealer batch %d", rows)
	}
	return &RowPreDealer{
		dealer:  d,
		rows:    rows,
		mats:    make(map[string]*RowTriples),
		hads:    make(map[string]*RowTriples),
		auxes:   make(map[string]*RowAux),
		flat:    make(map[string][NumParties]TripleBundle),
		flatAux: make(map[string][NumParties]Bundle),
	}, nil
}

// BatchView returns the triple source for the batched pass of party i.
func (p *RowPreDealer) BatchView(party int) (*RowView, error) {
	if party < 1 || party > NumParties {
		return nil, fmt.Errorf("sharing: party %d out of range", party)
	}
	return &RowView{dealer: p, party: party, row: -1}, nil
}

// RowView returns the triple source for the single-row replay of row r
// by party i.
func (p *RowPreDealer) RowView(party, row int) (*RowView, error) {
	if party < 1 || party > NumParties {
		return nil, fmt.Errorf("sharing: party %d out of range", party)
	}
	if row < 0 || row >= p.rows {
		return nil, fmt.Errorf("sharing: row %d out of range [0,%d)", row, p.rows)
	}
	return &RowView{dealer: p, party: party, row: row}, nil
}

func (p *RowPreDealer) matFamily(session, mask string, unit, n, q int) (*RowTriples, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	key := fmt.Sprintf("%s|mm|%d|%dx%d", session, unit, n, q)
	if e, ok := p.mats[key]; ok {
		return e, nil
	}
	against := p.masks.Get(mask, n, q)
	rt, err := p.dealer.blockMatMul(p.rows, unit, n, q, against)
	if err != nil {
		return nil, err
	}
	if mask != "" && against.IsZeroShape() {
		p.masks.Put(mask, rt.Mask)
	}
	p.mats[key] = &rt
	return &rt, nil
}

func (p *RowPreDealer) hadFamily(session string, unit, cols int) (*RowTriples, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	key := fmt.Sprintf("%s|hd|%d|%d", session, unit, cols)
	if e, ok := p.hads[key]; ok {
		return e, nil
	}
	rt, err := p.dealer.BlockHadamardTriples(p.rows, unit, cols)
	if err != nil {
		return nil, err
	}
	p.hads[key] = &rt
	return &rt, nil
}

func (p *RowPreDealer) auxFamily(session string, unit, cols int) (*RowAux, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	key := fmt.Sprintf("%s|ax|%d|%d", session, unit, cols)
	if e, ok := p.auxes[key]; ok {
		return e, nil
	}
	ra, err := p.dealer.BlockAuxPositive(p.rows, unit, cols)
	if err != nil {
		return nil, err
	}
	p.auxes[key] = &ra
	return &ra, nil
}

func (p *RowPreDealer) flatMat(session string, m, n, q int) ([NumParties]TripleBundle, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	key := fmt.Sprintf("%s|flat-mm|%dx%dx%d", session, m, n, q)
	if e, ok := p.flat[key]; ok {
		return e, nil
	}
	bs, err := p.dealer.MatMulTriple(m, n, q)
	if err != nil {
		return [NumParties]TripleBundle{}, err
	}
	p.flat[key] = bs
	return bs, nil
}

func (p *RowPreDealer) flatHad(session string, m, cols int) ([NumParties]TripleBundle, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	key := fmt.Sprintf("%s|flat-hd|%dx%d", session, m, cols)
	if e, ok := p.flat[key]; ok {
		return e, nil
	}
	bs, err := p.dealer.HadamardTriple(m, cols)
	if err != nil {
		return [NumParties]TripleBundle{}, err
	}
	p.flat[key] = bs
	return bs, nil
}

func (p *RowPreDealer) flatAuxFor(session string, m, cols int) ([NumParties]Bundle, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	key := fmt.Sprintf("%s|flat-ax|%dx%d", session, m, cols)
	if e, ok := p.flatAux[key]; ok {
		return e, nil
	}
	bs, err := p.dealer.AuxPositive(m, cols)
	if err != nil {
		return [NumParties]Bundle{}, err
	}
	p.flatAux[key] = bs
	return bs, nil
}

// RowView is one party's slice of a RowPreDealer: the batch slice
// (row == -1) or one row's slice. It satisfies nn.TripleSource.
type RowView struct {
	dealer *RowPreDealer
	party  int
	row    int
}

// unitFor maps a request's leading dimension to its per-block unit: a
// batch view splits m evenly across the configured row count (m must
// divide), a row view's request is exactly one block. A zero return
// selects the flat fallback.
func (v *RowView) unitFor(m int) int {
	if v.row < 0 {
		if m%v.dealer.rows != 0 {
			return 0
		}
		return m / v.dealer.rows
	}
	return m
}

// MatMulTriple serves the session's row-stable matrix triple slice
// when the leading dimension decomposes over the batch, and a shared
// flat dealing otherwise. A family requested against a named weight
// mask is dealt against the one the dealer retains under that name (B
// comes back empty); the flat fallback always deals a fresh mask.
func (v *RowView) MatMulTriple(session, mask string, m, n, q int) (TripleBundle, error) {
	unit := v.unitFor(m)
	if unit == 0 {
		bs, err := v.dealer.flatMat(session, m, n, q)
		if err != nil {
			return TripleBundle{}, err
		}
		return bs[v.party-1], nil
	}
	fam, err := v.dealer.matFamily(session, mask, unit, n, q)
	if err != nil {
		return TripleBundle{}, err
	}
	if v.row < 0 {
		return fam.Batch[v.party-1], nil
	}
	return fam.Rows[v.row][v.party-1], nil
}

// HadamardTriple serves the session's row-stable element-wise triple
// slice, falling back like MatMulTriple.
func (v *RowView) HadamardTriple(session string, rows, cols int) (TripleBundle, error) {
	unit := v.unitFor(rows)
	if unit == 0 {
		bs, err := v.dealer.flatHad(session, rows, cols)
		if err != nil {
			return TripleBundle{}, err
		}
		return bs[v.party-1], nil
	}
	fam, err := v.dealer.hadFamily(session, unit, cols)
	if err != nil {
		return TripleBundle{}, err
	}
	if v.row < 0 {
		return fam.Batch[v.party-1], nil
	}
	return fam.Rows[v.row][v.party-1], nil
}

// AuxPositive serves the session's row-stable auxiliary matrix slice,
// falling back like MatMulTriple.
func (v *RowView) AuxPositive(session string, rows, cols int) (Bundle, error) {
	unit := v.unitFor(rows)
	if unit == 0 {
		bs, err := v.dealer.flatAuxFor(session, rows, cols)
		if err != nil {
			return Bundle{}, err
		}
		return bs[v.party-1], nil
	}
	fam, err := v.dealer.auxFamily(session, unit, cols)
	if err != nil {
		return Bundle{}, err
	}
	if v.row < 0 {
		return fam.Batch[v.party-1], nil
	}
	return fam.Rows[v.row][v.party-1], nil
}
