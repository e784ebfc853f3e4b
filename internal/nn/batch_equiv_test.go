// Batch equivalence suite: a batch-N secure pass must be bit-identical
// to N sequential single-image passes — int64 output shares, revealed
// ring values and decoded floats — when the replay of row r consumes
// rows [r·u, (r+1)·u) of the batch pass's correlated randomness
// (sliceDealing). The local share truncation makes revealed values
// sensitive to the masks' low bits, so share-aligned randomness is
// exactly the condition under which bit-identity is the right
// assertion; any cross-row mixing in the batched path (a matrix-global
// decision, chunked kernels, im2col layout, mask misalignment) breaks
// it.
package nn

import (
	"fmt"
	mathrand "math/rand/v2"
	"runtime"
	"sync"
	"testing"

	"github.com/trustddl/trustddl/internal/sharing"
	"github.com/trustddl/trustddl/internal/tensor"
	"github.com/trustddl/trustddl/internal/transport"
)

// equivBatches is the acceptance grid: 1 and 3 cross the single-image
// boundary; at 32 the widest products reach the kernels' fan-out
// threshold, so forceChunking splits their rows across workers.
var equivBatches = []int{1, 3, 8, 32}

// forceChunking runs the rest of the test at GOMAXPROCS=4, so every
// kernel call of at least 2¹⁴ element-ops fans out across 4 workers.
// A test that wants the serial reference sets runtime.GOMAXPROCS(1).
func forceChunking(t *testing.T) {
	t.Helper()
	prev := runtime.GOMAXPROCS(4)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// sliceDealing deals every item of a batched pass once, batch-shaped,
// with Dealer.DealBatch — the routine the model owner runs — and serves
// the batch pass the whole item and the replay of row r its rows
// [r·u, (r+1)·u), u being the replay request's leading dimension. Row
// slices of a batch triple are valid row triples (c_r = a_r·b, and
// sharing is linear), so no second dealer is needed. A batch request
// whose leading dimension does not split over the batch (the in×batch ·
// batch×out weight-gradient product) is dealt at its own shape.
type sliceDealing struct {
	mu    sync.Mutex
	d     *sharing.Dealer
	batch int
	items map[string]sharing.BatchItem
}

func newSliceDealing(d *sharing.Dealer, batch int) *sliceDealing {
	return &sliceDealing{d: d, batch: batch, items: make(map[string]sharing.BatchItem)}
}

// view returns party's source for the batch pass (row < 0) or for the
// replay of row.
func (s *sliceDealing) view(party, row int) sliceView { return sliceView{s, party, row} }

type sliceView struct {
	s          *sliceDealing
	party, row int
}

// item returns the item keyed by key for a request of m leading rows,
// dealing it on first use, and the row range of it this view serves.
func (v sliceView) item(key string, m int, order func(rows int) sharing.BatchOrder) (sharing.BatchItem, int, int, error) {
	u, rows := m, v.s.batch*m // a replay request: u rows per batch row
	if v.row < 0 {
		u, rows = m/v.s.batch, m
		if m%v.s.batch != 0 {
			u = -m // does not split over the batch: its own item, served whole
		}
	}
	key = fmt.Sprintf("%s|%d", key, u)
	v.s.mu.Lock()
	defer v.s.mu.Unlock()
	it, ok := v.s.items[key]
	if !ok {
		items, err := v.s.d.DealBatch([]sharing.BatchOrder{order(rows)})
		if err != nil {
			return sharing.BatchItem{}, 0, 0, err
		}
		it = items[0]
		v.s.items[key] = it
	}
	if v.row < 0 {
		return it, 0, rows, nil
	}
	return it, v.row * u, (v.row + 1) * u, nil
}

// MatMulTriple implements TripleSource. The suite's sessions carry no
// mask epoch, so the mask name is always empty and B always fresh. A
// backward pair's rows are the product's, A′ and C′ alike.
func (v sliceView) MatMulTriple(session, _ string, m, n, q int, backPair bool) (sharing.TripleBundle, error) {
	it, lo, hi, err := v.item(fmt.Sprintf("%s|mm|%dx%d|%t", session, n, q, backPair), m, func(rows int) sharing.BatchOrder {
		return sharing.BatchOrder{Kind: sharing.TripleMatMul, M: rows, N: n, P: q, BackPair: backPair}
	})
	if err != nil {
		return sharing.TripleBundle{}, err
	}
	t := it.Triple[v.party-1]
	return sharing.TripleBundle{A: bundleRows(t.A, lo, hi), B: t.B.Clone(), C: bundleRows(t.C, lo, hi), Back: pairRows(t.Back, lo, hi)}, nil
}

// ConvTriple implements TripleSource: A is served by image rows, C and
// a backward pair by those images' output positions.
func (v sliceView) ConvTriple(session, _ string, shape tensor.ConvShape, images, outChannels int, backPair bool) (sharing.TripleBundle, error) {
	positions := shape.OutHeight() * shape.OutWidth()
	it, lo, hi, err := v.item(fmt.Sprintf("%s|cv|%d|%t", session, outChannels, backPair), images, func(rows int) sharing.BatchOrder {
		return sharing.BatchOrder{Kind: sharing.TripleMatMul, M: rows * positions, N: shape.PatchSize(), P: outChannels, Conv: shape, BackPair: backPair}
	})
	if err != nil {
		return sharing.TripleBundle{}, err
	}
	t := it.Triple[v.party-1]
	return sharing.TripleBundle{A: bundleRows(t.A, lo, hi), B: t.B.Clone(), C: bundleRows(t.C, lo*positions, hi*positions),
		Back: pairRows(t.Back, lo*positions, hi*positions)}, nil
}

// pairRows copies rows [lo, hi) of a backward pair; an empty pair stays
// empty.
func pairRows(p sharing.Pair, lo, hi int) sharing.Pair {
	if p.A.Primary.IsZeroShape() {
		return sharing.Pair{}
	}
	return sharing.Pair{A: bundleRows(p.A, lo, hi), C: bundleRows(p.C, lo, hi)}
}

// CompTriple implements TripleSource.
func (v sliceView) CompTriple(session string, rows, cols int) (sharing.TripleBundle, error) {
	it, lo, hi, err := v.item(fmt.Sprintf("%s|cmp|%d", session, cols), rows, func(rows int) sharing.BatchOrder {
		return sharing.BatchOrder{Aux: true, M: rows, N: cols}
	})
	if err != nil {
		return sharing.TripleBundle{}, err
	}
	t := it.Triple[v.party-1]
	return sharing.TripleBundle{A: bundleRows(t.A, lo, hi), B: bundleRows(t.B, lo, hi), C: bundleRows(t.C, lo, hi)}, nil
}

// bundleRows copies rows [lo, hi) of every component of b.
func bundleRows(b sharing.Bundle, lo, hi int) sharing.Bundle {
	rows := func(m Mat) Mat {
		return Mat{Rows: hi - lo, Cols: m.Cols, Data: append([]int64(nil), m.Data[lo*m.Cols:hi*m.Cols]...)}
	}
	return sharing.Bundle{Primary: rows(b.Primary), Hat: rows(b.Hat), Second: rows(b.Second)}
}

// shareMatRows shares an n-row matrix once with rd and returns the
// per-party batch bundles plus their row slices, so the batch pass and
// its replay consume bit-identical input shares.
func shareMatRows(t *testing.T, rd *sharing.Dealer, m Mat64) ([sharing.NumParties]sharing.Bundle, [][sharing.NumParties]sharing.Bundle) {
	t.Helper()
	batch, err := rd.ShareFloats(m)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][sharing.NumParties]sharing.Bundle, m.Rows)
	for r := range rows {
		for i := range batch {
			rows[r][i] = bundleRows(batch[i], r, r+1)
		}
	}
	return batch, rows
}

// matRow extracts one row of a share matrix.
func matRow(m Mat, r int) Mat {
	out := Mat{Rows: 1, Cols: m.Cols, Data: make([]int64, m.Cols)}
	copy(out.Data, m.Data[r*m.Cols:(r+1)*m.Cols])
	return out
}

// wantBitEqual asserts two share matrices are bit-identical.
func wantBitEqual(t *testing.T, got, want Mat, what string) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d vs %dx%d", what, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("%s: element %d: %d vs %d (must be bit-identical)", what, i, got.Data[i], want.Data[i])
		}
	}
}

// wantBundleRowEqual asserts row r of the batched output bundle equals
// the single-row output bundle on all three components — the "int64
// shares" half of the equivalence claim.
func wantBundleRowEqual(t *testing.T, batch sharing.Bundle, r int, row sharing.Bundle, what string) {
	t.Helper()
	wantBitEqual(t, matRow(batch.Primary, r), row.Primary, what+" primary share")
	wantBitEqual(t, matRow(batch.Hat, r), row.Hat, what+" hat share")
	wantBitEqual(t, matRow(batch.Second, r), row.Second, what+" second share")
}

// equivNet builds one party's network instance for the equivalence
// grid from pre-shared weight bundles.
type equivNet func(party int) (*SecureNetwork, error)

// denseEquivNet is a dense(17→61) + ReLU + dense(61→4) stack: odd
// widths so forced chunking splits rows unevenly; at batch 32 the first
// product is 32·17·61 ≥ 2¹⁴ element-ops and fans out.
func denseEquivNet(t *testing.T, rd *sharing.Dealer, rng *mathrand.Rand) equivNet {
	t.Helper()
	w1 := tensor.MustNew[float64](17, 61)
	w2 := tensor.MustNew[float64](61, 4)
	for i := range w1.Data {
		w1.Data[i] = rng.NormFloat64() * 0.4
	}
	for i := range w2.Data {
		w2.Data[i] = rng.NormFloat64() * 0.4
	}
	bw1, err := rd.ShareFloats(w1)
	if err != nil {
		t.Fatal(err)
	}
	bw2, err := rd.ShareFloats(w2)
	if err != nil {
		t.Fatal(err)
	}
	return func(party int) (*SecureNetwork, error) {
		d1, err := NewSecureDense(bw1[party])
		if err != nil {
			return nil, err
		}
		d2, err := NewSecureDense(bw2[party])
		if err != nil {
			return nil, err
		}
		return &SecureNetwork{Layers: []SecureLayer{d1, NewSecureReLU(), d2}, OwnerActor: transport.ModelOwner}, nil
	}
}

// convEquivNet is conv(1×6×6, k3 s2 p1, 8 filters) + ReLU: the im2col
// lowering gives 9 matmul rows per image, exercising the block (not
// single-row) decomposition of the batched triple; at batch 32 the
// lowered product is 288·9·8 ≥ 2¹⁴ element-ops and fans out.
func convEquivNet(t *testing.T, rd *sharing.Dealer, rng *mathrand.Rand) (equivNet, int) {
	t.Helper()
	shape := tensor.ConvShape{InChannels: 1, Height: 6, Width: 6, Kernel: 3, Stride: 2, Pad: 1}
	const filters = 8
	w := tensor.MustNew[float64](shape.PatchSize(), filters)
	for i := range w.Data {
		w.Data[i] = rng.NormFloat64() * 0.4
	}
	bw, err := rd.ShareFloats(w)
	if err != nil {
		t.Fatal(err)
	}
	return func(party int) (*SecureNetwork, error) {
		c, err := NewSecureConv(shape, filters, bw[party])
		if err != nil {
			return nil, err
		}
		return &SecureNetwork{Layers: []SecureLayer{c, NewSecureReLU()}, OwnerActor: transport.ModelOwner}, nil
	}, shape.InChannels * shape.Height * shape.Width
}

// runEquivGrid drives the full batch-vs-sequential comparison for one
// architecture: for each batch size, one batched pass and N single-row
// replays on row slices of its triples, asserting bit-identical output
// shares and revealed values (ring ints and decoded floats).
func runEquivGrid(t *testing.T, env *secureEnv, build func(rd *sharing.Dealer, rng *mathrand.Rand) (equivNet, int)) {
	t.Helper()
	forceChunking(t)
	for _, batch := range equivBatches {
		t.Run(fmt.Sprintf("batch%d", batch), func(t *testing.T) {
			rd := sharing.NewDealer(sharing.NewSeededSource(uint64(4000+batch)), env.params)
			rng := mathrand.New(mathrand.NewPCG(uint64(batch), 99))
			mk, inWidth := build(rd, rng)
			pre := newSliceDealing(rd, batch)
			x := tensor.MustNew[float64](batch, inWidth)
			for i := range x.Data {
				x.Data[i] = rng.NormFloat64() * 0.5
			}
			xBatch, xRows := shareMatRows(t, rd, x)

			session := fmt.Sprintf("eq%d", batch)
			batchOuts := runSecure(t, env, func(i int) (sharing.Bundle, error) {
				net, err := mk(i)
				if err != nil {
					return sharing.Bundle{}, err
				}
				view := pre.view(i+1, -1)
				return net.Logits(env.ctxs[i], view, session, xBatch[i])
			})
			batchOpen := open(t, batchOuts)

			for r := 0; r < batch; r++ {
				rowOuts := runSecure(t, env, func(i int) (sharing.Bundle, error) {
					net, err := mk(i)
					if err != nil {
						return sharing.Bundle{}, err
					}
					view := pre.view(i+1, r)
					return net.Logits(env.ctxs[i], view, session, xRows[r][i])
				})
				for i := 0; i < sharing.NumParties; i++ {
					wantBundleRowEqual(t, batchOuts[i], r, rowOuts[i], fmt.Sprintf("party %d row %d", i+1, r))
				}
				rowOpen := open(t, rowOuts)
				wantBitEqual(t, matRow(batchOpen, r), rowOpen, fmt.Sprintf("revealed row %d", r))
				for c := 0; c < rowOpen.Cols; c++ {
					bf := env.params.ToFloat(batchOpen.At(r, c))
					sf := env.params.ToFloat(rowOpen.At(0, c))
					if bf != sf {
						t.Fatalf("revealed float row %d col %d: batch %v, sequential %v", r, c, bf, sf)
					}
				}
			}
		})
	}
}

func TestBatchDenseForwardBitIdentical(t *testing.T) {
	env := newSecureEnv(t)
	runEquivGrid(t, env, func(rd *sharing.Dealer, rng *mathrand.Rand) (equivNet, int) {
		return denseEquivNet(t, rd, rng), 17
	})
}

func TestBatchConvForwardBitIdentical(t *testing.T) {
	env := newSecureEnv(t)
	runEquivGrid(t, env, func(rd *sharing.Dealer, rng *mathrand.Rand) (equivNet, int) {
		return convEquivNet(t, rd, rng)
	})
}

// TestBatchForwardByzantineBitIdentical reruns the dense grid on a
// deployment whose party 2 corrupts every pre-commit exchange. The
// batched pass and its sequential replay must stay bit-identical under
// the liar (the equivalence contract holds in every adversary
// setting); against the honest deployment the reveals must agree
// within the truncation-carry slack — the corruption excludes the
// canonical reconstruction pair, and the next honest candidate may
// differ by a carry ulp, so cross-deployment bit-identity is not the
// contract.
func TestBatchForwardByzantineBitIdentical(t *testing.T) {
	honest := newSecureEnv(t)
	byz := newSecureEnv(t)
	byz.ctxs[1].Adversary = liarAdversary{}

	const batch = 3
	logitsOn := func(env *secureEnv) Mat {
		// Identical seeds on both deployments: the dealer streams, and
		// therefore every share, match bit for bit between them.
		rd := sharing.NewDealer(sharing.NewSeededSource(6100), env.params)
		rng := mathrand.New(mathrand.NewPCG(61, 62))
		mk := denseEquivNet(t, rd, rng)
		pre := newSliceDealing(rd, batch)
		x := tensor.MustNew[float64](batch, 17)
		for i := range x.Data {
			x.Data[i] = rng.NormFloat64() * 0.5
		}
		xBatch, xRows := shareMatRows(t, rd, x)
		outs := runSecure(t, env, func(i int) (sharing.Bundle, error) {
			net, err := mk(i)
			if err != nil {
				return sharing.Bundle{}, err
			}
			view := pre.view(i+1, -1)
			return net.Logits(env.ctxs[i], view, "byzeq", xBatch[i])
		})
		got := open(t, outs)
		// Sequential replay under the same adversary: rows must still
		// match the batched reveal bit for bit.
		for r := 0; r < batch; r++ {
			rowOuts := runSecure(t, env, func(i int) (sharing.Bundle, error) {
				net, err := mk(i)
				if err != nil {
					return sharing.Bundle{}, err
				}
				view := pre.view(i+1, r)
				return net.Logits(env.ctxs[i], view, "byzeq", xRows[r][i])
			})
			wantBitEqual(t, matRow(got, r), open(t, rowOuts), fmt.Sprintf("byzantine row %d", r))
		}
		return got
	}
	want := logitsOn(honest)
	gotByz := logitsOn(byz)
	if gotByz.Rows != want.Rows || gotByz.Cols != want.Cols {
		t.Fatalf("byzantine reveal shape %dx%d vs honest %dx%d", gotByz.Rows, gotByz.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		d := gotByz.Data[i] - want.Data[i]
		if d < -2 || d > 2 {
			t.Fatalf("byzantine reveal element %d: %d vs honest %d (|Δ| exceeds the carry slack)",
				i, gotByz.Data[i], want.Data[i])
		}
	}
}

// TestBatchBackwardDecomposition pins the training-step half of the
// equivalence, for both backwards of a training step: the first
// parameterised layer's, which computes only the weight gradient, and
// every later layer's, which also takes dx = dy·Wᵀ under its forward's
// mask. With row-sliced triples the input gradient dx of a batched
// backward pass is bit-identical per row to the sequential replays,
// while the weight gradient — whose matmul contracts over the batch
// dimension — decomposes additively only up to the truncation
// carries: |dW_batch − Σᵣ dWᵣ| ≤ N+4 ulps per element. Strict
// bit-equality of dW is impossible for ANY batching that reorders the
// fixed-point summation (trunc(a)+trunc(b) ≠ trunc(a+b)), which is why
// the batched engine's contract is stated at this level. The dW
// product reads no backward pair, so dW is checked on the first
// layer's pass, whose deal is the triple alone. N+4 is the envelope
// these seeds' share randomness stays inside, not a derived bound: on
// the later layer's pass the pair's draws deal the same product other
// shares, and at batch 32 one element's |Δ| reaches 37 (ROADMAP item
// 9(c)).
func TestBatchBackwardDecomposition(t *testing.T) {
	env := newSecureEnv(t)
	for _, batch := range equivBatches {
		t.Run(fmt.Sprintf("batch%d", batch), func(t *testing.T) {
			rd := sharing.NewDealer(sharing.NewSeededSource(uint64(7000+batch)), env.params)
			rng := mathrand.New(mathrand.NewPCG(uint64(batch), 7))
			w := tensor.MustNew[float64](17, 4)
			for i := range w.Data {
				w.Data[i] = rng.NormFloat64() * 0.4
			}
			bw, err := rd.ShareFloats(w)
			if err != nil {
				t.Fatal(err)
			}
			pre := newSliceDealing(rd, batch)
			x := tensor.MustNew[float64](batch, 17)
			dy := tensor.MustNew[float64](batch, 4)
			for i := range x.Data {
				x.Data[i] = rng.NormFloat64() * 0.5
			}
			for i := range dy.Data {
				dy.Data[i] = rng.NormFloat64() * 0.25
			}
			xBatch, xRows := shareMatRows(t, rd, x)
			dyBatch, dyRows := shareMatRows(t, rd, dy)

			type bwOut struct{ dx, dW sharing.Bundle }
			// step runs a forward of pass p and its backward over the
			// batch (row < 0) or the replay of row.
			step := func(p pass, session string, row int, x, dy [sharing.NumParties]sharing.Bundle) [sharing.NumParties]bwOut {
				return runSecure(t, env, func(i int) (bwOut, error) {
					d, err := NewSecureDense(bw[i])
					if err != nil {
						return bwOut{}, err
					}
					view := pre.view(i+1, row)
					if _, err := d.forward(env.ctxs[i], view, session+"/f", x[i], p); err != nil {
						return bwOut{}, err
					}
					dx, err := d.Backward(env.ctxs[i], view, session+"/b", dy[i])
					if err != nil {
						return bwOut{}, err
					}
					return bwOut{dx: dx, dW: d.dW}, nil
				})
			}

			// The first layer's backward: dW only.
			session := fmt.Sprintf("bw%d", batch)
			batchOuts := step(training, session, -1, xBatch, dyBatch)
			var dWs [sharing.NumParties]sharing.Bundle
			for i := 0; i < sharing.NumParties; i++ {
				if !batchOuts[i].dx.Primary.IsZeroShape() {
					t.Fatalf("party %d: the first layer's backward returned an input gradient", i+1)
				}
				dWs[i] = batchOuts[i].dW
			}
			dWBatch := open(t, dWs)
			dWSum := tensor.MustNew[int64](17, 4)
			for r := 0; r < batch; r++ {
				rowOuts := step(training, session, r, xRows[r], dyRows[r])
				var rdW [sharing.NumParties]sharing.Bundle
				for i := 0; i < sharing.NumParties; i++ {
					rdW[i] = rowOuts[i].dW
				}
				rowW := open(t, rdW)
				for i := range dWSum.Data {
					dWSum.Data[i] += rowW.Data[i]
				}
			}
			bound := int64(batch) + 4
			for i := range dWSum.Data {
				d := dWBatch.Data[i] - dWSum.Data[i]
				if d < 0 {
					d = -d
				}
				if d > bound {
					t.Fatalf("dW element %d: batch %d vs per-row sum %d (|Δ|=%d exceeds the %d-ulp carry envelope)",
						i, dWBatch.Data[i], dWSum.Data[i], d, bound)
				}
			}

			// A later layer's backward: dx under the forward's mask.
			session += "/dx"
			batchOuts = step(trainingInputGrad, session, -1, xBatch, dyBatch)
			var dxs [sharing.NumParties]sharing.Bundle
			for i := 0; i < sharing.NumParties; i++ {
				dxs[i] = batchOuts[i].dx
			}
			dxBatch := open(t, dxs)
			for r := 0; r < batch; r++ {
				rowOuts := step(trainingInputGrad, session, r, xRows[r], dyRows[r])
				var rdx [sharing.NumParties]sharing.Bundle
				for i := 0; i < sharing.NumParties; i++ {
					rdx[i] = rowOuts[i].dx
					wantBundleRowEqual(t, batchOuts[i].dx, r, rowOuts[i].dx, fmt.Sprintf("party %d dx row %d", i+1, r))
				}
				wantBitEqual(t, matRow(dxBatch, r), open(t, rdx), fmt.Sprintf("revealed dx row %d", r))
			}
		})
	}
}
