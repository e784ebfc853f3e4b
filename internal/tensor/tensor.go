// Package tensor provides the dense matrix arithmetic that underlies
// both the plaintext (float64) and the secret-shared (int64 ring)
// execution engines of TrustDDL.
//
// The paper defines every protocol over the ring of real matrices
// ℝ^{m×n} (§II). The secure engines instantiate the same operations over
// the 64-bit fixed-point ring (package fixed), so the matrix type is
// generic over both element domains. All operations allocate their
// result unless the name says otherwise; shapes are validated and
// mismatches reported as errors, never panics.
package tensor

import (
	"fmt"
	"math"
	"slices"
)

// Element is the set of element domains matrices are defined over:
// the two's-complement fixed-point ring (int64) used by the secure
// engines and float64 used by the plaintext baseline.
type Element interface {
	~int64 | ~float64
}

// Matrix is a dense row-major matrix.
type Matrix[T Element] struct {
	Rows int
	Cols int
	Data []T // len == Rows*Cols, row-major
}

// New returns a zero matrix of the given shape.
func New[T Element](rows, cols int) (Matrix[T], error) {
	if rows <= 0 || cols <= 0 {
		return Matrix[T]{}, fmt.Errorf("tensor: invalid shape %dx%d", rows, cols)
	}
	return Matrix[T]{Rows: rows, Cols: cols, Data: make([]T, rows*cols)}, nil
}

// MustNew is New for shapes known correct at the call site (tests,
// constant-shaped layers). It panics on an invalid shape.
func MustNew[T Element](rows, cols int) Matrix[T] {
	m, err := New[T](rows, cols)
	if err != nil {
		panic(err)
	}
	return m
}

// FromSlice wraps data (copied) into a rows×cols matrix.
func FromSlice[T Element](rows, cols int, data []T) (Matrix[T], error) {
	if rows <= 0 || cols <= 0 || len(data) != rows*cols {
		return Matrix[T]{}, fmt.Errorf("tensor: %d elements do not fill %dx%d", len(data), rows, cols)
	}
	m := Matrix[T]{Rows: rows, Cols: cols, Data: make([]T, len(data))}
	copy(m.Data, data)
	return m, nil
}

// IsZeroShape reports whether m is the zero value (no allocation).
func (m Matrix[T]) IsZeroShape() bool {
	return m.Rows == 0 && m.Cols == 0
}

// SameShape reports whether m and o have identical dimensions.
func (m Matrix[T]) SameShape(o Matrix[T]) bool {
	return m.Rows == o.Rows && m.Cols == o.Cols
}

// Size returns the number of elements.
func (m Matrix[T]) Size() int { return m.Rows * m.Cols }

// At returns the element at (r, c).
func (m Matrix[T]) At(r, c int) T { return m.Data[r*m.Cols+c] }

// Set writes the element at (r, c).
func (m Matrix[T]) Set(r, c int, v T) { m.Data[r*m.Cols+c] = v }

// Clone returns a deep copy. slices.Clone allocates without zeroing
// the storage the copy then overwrites.
func (m Matrix[T]) Clone() Matrix[T] {
	return Matrix[T]{Rows: m.Rows, Cols: m.Cols, Data: slices.Clone(m.Data)}
}

// Add returns m + o.
func (m Matrix[T]) Add(o Matrix[T]) (Matrix[T], error) {
	if !m.SameShape(o) {
		return Matrix[T]{}, shapeErr("add", m, o)
	}
	out := m.Clone()
	parallelFor(len(out.Data), len(out.Data), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out.Data[i] += o.Data[i]
		}
	})
	return out, nil
}

// Sub returns m - o.
func (m Matrix[T]) Sub(o Matrix[T]) (Matrix[T], error) {
	if !m.SameShape(o) {
		return Matrix[T]{}, shapeErr("sub", m, o)
	}
	out := m.Clone()
	parallelFor(len(out.Data), len(out.Data), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out.Data[i] -= o.Data[i]
		}
	})
	return out, nil
}

// AddInPlace accumulates o into m.
func (m Matrix[T]) AddInPlace(o Matrix[T]) error {
	if !m.SameShape(o) {
		return shapeErr("add", m, o)
	}
	parallelFor(len(m.Data), len(m.Data), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			m.Data[i] += o.Data[i]
		}
	})
	return nil
}

// SubInPlace subtracts o from m.
func (m Matrix[T]) SubInPlace(o Matrix[T]) error {
	if !m.SameShape(o) {
		return shapeErr("sub", m, o)
	}
	parallelFor(len(m.Data), len(m.Data), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			m.Data[i] -= o.Data[i]
		}
	})
	return nil
}

// Scale returns k·m for a constant k (ASS supports this locally, §II).
func (m Matrix[T]) Scale(k T) Matrix[T] {
	out := m.Clone()
	parallelFor(len(out.Data), len(out.Data), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out.Data[i] *= k
		}
	})
	return out
}

// Neg returns -m.
func (m Matrix[T]) Neg() Matrix[T] {
	out := m.Clone()
	parallelFor(len(out.Data), len(out.Data), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out.Data[i] = -out.Data[i]
		}
	})
	return out
}

// Hadamard returns the element-wise product m ⊙ o (the "·" operator of
// Algorithm 2). Ring elements carry doubled fixed-point scale until
// truncated by the caller.
func (m Matrix[T]) Hadamard(o Matrix[T]) (Matrix[T], error) {
	if !m.SameShape(o) {
		return Matrix[T]{}, shapeErr("hadamard", m, o)
	}
	out := m.Clone()
	parallelFor(len(out.Data), len(out.Data), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out.Data[i] *= o.Data[i]
		}
	})
	return out, nil
}

// HadamardInto computes m ⊙ o into the preallocated out (same shape as
// both operands, prior contents overwritten). Bit-identical to
// Hadamard; out may alias m or o.
func (m Matrix[T]) HadamardInto(o, out Matrix[T]) error {
	if !m.SameShape(o) {
		return shapeErr("hadamard", m, o)
	}
	if !m.SameShape(out) || len(out.Data) != len(m.Data) {
		return shapeErr("hadamard into", out, m)
	}
	n := len(m.Data)
	if serialFor(n, n) {
		for i := 0; i < n; i++ {
			out.Data[i] = m.Data[i] * o.Data[i]
		}
		return nil
	}
	parallelFor(n, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out.Data[i] = m.Data[i] * o.Data[i]
		}
	})
	return nil
}

// MatMul returns the matrix product m × o (the "×" operator of
// SecMatMul). Ring elements carry doubled fixed-point scale until
// truncated by the caller.
func (m Matrix[T]) MatMul(o Matrix[T]) (Matrix[T], error) {
	if m.Cols != o.Rows {
		return Matrix[T]{}, fmt.Errorf("tensor: matmul %dx%d × %dx%d: inner dimensions differ", m.Rows, m.Cols, o.Rows, o.Cols)
	}
	out := Matrix[T]{Rows: m.Rows, Cols: o.Cols, Data: make([]T, m.Rows*o.Cols)}
	m.matMulInto(o, out)
	return out, nil
}

// MatMulInto computes m × o into the preallocated out, which must have
// shape m.Rows × o.Cols (its prior contents are overwritten). The
// accumulation order — and therefore the result — is bit-identical to
// MatMul; the only difference is that out's storage is reused, so the
// steady-state loop allocates nothing.
func (m Matrix[T]) MatMulInto(o, out Matrix[T]) error {
	if m.Cols != o.Rows {
		return fmt.Errorf("tensor: matmul %dx%d × %dx%d: inner dimensions differ", m.Rows, m.Cols, o.Rows, o.Cols)
	}
	if out.Rows != m.Rows || out.Cols != o.Cols || len(out.Data) != m.Rows*o.Cols {
		return fmt.Errorf("tensor: matmul into %dx%d, want %dx%d", out.Rows, out.Cols, m.Rows, o.Cols)
	}
	m.matMulInto(o, out)
	return nil
}

func (m Matrix[T]) matMulInto(o, out Matrix[T]) {
	// Partition by output row: each goroutine owns rows [lo, hi) of the
	// result and runs the full k-reduction for them, so per-element
	// accumulation order is identical to the serial loop.
	ops := m.Rows * m.Cols * o.Cols
	if serialFor(m.Rows, ops) {
		matMulRows(m, o, out, 0, m.Rows)
		return
	}
	parallelFor(m.Rows, ops, func(lo, hi int) {
		matMulRows(m, o, out, lo, hi)
	})
}

func matMulRows[T Element](m, o, out Matrix[T], lo, hi int) {
	for i := lo; i < hi; i++ {
		mRow := m.Data[i*m.Cols : (i+1)*m.Cols]
		outRow := out.Data[i*o.Cols : (i+1)*o.Cols]
		for j := range outRow {
			outRow[j] = 0
		}
		for k, a := range mRow {
			if a == 0 {
				continue
			}
			oRow := o.Data[k*o.Cols : (k+1)*o.Cols]
			for j, b := range oRow {
				outRow[j] += a * b
			}
		}
	}
}

// Transpose returns mᵀ.
func (m Matrix[T]) Transpose() Matrix[T] {
	out := Matrix[T]{Rows: m.Cols, Cols: m.Rows, Data: make([]T, len(m.Data))}
	m.transposeInto(out)
	return out
}

// TransposeInto writes mᵀ into the preallocated out, which must have
// shape m.Cols × m.Rows. out must not alias m's storage (a transpose
// cannot be computed in place over a shared buffer).
func (m Matrix[T]) TransposeInto(out Matrix[T]) error {
	if out.Rows != m.Cols || out.Cols != m.Rows || len(out.Data) != len(m.Data) {
		return fmt.Errorf("tensor: transpose into %dx%d, want %dx%d", out.Rows, out.Cols, m.Cols, m.Rows)
	}
	m.transposeInto(out)
	return nil
}

func (m Matrix[T]) transposeInto(out Matrix[T]) {
	if serialFor(m.Rows, len(m.Data)) {
		transposeRows(m, out, 0, m.Rows)
		return
	}
	parallelFor(m.Rows, len(m.Data), func(lo, hi int) {
		transposeRows(m, out, lo, hi)
	})
}

func transposeRows[T Element](m, out Matrix[T], lo, hi int) {
	for r := lo; r < hi; r++ {
		for c := 0; c < m.Cols; c++ {
			out.Data[c*m.Rows+r] = m.Data[r*m.Cols+c]
		}
	}
}

// Reshape returns a rows×cols view over m's storage (a "local
// transformation", §III-C: relabeling the row-major layout moves no
// data). The view aliases m — writes through either are visible in
// both — so callers that need an independent copy must Clone first.
// Every in-tree caller feeds the view into operations that allocate
// their results, never into in-place mutation of a retained operand.
func (m Matrix[T]) Reshape(rows, cols int) (Matrix[T], error) {
	if rows <= 0 || cols <= 0 || rows*cols != len(m.Data) {
		return Matrix[T]{}, fmt.Errorf("tensor: cannot reshape %dx%d to %dx%d", m.Rows, m.Cols, rows, cols)
	}
	return Matrix[T]{Rows: rows, Cols: cols, Data: m.Data}, nil
}

// Map returns a new matrix with f applied element-wise. On matrices
// large enough to fan out, f is called concurrently from multiple
// goroutines and must therefore be pure (every existing caller passes
// a stateless truncation/clamp closure).
func (m Matrix[T]) Map(f func(T) T) Matrix[T] {
	out := m.Clone()
	out.MapInplace(f)
	return out
}

// MapInplace applies f element-wise to m's own storage. Like Map, f
// may be called concurrently and must be pure. Callers own the
// aliasing question: mutating a matrix whose storage is shared (e.g. a
// Reshape view) mutates every view of it.
func (m Matrix[T]) MapInplace(f func(T) T) {
	n := len(m.Data)
	if serialFor(n, n) {
		for i := 0; i < n; i++ {
			m.Data[i] = f(m.Data[i])
		}
		return
	}
	parallelFor(n, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			m.Data[i] = f(m.Data[i])
		}
	})
}

// Fill sets every element to v.
func (m Matrix[T]) Fill(v T) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// Equal reports exact element-wise equality.
func (m Matrix[T]) Equal(o Matrix[T]) bool {
	if !m.SameShape(o) {
		return false
	}
	for i, v := range m.Data {
		if o.Data[i] != v {
			return false
		}
	}
	return true
}

// MaxAbsDiff returns max_i |m_i − o_i| as a float64. It is the distance
// measure dist(·,·) of the Byzantine decision rule (§III-B): two honest
// reconstructions of the same masked value differ by at most the
// truncation slack, while a corrupted reconstruction is far away with
// overwhelming probability.
func (m Matrix[T]) MaxAbsDiff(o Matrix[T]) (float64, error) {
	if !m.SameShape(o) {
		return 0, shapeErr("dist", m, o)
	}
	var worst float64
	for i, v := range m.Data {
		// Subtract in the element domain first: over int64 this is the
		// ring difference (exact even when the operands are near the
		// int64 extremes, where a float64 conversion would round away
		// small deltas), over float64 it is the plain difference.
		d := math.Abs(float64(v - o.Data[i]))
		if d > worst {
			worst = d
		}
	}
	return worst, nil
}

// Sum returns the sum of all elements.
func (m Matrix[T]) Sum() T {
	var s T
	for _, v := range m.Data {
		s += v
	}
	return s
}

func shapeErr[T Element](op string, a, b Matrix[T]) error {
	return fmt.Errorf("tensor: %s shape mismatch %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols)
}

// Gather selects columns by index: out[r][i] = m[r][idx[i]]. It is a
// local linear transformation (a selection matrix), so it commutes
// with additive sharing and may be applied share-wise.
func Gather[T Element](m Matrix[T], idx []int) (Matrix[T], error) {
	if len(idx) == 0 {
		return Matrix[T]{}, fmt.Errorf("tensor: gather with no indices")
	}
	for _, j := range idx {
		if j < 0 || j >= m.Cols {
			return Matrix[T]{}, fmt.Errorf("tensor: gather index %d outside %d columns", j, m.Cols)
		}
	}
	out := Matrix[T]{Rows: m.Rows, Cols: len(idx), Data: make([]T, m.Rows*len(idx))}
	for r := 0; r < m.Rows; r++ {
		src := m.Data[r*m.Cols : (r+1)*m.Cols]
		dst := out.Data[r*len(idx) : (r+1)*len(idx)]
		for i, j := range idx {
			dst[i] = src[j]
		}
	}
	return out, nil
}

// ScatterAdd is the adjoint of Gather: it accumulates m's columns into
// a cols-wide zero matrix at the given indices
// (out[r][idx[i]] += m[r][i]).
func ScatterAdd[T Element](m Matrix[T], idx []int, cols int) (Matrix[T], error) {
	if len(idx) != m.Cols {
		return Matrix[T]{}, fmt.Errorf("tensor: scatter with %d indices for %d columns", len(idx), m.Cols)
	}
	for _, j := range idx {
		if j < 0 || j >= cols {
			return Matrix[T]{}, fmt.Errorf("tensor: scatter index %d outside %d columns", j, cols)
		}
	}
	out := Matrix[T]{Rows: m.Rows, Cols: cols, Data: make([]T, m.Rows*cols)}
	for r := 0; r < m.Rows; r++ {
		src := m.Data[r*m.Cols : (r+1)*m.Cols]
		dst := out.Data[r*cols : (r+1)*cols]
		for i, j := range idx {
			dst[j] += src[i]
		}
	}
	return out, nil
}
