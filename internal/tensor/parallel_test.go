package tensor

import (
	mathrand "math/rand/v2"
	"runtime"
	"testing"
)

// withFanOut runs the rest of the test at GOMAXPROCS = procs with the
// fan-out threshold at threshold (0: even 1×1 shapes take the parallel
// path), and restores both afterwards. Tests using it must not run in
// parallel with each other: both settings are process-wide.
func withFanOut(t *testing.T, procs, threshold int) {
	t.Helper()
	prevP, prevT := runtime.GOMAXPROCS(procs), parallelThreshold
	parallelThreshold = threshold
	t.Cleanup(func() {
		runtime.GOMAXPROCS(prevP)
		parallelThreshold = prevT
	})
}

// serialVsParallel evaluates f twice — at GOMAXPROCS=1 and at
// GOMAXPROCS=workers with the fan-out threshold forced to zero — and
// returns both results.
func serialVsParallel[R any](t *testing.T, workers int, f func() R) (serial, parallel R) {
	t.Helper()
	prevP, prevT := runtime.GOMAXPROCS(1), parallelThreshold
	defer func() {
		runtime.GOMAXPROCS(prevP)
		parallelThreshold = prevT
	}()
	serial = f()
	runtime.GOMAXPROCS(workers)
	parallelThreshold = 0
	parallel = f()
	return serial, parallel
}

// equivalenceWorkers is the worker count the suite checks against the
// serial reference. 8 does not divide most of the grid's dimensions,
// which is exactly what exercises ragged chunk boundaries.
const equivalenceWorkers = 8

// shapeGrid covers the boundary cases called out in the parallel
// layer's contract: degenerate 1×1 and 1×N/N×1 shapes, primes that
// never divide evenly into chunks, and sizes straddling the chunk
// boundary at 8 workers (ceil division flips chunk size at n, n±1).
var shapeGrid = []struct{ rows, cols int }{
	{1, 1}, {1, 7}, {7, 1}, {1, 64},
	{2, 3}, {3, 5}, {7, 7}, {8, 8}, {9, 9},
	{7, 13}, {13, 17}, {15, 16}, {16, 16}, {17, 16},
	{23, 29}, {31, 8}, {63, 5}, {64, 5}, {65, 5},
}

func fillInt64(rng *mathrand.Rand, m Matrix[int64]) {
	for i := range m.Data {
		m.Data[i] = int64(rng.Uint64())
	}
}

func fillFloat64(rng *mathrand.Rand, m Matrix[float64]) {
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64() * 3
	}
}

func randMat[T Element](rng *mathrand.Rand, rows, cols int) Matrix[T] {
	m := MustNew[T](rows, cols)
	switch d := any(m).(type) {
	case Matrix[int64]:
		fillInt64(rng, d)
	case Matrix[float64]:
		fillFloat64(rng, d)
	}
	return m
}

// checkKernels runs every parallelized kernel over the shape grid for
// one element domain and asserts serial/parallel bit-identity.
func checkKernels[T Element](t *testing.T) {
	rng := mathrand.New(mathrand.NewPCG(41, 43))
	for _, sh := range shapeGrid {
		a := randMat[T](rng, sh.rows, sh.cols)
		b := randMat[T](rng, sh.rows, sh.cols)
		k := randMat[T](rng, 1, 1).Data[0]

		kernels := []struct {
			name string
			f    func() Matrix[T]
		}{
			{"Add", func() Matrix[T] { out, err := a.Add(b); mustOK(t, err); return out }},
			{"Sub", func() Matrix[T] { out, err := a.Sub(b); mustOK(t, err); return out }},
			{"AddInPlace", func() Matrix[T] { out := a.Clone(); mustOK(t, out.AddInPlace(b)); return out }},
			{"SubInPlace", func() Matrix[T] { out := a.Clone(); mustOK(t, out.SubInPlace(b)); return out }},
			{"Scale", func() Matrix[T] { return a.Scale(k) }},
			{"Neg", func() Matrix[T] { return a.Neg() }},
			{"Hadamard", func() Matrix[T] { out, err := a.Hadamard(b); mustOK(t, err); return out }},
			{"Map", func() Matrix[T] { return a.Map(func(v T) T { return v + v }) }},
			{"Transpose", func() Matrix[T] { return a.Transpose() }},
		}
		for _, kn := range kernels {
			serial, parallel := serialVsParallel(t, equivalenceWorkers, kn.f)
			if !serial.Equal(parallel) {
				t.Fatalf("%s %dx%d: parallel result differs from serial", kn.name, sh.rows, sh.cols)
			}
		}

		// MatMul needs a compatible right operand; reuse the grid entry
		// transposed so inner dimensions always match.
		c := randMat[T](rng, sh.cols, sh.rows)
		serial, parallel := serialVsParallel(t, equivalenceWorkers, func() Matrix[T] {
			out, err := a.MatMul(c)
			mustOK(t, err)
			return out
		})
		if !serial.Equal(parallel) {
			t.Fatalf("MatMul %dx%d × %dx%d: parallel result differs from serial", sh.rows, sh.cols, sh.cols, sh.rows)
		}
	}
}

func mustOK(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func TestParallelKernelsMatchSerialInt64(t *testing.T)   { checkKernels[int64](t) }
func TestParallelKernelsMatchSerialFloat64(t *testing.T) { checkKernels[float64](t) }

// convGrid covers 1×1 kernels, the paper's MNIST conv (5×5 s2 p2 over
// 28×28), prime spatial sizes, stride>kernel gaps and zero padding.
var convGrid = []ConvShape{
	{InChannels: 1, Height: 1, Width: 1, Kernel: 1, Stride: 1, Pad: 0},
	{InChannels: 1, Height: 6, Width: 6, Kernel: 3, Stride: 2, Pad: 1},
	{InChannels: 2, Height: 5, Width: 7, Kernel: 3, Stride: 1, Pad: 2},
	{InChannels: 3, Height: 13, Width: 11, Kernel: 5, Stride: 2, Pad: 2},
	{InChannels: 2, Height: 9, Width: 9, Kernel: 4, Stride: 3, Pad: 0},
	{InChannels: 1, Height: 28, Width: 28, Kernel: 5, Stride: 2, Pad: 2},
	{InChannels: 1, Height: 7, Width: 7, Kernel: 7, Stride: 1, Pad: 0},
}

func checkConvKernels[T Element](t *testing.T) {
	rng := mathrand.New(mathrand.NewPCG(17, 19))
	for _, shape := range convGrid {
		img := randMat[T](rng, shape.InChannels, shape.Height*shape.Width)
		positions := shape.OutHeight() * shape.OutWidth()
		cols := randMat[T](rng, positions, shape.PatchSize())
		const batch = 5
		xb := randMat[T](rng, batch, shape.InChannels*shape.Height*shape.Width)
		cb := randMat[T](rng, batch*positions, shape.PatchSize())

		kernels := []struct {
			name string
			f    func() Matrix[T]
		}{
			{"Im2Col", func() Matrix[T] { out, err := im2col(shape, img); mustOK(t, err); return out }},
			{"Col2Im", func() Matrix[T] { out, err := col2im(shape, cols); mustOK(t, err); return out }},
			{"Im2ColBatch", func() Matrix[T] { out, err := Im2ColBatch(shape, xb); mustOK(t, err); return out }},
			{"Col2ImBatch", func() Matrix[T] { out, err := Col2ImBatch(shape, cb, batch); mustOK(t, err); return out }},
		}
		for _, kn := range kernels {
			serial, parallel := serialVsParallel(t, equivalenceWorkers, kn.f)
			if !serial.Equal(parallel) {
				t.Fatalf("%s %+v: parallel result differs from serial", kn.name, shape)
			}
		}

		// The gather formulation must also match the textbook scatter,
		// which is the original serial reference implementation.
		want := scatterCol2Im(shape, cols)
		got, err := col2im(shape, cols)
		mustOK(t, err)
		if !got.Equal(want) {
			t.Fatalf("Col2Im %+v: gather result differs from scatter reference", shape)
		}
	}
}

func TestParallelConvKernelsMatchSerialInt64(t *testing.T)   { checkConvKernels[int64](t) }
func TestParallelConvKernelsMatchSerialFloat64(t *testing.T) { checkConvKernels[float64](t) }

// scatterCol2Im is the textbook scatter-add Col2Im, kept verbatim as
// the independent reference the gather implementation is checked
// against (also the fuzz oracle).
func scatterCol2Im[T Element](c ConvShape, cols Matrix[T]) Matrix[T] {
	outH, outW := c.OutHeight(), c.OutWidth()
	img := MustNew[T](c.InChannels, c.Height*c.Width)
	for oy := 0; oy < outH; oy++ {
		for ox := 0; ox < outW; ox++ {
			row := cols.Data[(oy*outW+ox)*cols.Cols : (oy*outW+ox+1)*cols.Cols]
			idx := 0
			for ch := 0; ch < c.InChannels; ch++ {
				for ky := 0; ky < c.Kernel; ky++ {
					iy := oy*c.Stride + ky - c.Pad
					for kx := 0; kx < c.Kernel; kx++ {
						ix := ox*c.Stride + kx - c.Pad
						if iy >= 0 && iy < c.Height && ix >= 0 && ix < c.Width {
							img.Data[ch*c.Height*c.Width+iy*c.Width+ix] += row[idx]
						}
						idx++
					}
				}
			}
		}
	}
	return img
}

// tripleLoopMatMul is the naive reference the fuzz target compares
// against; it shares no code with the production kernel.
func tripleLoopMatMul[T Element](a, b Matrix[T]) Matrix[T] {
	out := MustNew[T](a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s T
			for k := 0; k < a.Cols; k++ {
				s += a.Data[i*a.Cols+k] * b.Data[k*b.Cols+j]
			}
			out.Data[i*out.Cols+j] = s
		}
	}
	return out
}

// TestWorkersFollowGOMAXPROCS: above the threshold the worker count is
// GOMAXPROCS, and GOMAXPROCS=1 is fully serial.
func TestWorkersFollowGOMAXPROCS(t *testing.T) {
	withFanOut(t, 3, parallelThreshold)
	if got := workersFor(1000, 1<<30); got != 3 {
		t.Fatalf("GOMAXPROCS=3: %d workers, want 3", got)
	}
	runtime.GOMAXPROCS(1)
	if got := workersFor(1000, 1<<30); got != 1 {
		t.Fatalf("GOMAXPROCS=1: %d workers, want 1", got)
	}
}

// TestWorkersForThreshold pins the fan-out policy: below-threshold work
// stays serial no matter GOMAXPROCS, and the worker count never exceeds
// the number of splittable units.
func TestWorkersForThreshold(t *testing.T) {
	const threshold = 1 << 14
	if parallelThreshold != threshold {
		t.Fatalf("fan-out threshold %d, want %d", parallelThreshold, threshold)
	}
	withFanOut(t, 8, threshold)
	if got := workersFor(1000, threshold-1); got != 1 {
		t.Fatalf("below-threshold work fanned out to %d workers", got)
	}
	if got := workersFor(1000, threshold); got != 8 {
		t.Fatalf("at-threshold work used %d workers, want 8", got)
	}
	if got := workersFor(3, 1<<30); got != 3 {
		t.Fatalf("3 units used %d workers, want 3", got)
	}
	if got := workersFor(1, 1<<30); got != 1 {
		t.Fatalf("1 unit used %d workers, want 1", got)
	}
}

// TestParallelForCoversRange checks every index is visited exactly once
// for ragged n/worker combinations.
func TestParallelForCoversRange(t *testing.T) {
	withFanOut(t, 8, 0)
	for _, n := range []int{0, 1, 7, 8, 9, 63, 64, 65, 100} {
		counts := make([]int32, n)
		var total int
		parallelFor(n, 1<<30, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				counts[i]++
			}
		})
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, c)
			}
			total++
		}
		if total != n {
			t.Fatalf("n=%d: covered %d indices", n, total)
		}
	}
}
