package tensor

import (
	"fmt"
	mathrand "math/rand/v2"
	"runtime"
	"testing"
)

// procsLevels parameterizes every benchmark below by GOMAXPROCS (the
// kernels' worker count) so the output shows the scaling trajectory.
// NumCPU is deduplicated when it collides with 1 or 2.
func procsLevels() []int {
	levels := []int{1, 2}
	if n := runtime.NumCPU(); n != 1 && n != 2 {
		levels = append(levels, n)
	}
	return levels
}

func benchWithProcs(b *testing.B, p int, fn func(b *testing.B)) {
	b.Run(fmt.Sprintf("gomaxprocs=%d", p), func(b *testing.B) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(p))
		fn(b)
	})
}

func benchMatMul(b *testing.B, m, n, p int) {
	rng := mathrand.New(mathrand.NewPCG(uint64(m), uint64(n)))
	a := randMat[int64](rng, m, n)
	c := randMat[int64](rng, n, p)
	for _, workers := range procsLevels() {
		benchWithProcs(b, workers, func(b *testing.B) {
			b.SetBytes(int64(8 * (m*n + n*p)))
			for i := 0; i < b.N; i++ {
				if _, err := a.MatMul(c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMatMul256 is the acceptance shape: 256×256 · 256×256.
func BenchmarkMatMul256(b *testing.B) { benchMatMul(b, 256, 256, 256) }

// BenchmarkMatMulPaperFC is the Table I fully-connected shape at batch
// 128: (128×784) · (784×128).
func BenchmarkMatMulPaperFC(b *testing.B) { benchMatMul(b, 128, 784, 128) }

// BenchmarkMatMulConvLowered is the Table I conv layer after im2col:
// (196×25) · (25×5) per image, run at batch granularity (196·64 rows).
func BenchmarkMatMulConvLowered(b *testing.B) { benchMatMul(b, 196*64, 25, 5) }

// BenchmarkIm2ColMNIST lowers a 64-image MNIST batch through the
// paper's conv geometry (5×5, stride 2, pad 2 over 1×28×28).
func BenchmarkIm2ColMNIST(b *testing.B) {
	shape := ConvShape{InChannels: 1, Height: 28, Width: 28, Kernel: 5, Stride: 2, Pad: 2}
	const batch = 64
	rng := mathrand.New(mathrand.NewPCG(11, 13))
	x := randMat[int64](rng, batch, shape.InChannels*shape.Height*shape.Width)
	for _, workers := range procsLevels() {
		benchWithProcs(b, workers, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Im2ColBatch(shape, x); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCol2ImMNIST folds the corresponding patch gradient back.
func BenchmarkCol2ImMNIST(b *testing.B) {
	shape := ConvShape{InChannels: 1, Height: 28, Width: 28, Kernel: 5, Stride: 2, Pad: 2}
	const batch = 64
	positions := shape.OutHeight() * shape.OutWidth()
	rng := mathrand.New(mathrand.NewPCG(11, 13))
	cols := randMat[int64](rng, batch*positions, shape.PatchSize())
	for _, workers := range procsLevels() {
		benchWithProcs(b, workers, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Col2ImBatch(shape, cols, batch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHadamard512 measures the element-wise path on shares-sized
// operands (512×512).
func BenchmarkHadamard512(b *testing.B) {
	rng := mathrand.New(mathrand.NewPCG(5, 7))
	x := randMat[int64](rng, 512, 512)
	y := randMat[int64](rng, 512, 512)
	for _, workers := range procsLevels() {
		benchWithProcs(b, workers, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := x.Hadamard(y); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestMatMulParallelSpeedup asserts the acceptance criterion: on hosts
// with ≥ 4 CPUs, 256×256 MatMul at GOMAXPROCS=NumCPU is at least 2×
// faster than GOMAXPROCS=1. Skipped on smaller machines where the
// criterion is vacuous (and in -short runs, since it times real work).
func TestMatMulParallelSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test skipped in -short mode")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("NumCPU=%d < 4: speedup criterion does not apply", runtime.NumCPU())
	}
	rng := mathrand.New(mathrand.NewPCG(3, 9))
	a := randMat[int64](rng, 256, 256)
	c := randMat[int64](rng, 256, 256)
	timeIt := func(p int) float64 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(p))
		const reps = 20
		res := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for r := 0; r < reps; r++ {
					if _, err := a.MatMul(c); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		return float64(res.NsPerOp())
	}
	serial := timeIt(1)
	parallel := timeIt(runtime.NumCPU())
	if speedup := serial / parallel; speedup < 2 {
		t.Fatalf("256×256 MatMul speedup %.2fx at GOMAXPROCS=%d, want ≥ 2x", speedup, runtime.NumCPU())
	}
}
