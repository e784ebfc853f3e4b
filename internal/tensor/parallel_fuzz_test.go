package tensor

import (
	mathrand "math/rand/v2"
	"runtime"
	"testing"
)

// FuzzMatMulParallel compares the parallel MatMul against an
// independent triple-loop serial reference over fuzzer-chosen shapes
// and data, in both element domains. The fuzzer drives the shape and a
// PRNG seed rather than raw bytes so every input is a valid matrix
// pair.
func FuzzMatMulParallel(f *testing.F) {
	f.Add(uint8(1), uint8(1), uint8(1), uint64(1))
	f.Add(uint8(7), uint8(13), uint8(5), uint64(2))
	f.Add(uint8(16), uint8(16), uint8(16), uint64(3))
	f.Add(uint8(65), uint8(3), uint8(9), uint64(4))
	f.Fuzz(func(t *testing.T, rows, inner, cols uint8, seed uint64) {
		m := 1 + int(rows)%48
		n := 1 + int(inner)%48
		p := 1 + int(cols)%48
		rng := mathrand.New(mathrand.NewPCG(seed, 99))

		withFanOut(t, equivalenceWorkers, 0)

		ai := randMat[int64](rng, m, n)
		bi := randMat[int64](rng, n, p)
		goti, err := ai.MatMul(bi)
		if err != nil {
			t.Fatal(err)
		}
		if want := tripleLoopMatMul(ai, bi); !goti.Equal(want) {
			t.Fatalf("int64 %dx%d × %dx%d: parallel MatMul differs from serial reference", m, n, n, p)
		}

		af := randMat[float64](rng, m, n)
		bf := randMat[float64](rng, n, p)
		gotf, err := af.MatMul(bf)
		if err != nil {
			t.Fatal(err)
		}
		// Over float64 the documented contract is bit-identity with the
		// kernel's own serial run (same per-element accumulation order,
		// including the zero-skip), so that is the oracle here.
		runtime.GOMAXPROCS(1)
		wantf, err := af.MatMul(bf)
		if err != nil {
			t.Fatal(err)
		}
		runtime.GOMAXPROCS(equivalenceWorkers)
		if !gotf.Equal(wantf) {
			t.Fatalf("float64 %dx%d × %dx%d: parallel MatMul differs from serial run", m, n, n, p)
		}
	})
}

// FuzzIm2ColParallel fuzzes the convolution lowering pair: parallel
// Im2Col against a serial run, and the gather Col2Im against the
// textbook scatter reference, over fuzzer-chosen conv geometry.
func FuzzIm2ColParallel(f *testing.F) {
	f.Add(uint8(1), uint8(6), uint8(6), uint8(3), uint8(2), uint8(1), uint64(1))
	f.Add(uint8(1), uint8(28), uint8(28), uint8(5), uint8(2), uint8(2), uint64(2))
	f.Add(uint8(3), uint8(13), uint8(11), uint8(5), uint8(2), uint8(2), uint64(3))
	f.Add(uint8(2), uint8(9), uint8(9), uint8(4), uint8(3), uint8(0), uint64(4))
	f.Fuzz(func(t *testing.T, ch, h, w, kernel, stride, pad uint8, seed uint64) {
		shape := ConvShape{
			InChannels: 1 + int(ch)%4,
			Height:     1 + int(h)%24,
			Width:      1 + int(w)%24,
			Kernel:     1 + int(kernel)%7,
			Stride:     1 + int(stride)%4,
			Pad:        int(pad) % 4,
		}
		if shape.Validate() != nil {
			t.Skip("unrealizable conv geometry")
		}
		rng := mathrand.New(mathrand.NewPCG(seed, 7))

		withFanOut(t, equivalenceWorkers, 0)

		img := randMat[int64](rng, shape.InChannels, shape.Height*shape.Width)
		gotCols, err := im2col(shape, img)
		if err != nil {
			t.Fatal(err)
		}
		runtime.GOMAXPROCS(1)
		wantCols, err := im2col(shape, img)
		if err != nil {
			t.Fatal(err)
		}
		runtime.GOMAXPROCS(equivalenceWorkers)
		if !gotCols.Equal(wantCols) {
			t.Fatalf("%+v: parallel Im2Col differs from serial run", shape)
		}

		positions := shape.OutHeight() * shape.OutWidth()
		colsI := randMat[int64](rng, positions, shape.PatchSize())
		gotImg, err := col2im(shape, colsI)
		if err != nil {
			t.Fatal(err)
		}
		if want := scatterCol2Im(shape, colsI); !gotImg.Equal(want) {
			t.Fatalf("%+v: gather Col2Im differs from scatter reference", shape)
		}

		colsF := randMat[float64](rng, positions, shape.PatchSize())
		gotImgF, err := col2im(shape, colsF)
		if err != nil {
			t.Fatal(err)
		}
		if want := scatterCol2Im(shape, colsF); !gotImgF.Equal(want) {
			t.Fatalf("%+v: float64 gather Col2Im differs from scatter reference", shape)
		}
	})
}
