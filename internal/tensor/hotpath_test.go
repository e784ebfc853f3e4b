package tensor

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

func randRing(t *testing.T, rng *rand.Rand, rows, cols int) Matrix[int64] {
	t.Helper()
	m := MustNew[int64](rows, cols)
	for i := range m.Data {
		switch rng.Intn(4) {
		case 0:
			m.Data[i] = 0 // exercise the a==0 skip path
		default:
			m.Data[i] = rng.Int63() - rng.Int63()
		}
	}
	return m
}

func randFloat(t *testing.T, rng *rand.Rand, rows, cols int) Matrix[float64] {
	t.Helper()
	m := MustNew[float64](rows, cols)
	for i := range m.Data {
		if rng.Intn(4) == 0 {
			m.Data[i] = 0
		} else {
			m.Data[i] = rng.NormFloat64()
		}
	}
	return m
}

// MatMulInto must be bit-identical to MatMul and overwrite stale
// contents of the destination.
func TestMatMulIntoEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, sh := range [][3]int{{1, 1, 1}, {3, 5, 4}, {17, 25, 5}, {196, 25, 5}, {64, 64, 64}} {
		a := randRing(t, rng, sh[0], sh[1])
		b := randRing(t, rng, sh[1], sh[2])
		want, err := a.MatMul(b)
		if err != nil {
			t.Fatal(err)
		}
		out := MustNew[int64](sh[0], sh[2])
		out.Fill(-1) // stale garbage the Into path must overwrite
		if err := a.MatMulInto(b, out); err != nil {
			t.Fatal(err)
		}
		if !out.Equal(want) {
			t.Fatalf("MatMulInto %v differs from MatMul", sh)
		}

		af := randFloat(t, rng, sh[0], sh[1])
		bf := randFloat(t, rng, sh[1], sh[2])
		wantF, _ := af.MatMul(bf)
		outF := MustNew[float64](sh[0], sh[2])
		if err := af.MatMulInto(bf, outF); err != nil {
			t.Fatal(err)
		}
		if !outF.Equal(wantF) {
			t.Fatalf("float MatMulInto %v differs from MatMul", sh)
		}
	}
}

func TestMatMulIntoShapeErrors(t *testing.T) {
	a := MustNew[int64](2, 3)
	b := MustNew[int64](3, 4)
	if err := a.MatMulInto(b, MustNew[int64](2, 3)); err == nil {
		t.Fatal("wrong out shape: want error")
	}
	if err := a.MatMulInto(MustNew[int64](4, 2), MustNew[int64](2, 2)); err == nil {
		t.Fatal("inner mismatch: want error")
	}
}

func TestTransposeIntoEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, sh := range [][2]int{{1, 1}, {3, 7}, {25, 5}, {196, 25}} {
		m := randRing(t, rng, sh[0], sh[1])
		want := m.Transpose()
		out := MustNew[int64](sh[1], sh[0])
		out.Fill(42)
		if err := m.TransposeInto(out); err != nil {
			t.Fatal(err)
		}
		if !out.Equal(want) {
			t.Fatalf("TransposeInto %v differs from Transpose", sh)
		}
	}
	if err := MustNew[int64](2, 3).TransposeInto(MustNew[int64](2, 3)); err == nil {
		t.Fatal("wrong transpose shape: want error")
	}
}

func TestMapInplaceMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := randRing(t, rng, 33, 17)
	f := func(v int64) int64 { return v >> 13 }
	want := m.Map(f)
	m.MapInplace(f)
	if !m.Equal(want) {
		t.Fatal("MapInplace differs from Map")
	}
}

// The fused conv kernel must be bit-identical to Im2ColBatch + MatMul
// in both element domains, across padding/stride/channel/batch shapes.
func TestConv2DBatchEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	shapes := []struct {
		c     ConvShape
		batch int
		outCh int
	}{
		{paperConv(), 1, 5},
		{paperConv(), 4, 5},
		{ConvShape{InChannels: 2, Height: 5, Width: 4, Kernel: 3, Stride: 2, Pad: 1}, 3, 7},
		{ConvShape{InChannels: 1, Height: 3, Width: 3, Kernel: 2, Stride: 1}, 2, 1},
		{ConvShape{InChannels: 3, Height: 8, Width: 8, Kernel: 3, Stride: 1, Pad: 2}, 2, 4},
	}
	for _, sh := range shapes {
		inLen := sh.c.InChannels * sh.c.Height * sh.c.Width
		x := randRing(t, rng, sh.batch, inLen)
		w := randRing(t, rng, sh.c.PatchSize(), sh.outCh)

		cols, err := Im2ColBatch(sh.c, x)
		if err != nil {
			t.Fatal(err)
		}
		want, err := cols.MatMul(w)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Conv2DBatch(sh.c, x, w)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("fused conv differs from im2col+matmul at %+v", sh)
		}

		xf := randFloat(t, rng, sh.batch, inLen)
		wf := randFloat(t, rng, sh.c.PatchSize(), sh.outCh)
		colsF, _ := Im2ColBatch(sh.c, xf)
		wantF, _ := colsF.MatMul(wf)
		gotF, err := Conv2DBatch(sh.c, xf, wf)
		if err != nil {
			t.Fatal(err)
		}
		if !gotF.Equal(wantF) {
			t.Fatalf("float fused conv differs from im2col+matmul at %+v", sh)
		}
	}
}

func TestConv2DBatchSerialParallelIdentical(t *testing.T) {
	// The fused kernel partitions by output row; serial and fanned-out
	// runs must agree bit-for-bit (same guarantee MatMul gives).
	rng := rand.New(rand.NewSource(11))
	c := paperConv()
	x := randFloat(t, rng, 8, c.InChannels*c.Height*c.Width)
	w := randFloat(t, rng, c.PatchSize(), 5)

	withFanOut(t, 4, 1)
	par, err := Conv2DBatch(c, x, w)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GOMAXPROCS(1)
	serial, err := Conv2DBatch(c, x, w)
	if err != nil {
		t.Fatal(err)
	}
	if !par.Equal(serial) {
		t.Fatal("fused conv parallel result differs from serial")
	}
}

func TestConv2DBatchErrors(t *testing.T) {
	c := paperConv()
	w := MustNew[int64](c.PatchSize(), 5)
	if _, err := Conv2DBatch(c, MustNew[int64](1, 100), w); err == nil {
		t.Fatal("wrong image width: want error")
	}
	if _, err := Conv2DBatch(c, MustNew[int64](1, 784), MustNew[int64](24, 5)); err == nil {
		t.Fatal("wrong kernel rows: want error")
	}
	x := MustNew[int64](1, 784)
	if err := Conv2DBatchInto(c, x, w, MustNew[int64](195, 5)); err == nil {
		t.Fatal("wrong out shape: want error")
	}
	bad := ConvShape{InChannels: 1, Height: 2, Width: 2, Kernel: 5, Stride: 1}
	if _, err := Conv2DBatch(bad, x, w); err == nil {
		t.Fatal("invalid shape: want error")
	}
}

// A matrix obtained from the pool must arrive zeroed even when its
// previous owner left garbage behind.
func TestPoolRecycledMatrixIsZero(t *testing.T) {
	m := GetMatrix(9, 11)
	m.Fill(-7)
	data := &m.Data[0]
	PutMatrix(m)
	n := GetMatrix(9, 11)
	defer PutMatrix(n)
	for i, v := range n.Data {
		if v != 0 {
			t.Fatalf("recycled matrix not zeroed at %d: %d", i, v)
		}
	}
	if &n.Data[0] != data {
		t.Log("pool did not recycle the buffer (GC or scheduling); zeroing still verified")
	}
}

// Concurrent goroutines hammer Get/Put; each writes a goroutine-unique
// sentinel and verifies it before returning the buffer. Any pool bug
// that hands one live buffer to two owners is a data race (run under
// -race in CI) and a sentinel mismatch here.
func TestPoolConcurrentReuseNoAliasing(t *testing.T) {
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(id int64) {
			defer wg.Done()
			for iter := 0; iter < 200; iter++ {
				m := GetMatrix(31, 17)
				want := id*1000 + int64(iter)
				m.Fill(want)
				for i := range m.Data {
					if m.Data[i] != want {
						errs <- "pooled buffer mutated by another owner"
						return
					}
				}
				PutMatrix(m)
			}
		}(int64(g))
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}
}

func TestPoolEdgeSizes(t *testing.T) {
	if got := GetSlice(0); got != nil {
		t.Fatal("GetSlice(0) should be nil")
	}
	PutSlice(nil) // must not panic
	// Below the min class: plain allocation, Put dropped.
	s := GetSlice(3)
	if len(s) != 3 {
		t.Fatalf("GetSlice(3) len %d", len(s))
	}
	PutSlice(s)
	// Non-power-of-two capacity rounds down to the class it can fill.
	big := GetSlice(100)
	PutSlice(big)
	again := GetSlice(60)
	if len(again) != 60 {
		t.Fatalf("GetSlice(60) len %d", len(again))
	}
	PutSlice(again)
	gets, puts, misses := PoolStats()
	if gets < 0 || puts <= 0 || misses <= 0 {
		t.Fatalf("implausible pool stats gets=%d puts=%d misses=%d", gets, puts, misses)
	}
}

// The pooled kernels must be allocation-free in the steady state. The
// parallel fan-out allocates goroutine state, so the pin holds with
// GOMAXPROCS=1 — the partitioning, not the kernels, owns that cost.
func TestHotPathAllocFree(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	c := paperConv()
	rng := rand.New(rand.NewSource(12))
	a := randRing(t, rng, 196, 25)
	b := randRing(t, rng, 25, 5)
	out := MustNew[int64](196, 5)
	x := randRing(t, rng, 2, 784)
	w := randRing(t, rng, 25, 5)
	fused := MustNew[int64](2*196, 5)
	tr := MustNew[int64](25, 196)

	checks := []struct {
		name string
		f    func()
	}{
		{"MatMulInto", func() { _ = a.MatMulInto(b, out) }},
		{"TransposeInto", func() { _ = a.TransposeInto(tr) }},
		{"MapInplace", func() { out.MapInplace(func(v int64) int64 { return v >> 1 }) }},
		{"Conv2DBatchInto", func() { _ = Conv2DBatchInto(c, x, w, fused) }},
		{"GetPutMatrix", func() { PutMatrix(GetMatrix(196, 25)) }},
	}
	for _, chk := range checks {
		chk.f() // warm the pool and any lazy state
		if allocs := testing.AllocsPerRun(100, chk.f); allocs > 0 {
			t.Errorf("%s allocates %.1f per op in steady state, want 0", chk.name, allocs)
		}
	}
}
