package tensor

import (
	"runtime"
	"testing"
)

// Steady-state benchmarks for the pooled hot-path kernels. Serial mode
// (GOMAXPROCS=1) keeps the allocation counters deterministic (worker goroutines and
// their closures would otherwise show up); CI gates on the reported
// allocs/op staying at the pinned budget of zero.

func benchSerialPooled(b *testing.B, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f()
	}
}

func BenchmarkMatMulIntoSerial(b *testing.B) {
	m := MustNew[int64](196, 25)
	o := MustNew[int64](25, 5)
	out := MustNew[int64](196, 5)
	for i := range m.Data {
		m.Data[i] = int64(i%7) - 3
	}
	for i := range o.Data {
		o.Data[i] = int64(i%5) - 2
	}
	benchSerialPooled(b, func() {
		if err := m.MatMulInto(o, out); err != nil {
			b.Fatal(err)
		}
	})
}

func BenchmarkConv2DBatchIntoSerial(b *testing.B) {
	shape := ConvShape{InChannels: 1, Height: 28, Width: 28, Kernel: 5, Stride: 2, Pad: 2}
	x := MustNew[int64](4, shape.InChannels*shape.Height*shape.Width)
	w := MustNew[int64](shape.PatchSize(), 5)
	out := MustNew[int64](4*shape.OutHeight()*shape.OutWidth(), 5)
	for i := range x.Data {
		x.Data[i] = int64(i%11) - 5
	}
	for i := range w.Data {
		w.Data[i] = int64(i%3) - 1
	}
	benchSerialPooled(b, func() {
		if err := Conv2DBatchInto(shape, x, w, out); err != nil {
			b.Fatal(err)
		}
	})
}

func BenchmarkGetPutMatrixSerial(b *testing.B) {
	benchSerialPooled(b, func() {
		m := GetMatrix(196, 25)
		PutMatrix(m)
	})
}
