package transport

import (
	"testing"

	"github.com/trustddl/trustddl/internal/tensor"
)

// benchCodec measures one encode+decode round trip of an
// activation-sized matrix body.
func benchCodec(b *testing.B, roundTrip func(buf []byte, m tensor.Matrix[int64]) []byte) {
	m := tensor.MustNew[int64](4, 980)
	for i := range m.Data {
		m.Data[i] = int64(uint64(i) * 0x9e3779b97f4a7c15)
	}
	buf := make([]byte, 0, 8*len(m.Data)+8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = roundTrip(buf[:0], m)
	}
}

func BenchmarkWireCodecPortable(b *testing.B) {
	benchCodec(b, func(buf []byte, m tensor.Matrix[int64]) []byte {
		buf = appendInt64sPortable(buf, m.Data)
		decodeInt64sPortable(make([]int64, len(m.Data)), buf)
		return buf
	})
}

func BenchmarkWireCodecBulk(b *testing.B) {
	if !hostLittleEndian {
		b.Skip("host is big-endian; bulk codec unavailable")
	}
	benchCodec(b, func(buf []byte, m tensor.Matrix[int64]) []byte {
		buf = AppendMatrix(buf, m)
		if _, _, err := DecodeMatrix(buf); err != nil {
			b.Fatal(err)
		}
		return buf
	})
}

type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// BenchmarkWriteFramePooled measures the framed write path every
// protocol message pays.
func BenchmarkWriteFramePooled(b *testing.B) {
	payload := make([]byte, 8*4*980)
	w := discardWriter{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := writeFrame(w, Message{From: 1, To: 2, Payload: payload}); err != nil {
			b.Fatal(err)
		}
	}
}
