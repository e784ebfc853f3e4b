package transport

import (
	"bytes"
	"encoding/binary"
	"testing"

	"github.com/trustddl/trustddl/internal/tensor"
)

// Regression for the DecodeMatrix shape-bound overflow: with the bound
// arithmetic done in the native int width, a 32-bit platform wraps the
// product of two in-range 24-bit dimensions (2^24·2^24 = 2^48 ≡ 0 mod
// 2^32) and the 8·n byte count (8·2^28 = 2^31), letting attacker-chosen
// headers through as tiny or negative sizes. The checks now run in
// int64; these headers must be rejected on every platform.
func TestDecodeMatrixBoundOverflow(t *testing.T) {
	header := func(rows, cols uint32) []byte {
		buf := binary.LittleEndian.AppendUint32(nil, rows)
		return binary.LittleEndian.AppendUint32(buf, cols)
	}
	cases := []struct {
		name       string
		rows, cols uint32
	}{
		// rows*cols = 2^48: wraps to 0 in 32-bit int, passing both the
		// product bound and the (vacuous) body-length check, and the
		// decoder would return a 2^24×2^24 matrix with no storage.
		{"product wraps 32-bit int to zero", 1 << 24, 1 << 24},
		// rows*cols = 2^32 + 2^24 ≡ 2^24 (mod 2^32): wraps to a small
		// positive count, so a 32-bit decoder would hand back a matrix
		// whose labeled shape disagrees with its storage.
		{"product wraps small positive", 1 << 24, 257},
		// Individually out of range.
		{"rows too large", 1<<24 + 1, 1},
		{"cols too large", 1, 1<<24 + 1},
		// High bit set: negative after signed conversion.
		{"rows negative", 0x80000001, 1},
		{"zero dims", 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if m, _, err := DecodeMatrix(header(tc.rows, tc.cols)); err == nil {
				t.Fatalf("accepted implausible shape %dx%d as %dx%d", tc.rows, tc.cols, m.Rows, m.Cols)
			}
		})
	}
}

// The bulk little-endian codec must produce byte-identical encodings
// and decodings to the portable per-element loops.
func TestBulkCodecEquivalence(t *testing.T) {
	if !hostLittleEndian {
		t.Skip("big-endian host: bulk codec unavailable")
	}
	m := tensor.MustNew[int64](7, 13)
	for i := range m.Data {
		m.Data[i] = int64(uint64(i) * 0x9e3779b97f4a7c15)
	}
	bulk := AppendMatrix(nil, m)
	header := append([]byte(nil), bulk[:matrixHeaderLen]...)
	portable := appendInt64sPortable(header, m.Data)
	if !bytes.Equal(bulk, portable) {
		t.Fatal("bulk and portable encodings differ")
	}
	// Decode the bulk bytes with the portable loop and vice versa.
	gotPortable := tensor.MustNew[int64](m.Rows, m.Cols)
	decodeInt64sPortable(gotPortable.Data, bulk[matrixHeaderLen:])
	gotBulk, rest, err := DecodeMatrix(portable)
	if err != nil || len(rest) != 0 {
		t.Fatalf("bulk decode: %v (%d trailing)", err, len(rest))
	}
	if !gotBulk.Equal(m) || !gotPortable.Equal(m) {
		t.Fatal("decoded matrices differ from original")
	}
	// A decoded matrix must own its storage: mutating the wire bytes
	// afterwards must not reach into it.
	before := gotBulk.At(0, 0)
	for i := range portable {
		portable[i] ^= 0xff
	}
	if gotBulk.At(0, 0) != before {
		t.Fatal("decoded matrix aliases the wire buffer")
	}
}

// Frames written and read through the pooled buffers must round-trip
// even as buffers recycle between frames, and Release must be safe to
// call repeatedly and on non-TCP messages.
func TestFramePoolRoundTripAndRelease(t *testing.T) {
	for iter := 0; iter < 50; iter++ {
		payload := bytes.Repeat([]byte{byte(iter)}, 100+iter)
		var wire bytes.Buffer
		in := Message{From: 1, To: 2, Session: "s", Step: "x", Payload: payload}
		if _, err := writeFrame(&wire, in); err != nil {
			t.Fatal(err)
		}
		msg, err := readFrame(bytes.NewReader(wire.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(msg.Payload, payload) {
			t.Fatalf("iter %d: payload corrupted through pooled frame buffers", iter)
		}
		msg.Release()
		if msg.Payload != nil {
			t.Fatal("Release did not clear Payload")
		}
		msg.Release() // second call on the same copy: no-op
	}
	var plain Message
	plain.Release() // non-TCP message: no-op
}
