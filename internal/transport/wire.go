package transport

import (
	"encoding/binary"
	"fmt"
	"unsafe"

	"github.com/trustddl/trustddl/internal/sharing"
	"github.com/trustddl/trustddl/internal/tensor"
)

// Wire codec for the payloads exchanged by TrustDDL protocols: ring
// matrices, share bundles and commitment digests. The format is
// little-endian with explicit dimensions — no reflection, no external
// dependencies, deterministic byte counts for the communication-cost
// accounting.
//
// On little-endian hosts matrix bodies move as bulk copies: a []int64
// reinterpreted as bytes IS its little-endian wire image, so encode and
// decode move whole matrix bodies with one memmove each. The portable
// per-element loops are the big-endian path and the reference
// TestBulkCodecEquivalence holds the bulk copies to.

const matrixHeaderLen = 8 // two uint32 dimensions

// hostLittleEndian is fixed at process start; the bulk byte-copy paths
// are only byte-order-correct on little-endian hardware.
var hostLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// appendInt64sPortable appends d element by element in little-endian
// order.
func appendInt64sPortable(buf []byte, d []int64) []byte {
	for _, v := range d {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
	return buf
}

// decodeInt64sPortable fills dst element by element from the
// little-endian bytes in src, which must hold at least 8*len(dst).
func decodeInt64sPortable(dst []int64, src []byte) {
	for i := range dst {
		dst[i] = int64(binary.LittleEndian.Uint64(src[8*i:]))
	}
}

// int64Bytes reinterprets d as its in-memory byte image. Caller must
// have checked hostLittleEndian before treating it as wire format.
func int64Bytes(d []int64) []byte {
	if len(d) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&d[0])), 8*len(d))
}

// AppendMatrix serializes m onto buf and returns the extended slice.
func AppendMatrix(buf []byte, m tensor.Matrix[int64]) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.Rows))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.Cols))
	if hostLittleEndian {
		return append(buf, int64Bytes(m.Data)...)
	}
	return appendInt64sPortable(buf, m.Data)
}

// DecodeMatrix parses one matrix from buf, returning it and the
// remaining bytes.
func DecodeMatrix(buf []byte) (tensor.Matrix[int64], []byte, error) {
	if len(buf) < matrixHeaderLen {
		return tensor.Matrix[int64]{}, nil, fmt.Errorf("transport: matrix header truncated (%d bytes)", len(buf))
	}
	// All bound arithmetic runs in int64: on 32-bit platforms both the
	// rows*cols product of two in-range 24-bit dimensions (up to 2^48)
	// and the 8*n byte count (up to 2^31) overflow int and could slip
	// past checks done in the native width.
	rows := int64(binary.LittleEndian.Uint32(buf))
	cols := int64(binary.LittleEndian.Uint32(buf[4:]))
	buf = buf[matrixHeaderLen:]
	// Bound each dimension before multiplying: two attacker-chosen
	// 32-bit values can overflow even the int64 product and slip past a
	// product-only check (found by FuzzDecodeMatrix).
	if rows <= 0 || cols <= 0 || rows > (1<<24) || cols > (1<<24) || rows*cols > (1<<28) {
		return tensor.Matrix[int64]{}, nil, fmt.Errorf("transport: implausible matrix shape %dx%d", rows, cols)
	}
	n := rows * cols
	if int64(len(buf)) < 8*n {
		return tensor.Matrix[int64]{}, nil, fmt.Errorf("transport: matrix body truncated: need %d bytes, have %d", 8*n, len(buf))
	}
	m := tensor.Matrix[int64]{Rows: int(rows), Cols: int(cols), Data: make([]int64, n)}
	if hostLittleEndian {
		copy(int64Bytes(m.Data), buf)
	} else {
		decodeInt64sPortable(m.Data, buf)
	}
	return m, buf[8*n:], nil
}

// EncodeMatrices serializes a sequence of matrices.
func EncodeMatrices(ms ...tensor.Matrix[int64]) []byte {
	size := 8
	for _, m := range ms {
		size += matrixHeaderLen + 8*m.Size()
	}
	buf := make([]byte, 0, size)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(ms)))
	for _, m := range ms {
		buf = AppendMatrix(buf, m)
	}
	return buf
}

// DecodeMatrices parses a sequence encoded by EncodeMatrices.
func DecodeMatrices(buf []byte) ([]tensor.Matrix[int64], error) {
	if len(buf) < 8 {
		return nil, fmt.Errorf("transport: matrix sequence header truncated")
	}
	n := binary.LittleEndian.Uint64(buf)
	buf = buf[8:]
	if n > (1 << 20) {
		return nil, fmt.Errorf("transport: implausible matrix count %d", n)
	}
	out := make([]tensor.Matrix[int64], 0, n)
	for i := uint64(0); i < n; i++ {
		m, rest, err := DecodeMatrix(buf)
		if err != nil {
			return nil, fmt.Errorf("transport: matrix %d: %w", i, err)
		}
		out = append(out, m)
		buf = rest
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("transport: %d trailing bytes after matrix sequence", len(buf))
	}
	return out, nil
}

// EncodeBundle serializes a share bundle (the [s]_i vector of the BT
// protocols: primary, hat, second).
func EncodeBundle(b sharing.Bundle) []byte {
	return EncodeMatrices(b.Primary, b.Hat, b.Second)
}

// DecodeBundle parses a share bundle.
func DecodeBundle(buf []byte) (sharing.Bundle, error) {
	ms, err := DecodeMatrices(buf)
	if err != nil {
		return sharing.Bundle{}, err
	}
	if len(ms) != 3 {
		return sharing.Bundle{}, fmt.Errorf("transport: bundle has %d matrices, want 3", len(ms))
	}
	b := sharing.Bundle{Primary: ms[0], Hat: ms[1], Second: ms[2]}
	if err := b.Validate(); err != nil {
		return sharing.Bundle{}, err
	}
	return b, nil
}

// EncodeBundles serializes several bundles (e.g. the e and f vectors of
// SecMul-BT in one message).
func EncodeBundles(bs ...sharing.Bundle) []byte {
	return AppendBundles(make([]byte, 0, BundlesSize(bs...)), bs...)
}

// AppendBundles appends the EncodeBundles form of bs to buf, so a
// frame carrying several encodings is built without copying each one.
func AppendBundles(buf []byte, bs ...sharing.Bundle) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(3*len(bs)))
	for _, b := range bs {
		buf = AppendMatrix(AppendMatrix(AppendMatrix(buf, b.Primary), b.Hat), b.Second)
	}
	return buf
}

// BundlesSize is the length of EncodeBundles(bs...).
func BundlesSize(bs ...sharing.Bundle) int {
	size := 8
	for _, b := range bs {
		size += 3*matrixHeaderLen + 8*(b.Primary.Size()+b.Hat.Size()+b.Second.Size())
	}
	return size
}

// DecodeBundles parses the output of EncodeBundles.
func DecodeBundles(buf []byte, want int) ([]sharing.Bundle, error) {
	ms, err := DecodeMatrices(buf)
	if err != nil {
		return nil, err
	}
	if len(ms) != 3*want {
		return nil, fmt.Errorf("transport: %d matrices do not form %d bundles", len(ms), want)
	}
	out := make([]sharing.Bundle, want)
	for i := range out {
		out[i] = sharing.Bundle{Primary: ms[3*i], Hat: ms[3*i+1], Second: ms[3*i+2]}
		if err := out[i].Validate(); err != nil {
			return nil, fmt.Errorf("transport: bundle %d: %w", i, err)
		}
	}
	return out, nil
}

// keyedHeaderLen is the header of a keyed item: the deal number (LE
// u64) and the component bitmask (one byte).
const keyedHeaderLen = 9

// AppendKeyedItem appends one party's keyed item (sharing.KeyedItem):
// the header, then for each present component in index order its
// shape — two LE u32s — followed by the party's Second when it
// receives one (sharing.Receives).
func AppendKeyedItem(buf []byte, it sharing.KeyedItem) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, it.Deal)
	buf = append(buf, it.Comps)
	for c := sharing.Component(0); c < sharing.NumComponents; c++ {
		if !it.Has(c) {
			continue
		}
		if m := it.Second[c]; !m.IsZeroShape() {
			buf = AppendMatrix(buf, m)
			continue
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(it.Shapes[c][0]))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(it.Shapes[c][1]))
	}
	return buf
}

// KeyedItemSize is the length of AppendKeyedItem's encoding of it.
func KeyedItemSize(it sharing.KeyedItem) int {
	size := keyedHeaderLen
	for c := sharing.Component(0); c < sharing.NumComponents; c++ {
		if it.Has(c) {
			size += matrixHeaderLen + 8*it.Second[c].Size()
		}
	}
	return size
}

// EncodeKeyedItem serializes one party's keyed item.
func EncodeKeyedItem(it sharing.KeyedItem) []byte {
	return AppendKeyedItem(make([]byte, 0, KeyedItemSize(it)), it)
}

// DecodeKeyedItem parses the keyed item dealt to party: whether a
// component carries a Second follows from the party, the deal number
// and the component. It refuses unknown component bits, an empty
// item, implausible shapes, a truncated body and trailing bytes; the
// caller checks the layout against what it asked for before expanding.
func DecodeKeyedItem(buf []byte, party int) (sharing.KeyedItem, error) {
	var it sharing.KeyedItem
	if party < 1 || party > sharing.NumParties {
		return it, fmt.Errorf("transport: keyed item for party %d", party)
	}
	if len(buf) < keyedHeaderLen {
		return it, fmt.Errorf("transport: keyed item header truncated (%d bytes)", len(buf))
	}
	it.Deal = binary.LittleEndian.Uint64(buf)
	it.Comps = buf[8]
	buf = buf[keyedHeaderLen:]
	if it.Comps == 0 || it.Comps>>sharing.NumComponents != 0 {
		return it, fmt.Errorf("transport: keyed item component mask %#x", it.Comps)
	}
	for c := sharing.Component(0); c < sharing.NumComponents; c++ {
		if !it.Has(c) {
			continue
		}
		if sharing.Receives(party, it.Deal, c) {
			m, rest, err := DecodeMatrix(buf)
			if err != nil {
				return it, fmt.Errorf("transport: keyed item component %d: %w", c, err)
			}
			it.Second[c], it.Shapes[c], buf = m, [2]int{m.Rows, m.Cols}, rest
			continue
		}
		if len(buf) < matrixHeaderLen {
			return it, fmt.Errorf("transport: keyed item component %d shape truncated", c)
		}
		rows := int64(binary.LittleEndian.Uint32(buf))
		cols := int64(binary.LittleEndian.Uint32(buf[4:]))
		buf = buf[matrixHeaderLen:]
		if rows <= 0 || cols <= 0 || rows > (1<<24) || cols > (1<<24) || rows*cols > (1<<28) {
			return it, fmt.Errorf("transport: keyed item component %d has implausible shape %dx%d", c, rows, cols)
		}
		it.Shapes[c] = [2]int{int(rows), int(cols)}
	}
	if len(buf) != 0 {
		return it, fmt.Errorf("transport: %d trailing bytes after keyed item", len(buf))
	}
	return it, nil
}
