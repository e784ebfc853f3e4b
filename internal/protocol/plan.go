package protocol

import (
	"encoding/binary"
	"fmt"

	"github.com/trustddl/trustddl/internal/sharing"
	"github.com/trustddl/trustddl/internal/tensor"
	"github.com/trustddl/trustddl/internal/transport"
)

// TripleReqKind enumerates the correlated-randomness kinds a computing
// party requests from the model owner (§III-A).
type TripleReqKind byte

// Request kinds.
const (
	// ReqHadamard is an element-wise Beaver triple (SecMul-BT).
	ReqHadamard TripleReqKind = iota + 1
	// ReqMatMul is a matrix-product Beaver triple (SecMatMul-BT).
	ReqMatMul
	// ReqAux is SecComp-BT's comparison item: a random positive
	// matrix t with an element-wise triple dealt against it, A, B = t
	// and C = A⊙t (sharing.BatchOrder.Aux).
	ReqAux
)

// String implements fmt.Stringer.
func (k TripleReqKind) String() string {
	switch k {
	case ReqHadamard:
		return "hadamard"
	case ReqMatMul:
		return "matmul"
	case ReqAux:
		return "aux"
	default:
		return fmt.Sprintf("TripleReqKind(%d)", int(k))
	}
}

// TripleRequest is one correlated-randomness requirement: the exact
// (kind, session, dims, mask) tuple a secure operation will request.
// The secure network architecture is static, so the ordered list of
// these per forward pass or training step — a triple plan — is known
// before the first protocol round; the prefetch pipeline issues plan
// segments ahead of the layers that consume them. Hadamard and Aux
// requests use the M×N shape with P zero; an Aux request is one whole
// comparison, its positive mask and the triple dealt against it.
// MatMul requests describe a (M×N)·(N×P) product and may name the
// weight-side mask it is dealt against.
type TripleRequest struct {
	Kind    TripleReqKind
	Session string
	M, N, P int
	// Mask, on a MatMul request, names the N×P mask b of the right
	// operand. While the owner retains a mask under that name it deals
	// only the input-side pair (A, C = A·b); the first request for a
	// name it does not hold draws b, and the reply carries B. Empty
	// asks for a single-use triple.
	Mask string
	// Conv, on a MatMul request, is the geometry of the convolution
	// whose lowering the product is (ConvRequest): the owner then deals
	// A at image shape and C = Conv2DBatch(Conv, A, b), so the
	// requester opens its input mask before the lowering. Zero for any
	// other request.
	Conv tensor.ConvShape
	// BackPair, on a MatMul request that names no mask, also asks for
	// the triple's backward pair (sharing.BatchOrder.BackPair): a
	// training step's forward takes it so its backward multiplies under
	// the same b. The reply then carries five bundles, A, B, C, A′, C′.
	BackPair bool
}

// ConvRequest is the request of a convolution's triple over images
// images and outChannels filters: a MatMul request whose dims are the
// lowered product, (images·OutH·OutW)×PatchSize · PatchSize×outChannels,
// carrying the geometry.
func ConvRequest(session, mask string, shape tensor.ConvShape, images, outChannels int) TripleRequest {
	return TripleRequest{
		Kind: ReqMatMul, Session: session, Mask: mask, Conv: shape,
		M: images * shape.OutHeight() * shape.OutWidth(), N: shape.PatchSize(), P: outChannels,
	}
}

// isConv reports whether the request carries conv geometry.
func (r TripleRequest) isConv() bool { return r.Conv != (tensor.ConvShape{}) }

// Key is the canonical identity of a request: kind, session, dims,
// conv geometry, mask name and backward pair. Two requests with equal
// keys are interchangeable — the owner deals one entry per key, however
// each party asks for it; a conv and a plain request for the same
// product are different deals (their A differ in shape), and so are
// requests with and without the backward pair.
func (r TripleRequest) Key() string {
	c := r.Conv
	return fmt.Sprintf("%d|%s|%dx%dx%d|c%d:%dx%d:k%ds%dp%d|%s|%t", r.Kind, r.Session, r.M, r.N, r.P,
		c.InChannels, c.Height, c.Width, c.Kernel, c.Stride, c.Pad, r.Mask, r.BackPair)
}

// checkBackPair rejects a backward pair anywhere but on a MatMul
// request that names no mask: the pair rides on the deal that draws a
// fresh b, which a named request may not do.
func (r TripleRequest) checkBackPair() error {
	if r.BackPair && (r.Kind != ReqMatMul || r.Mask != "") {
		return fmt.Errorf("protocol: backward pair on a %s request naming mask %q", r.Kind, r.Mask)
	}
	return nil
}

// dims returns the wire dims for the kind (2 for Hadamard/Aux, 3 for
// MatMul).
func (r TripleRequest) dims() []int {
	if r.Kind == ReqMatMul {
		return []int{r.M, r.N, r.P}
	}
	return []int{r.M, r.N}
}

// convWireLen is the wire size of a conv geometry: six LE u32s, in
// ConvShape field order.
const convWireLen = 6 * 4

func appendConv(buf []byte, c tensor.ConvShape) []byte {
	for _, v := range [...]int{c.InChannels, c.Height, c.Width, c.Kernel, c.Stride, c.Pad} {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	return buf
}

// decodeConv reads a geometry written by appendConv; checkConv decides
// whether it is plausible.
func decodeConv(buf []byte) tensor.ConvShape {
	f := func(i int) int { return int(binary.LittleEndian.Uint32(buf[4*i:])) }
	return tensor.ConvShape{InChannels: f(0), Height: f(1), Width: f(2), Kernel: f(3), Stride: f(4), Pad: f(5)}
}

// checkConv rejects conv geometry the owner must not deal: geometry on
// a non-MatMul request, a field or an image width (InChannels·H·W)
// beyond the dimension cap, a shape ConvShape.Validate refuses, or
// dims that are not the lowering of the geometry (N = PatchSize, M a
// whole number of images' output positions). A Byzantine requester
// must not be able to make the owner panic in the conv kernel or
// balloon its work: the conv costs the M·N·P of the stated product,
// and the image-shaped a, images × InSize with images ≤ M and
// InSize ≤ 2²⁴, stays within the M × 2²⁴ a plain MatMul item may ask
// for. Requests without geometry pass.
func (r TripleRequest) checkConv() error {
	if !r.isConv() {
		return nil
	}
	if r.Kind != ReqMatMul {
		return fmt.Errorf("protocol: conv geometry on a %s request", r.Kind)
	}
	c := r.Conv
	for _, v := range [...]int{c.InChannels, c.Height, c.Width, c.Kernel, c.Stride, c.Pad} {
		if v < 0 || v > maxDim {
			return fmt.Errorf("protocol: implausible conv geometry %+v", c)
		}
	}
	if !withinMaxDim(c.InChannels, c.Height, c.Width) {
		return fmt.Errorf("protocol: conv image width %dx%dx%d beyond %d", c.InChannels, c.Height, c.Width, maxDim)
	}
	if !withinMaxDim(c.InChannels, c.Kernel, c.Kernel) {
		return fmt.Errorf("protocol: conv patch %dx%dx%d beyond %d", c.InChannels, c.Kernel, c.Kernel, maxDim)
	}
	_, err := r.order().ConvImages()
	return err
}

// withinMaxDim reports whether the product of positive factors is at
// most maxDim, without computing a product that could overflow.
func withinMaxDim(xs ...int) bool {
	p := 1
	for _, x := range xs {
		if x <= 0 || p > maxDim/x {
			return false
		}
		p *= x
	}
	return true
}

// order converts the request into a dealer batch order; the owner
// fills in the retained mask a named request is dealt against.
func (r TripleRequest) order() sharing.BatchOrder {
	switch r.Kind {
	case ReqHadamard:
		return sharing.BatchOrder{Kind: sharing.TripleHadamard, M: r.M, N: r.N}
	case ReqAux:
		return sharing.BatchOrder{Aux: true, M: r.M, N: r.N}
	default:
		return sharing.BatchOrder{Kind: sharing.TripleMatMul, M: r.M, N: r.N, P: r.P, Conv: r.Conv, BackPair: r.BackPair}
	}
}

// Wire format of the batch deal step: a request frame carries
// `count · (kind byte, u16 session length, session bytes, dims as LE
// u32s — 2 for Hadamard/Aux, 3 for MatMul — and, for MatMul, the conv
// geometry when the kind byte has its convItem bit set, u16 mask
// length, mask bytes)` after a LE u32 count, a MatMul item's kind byte
// carrying its backPairItem bit when it asks for the backward pair;
// the response frame carries, in request order, one length-prefixed
// item payload each (the item's keyed form for the requester, see
// decodeTriple). Caps keep a Byzantine requester from ballooning the
// owner's decode work.
const (
	// maxBatchItems bounds one batch deal message. Far above any real
	// plan segment (a Table I training step plans 8 items).
	maxBatchItems = 1024
	// maxBatchSessionLen bounds one item's session string.
	maxBatchSessionLen = 512
	// maxMaskLen bounds a mask name.
	maxMaskLen = 128
	// maxDim bounds every dimension and conv geometry field, and a conv
	// request's image width.
	maxDim = 1 << 24
	// convItem marks, on a batch item's kind byte, a MatMul item that
	// carries conv geometry.
	convItem = 0x80
	// backPairItem marks, on a batch item's kind byte, a MatMul item
	// that asks for the backward pair.
	backPairItem = 0x40
)

// EncodeTripleBatch serializes a batch dealing request.
func EncodeTripleBatch(reqs []TripleRequest) ([]byte, error) {
	if len(reqs) == 0 || len(reqs) > maxBatchItems {
		return nil, fmt.Errorf("protocol: batch of %d items out of range", len(reqs))
	}
	buf := binary.LittleEndian.AppendUint32(nil, uint32(len(reqs)))
	for _, r := range reqs {
		switch r.Kind {
		case ReqHadamard, ReqMatMul, ReqAux:
		default:
			return nil, fmt.Errorf("protocol: unknown triple request kind %d", r.Kind)
		}
		if err := r.checkBackPair(); err != nil {
			return nil, err
		}
		if len(r.Session) == 0 || len(r.Session) > maxBatchSessionLen {
			return nil, fmt.Errorf("protocol: batch session length %d out of range", len(r.Session))
		}
		if len(r.Mask) > maxMaskLen || (r.Kind != ReqMatMul && r.Mask != "") {
			return nil, fmt.Errorf("protocol: batch %s item names mask %q", r.Kind, r.Mask)
		}
		if err := r.checkConv(); err != nil {
			return nil, err
		}
		kind := byte(r.Kind)
		if r.isConv() {
			kind |= convItem
		}
		if r.BackPair {
			kind |= backPairItem
		}
		buf = append(buf, kind)
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(r.Session)))
		buf = append(buf, r.Session...)
		for _, d := range r.dims() {
			if d <= 0 || d > maxDim {
				return nil, fmt.Errorf("protocol: implausible batch dimension %d", d)
			}
			buf = binary.LittleEndian.AppendUint32(buf, uint32(d))
		}
		if r.isConv() {
			buf = appendConv(buf, r.Conv)
		}
		if r.Kind == ReqMatMul {
			buf = binary.LittleEndian.AppendUint16(buf, uint16(len(r.Mask)))
			buf = append(buf, r.Mask...)
		}
	}
	return buf, nil
}

// DecodeTripleBatch parses a batch dealing request, rejecting
// malformed or implausible frames (a Byzantine requester must not be
// able to crash the owner or balloon its work).
func DecodeTripleBatch(buf []byte) ([]TripleRequest, error) {
	if len(buf) < 4 {
		return nil, fmt.Errorf("protocol: batch request truncated")
	}
	count := int(binary.LittleEndian.Uint32(buf))
	buf = buf[4:]
	if count <= 0 || count > maxBatchItems {
		return nil, fmt.Errorf("protocol: implausible batch item count %d", count)
	}
	out := make([]TripleRequest, 0, count)
	for i := 0; i < count; i++ {
		if len(buf) < 3 {
			return nil, fmt.Errorf("protocol: batch item %d truncated", i)
		}
		r := TripleRequest{Kind: TripleReqKind(buf[0] &^ (convItem | backPairItem)), BackPair: buf[0]&backPairItem != 0}
		conv := buf[0]&convItem != 0
		slen := int(binary.LittleEndian.Uint16(buf[1:]))
		buf = buf[3:]
		if slen == 0 || slen > maxBatchSessionLen || len(buf) < slen {
			return nil, fmt.Errorf("protocol: batch item %d session length %d invalid", i, slen)
		}
		r.Session = string(buf[:slen])
		buf = buf[slen:]
		nd := 2
		switch r.Kind {
		case ReqHadamard, ReqAux:
		case ReqMatMul:
			nd = 3
		default:
			return nil, fmt.Errorf("protocol: batch item %d has unknown kind %d", i, r.Kind)
		}
		if conv && r.Kind != ReqMatMul {
			return nil, fmt.Errorf("protocol: batch %s item %d carries conv geometry", r.Kind, i)
		}
		if len(buf) < 4*nd {
			return nil, fmt.Errorf("protocol: batch item %d dims truncated", i)
		}
		dims := make([]int, nd)
		for j := range dims {
			v := binary.LittleEndian.Uint32(buf[4*j:])
			if v == 0 || v > maxDim {
				return nil, fmt.Errorf("protocol: batch item %d has implausible dimension %d", i, v)
			}
			dims[j] = int(v)
		}
		buf = buf[4*nd:]
		r.M, r.N = dims[0], dims[1]
		if conv {
			if len(buf) < convWireLen {
				return nil, fmt.Errorf("protocol: batch item %d conv geometry truncated", i)
			}
			r.Conv = decodeConv(buf)
			buf = buf[convWireLen:]
			if !r.isConv() {
				return nil, fmt.Errorf("protocol: batch item %d flags conv without geometry", i)
			}
		}
		if nd == 3 {
			r.P = dims[2]
			if len(buf) < 2 {
				return nil, fmt.Errorf("protocol: batch item %d mask length truncated", i)
			}
			mlen := int(binary.LittleEndian.Uint16(buf))
			buf = buf[2:]
			if mlen > maxMaskLen || len(buf) < mlen {
				return nil, fmt.Errorf("protocol: batch item %d mask length %d invalid", i, mlen)
			}
			r.Mask = string(buf[:mlen])
			buf = buf[mlen:]
		}
		if err := r.checkConv(); err != nil {
			return nil, fmt.Errorf("protocol: batch item %d: %w", i, err)
		}
		if err := r.checkBackPair(); err != nil {
			return nil, fmt.Errorf("protocol: batch item %d: %w", i, err)
		}
		out = append(out, r)
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("protocol: %d trailing bytes after batch request", len(buf))
	}
	return out, nil
}

// encodeBatchResponse frames, in request order, each item's keyed
// form for the requester, writing every encoding straight into the one
// frame.
func encodeBatchResponse(items []sharing.KeyedItem) []byte {
	size := 4
	for _, it := range items {
		size += 4 + transport.KeyedItemSize(it)
	}
	buf := binary.LittleEndian.AppendUint32(make([]byte, 0, size), uint32(len(items)))
	for _, it := range items {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(transport.KeyedItemSize(it)))
		buf = transport.AppendKeyedItem(buf, it)
	}
	return buf
}

// decodeBatchPayloads splits a batch response into its item payloads.
func decodeBatchPayloads(buf []byte) ([][]byte, error) {
	if len(buf) < 4 {
		return nil, fmt.Errorf("protocol: batch response truncated")
	}
	count := int(binary.LittleEndian.Uint32(buf))
	buf = buf[4:]
	if count <= 0 || count > maxBatchItems {
		return nil, fmt.Errorf("protocol: implausible batch response count %d", count)
	}
	out := make([][]byte, 0, count)
	for i := 0; i < count; i++ {
		if len(buf) < 4 {
			return nil, fmt.Errorf("protocol: batch response item %d truncated", i)
		}
		n := int(binary.LittleEndian.Uint32(buf))
		buf = buf[4:]
		if n < 0 || n > len(buf) {
			return nil, fmt.Errorf("protocol: batch response item %d length %d invalid", i, n)
		}
		out = append(out, buf[:n:n])
		buf = buf[n:]
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("protocol: %d trailing bytes after batch response", len(buf))
	}
	return out, nil
}
