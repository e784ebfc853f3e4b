package protocol

import (
	"encoding/binary"
	"fmt"

	"github.com/trustddl/trustddl/internal/sharing"
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
	// ReqAux is an auxiliary positive matrix (SecComp-BT).
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
// requests use the M×N shape with P zero; MatMul requests describe a
// (M×N)·(N×P) product and may name the weight-side mask it is dealt
// against.
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
}

// Key is the canonical identity of a request: kind, session, dims and
// mask name. Two requests with equal keys are interchangeable — the
// owner deals one entry per key, and the prefetch cache matches
// deliveries to consumers by it.
func (r TripleRequest) Key() string {
	return fmt.Sprintf("%d|%s|%dx%dx%d|%s", r.Kind, r.Session, r.M, r.N, r.P, r.Mask)
}

// step maps the kind onto the owner wire-protocol step label.
func (r TripleRequest) step() (string, error) {
	switch r.Kind {
	case ReqHadamard:
		return stepTripleHadamard, nil
	case ReqMatMul:
		return stepTripleMatMul, nil
	case ReqAux:
		return stepAuxPositive, nil
	default:
		return "", fmt.Errorf("protocol: unknown triple request kind %d", r.Kind)
	}
}

// dims returns the wire dims for the kind (2 for Hadamard/Aux, 3 for
// MatMul).
func (r TripleRequest) dims() []int {
	if r.Kind == ReqMatMul {
		return []int{r.M, r.N, r.P}
	}
	return []int{r.M, r.N}
}

// payload is the body of an individual deal message: the dims as LE
// u32s, then the mask name as the remaining bytes — none for a request
// that names no mask.
func (r TripleRequest) payload() []byte {
	return append(encodeDims(r.dims()...), r.Mask...)
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
		return sharing.BatchOrder{Kind: sharing.TripleMatMul, M: r.M, N: r.N, P: r.P}
	}
}

// reqFromWire reassembles a request from an individual deal message
// (TripleRequest.payload; the session travels in the message header).
func reqFromWire(step string, payload []byte) (TripleRequest, error) {
	var r TripleRequest
	switch step {
	case stepTripleHadamard:
		r.Kind = ReqHadamard
	case stepTripleMatMul:
		r.Kind = ReqMatMul
	case stepAuxPositive:
		r.Kind = ReqAux
	default:
		return TripleRequest{}, fmt.Errorf("protocol: unknown deal step %q", step)
	}
	nd := 2
	if r.Kind == ReqMatMul {
		nd = 3
	}
	if len(payload) < 4*nd {
		return TripleRequest{}, fmt.Errorf("protocol: %s deal needs %d dims, got %d bytes", step, nd, len(payload))
	}
	dims, err := decodeDims(payload[:4*nd])
	if err != nil {
		return TripleRequest{}, err
	}
	mask := payload[4*nd:]
	if len(mask) > maxMaskLen || (r.Kind != ReqMatMul && len(mask) != 0) {
		return TripleRequest{}, fmt.Errorf("protocol: %s deal carries %d bytes after its dims", step, len(mask))
	}
	r.M, r.N = dims[0], dims[1]
	if r.Kind == ReqMatMul {
		r.P = dims[2]
		r.Mask = string(mask)
	}
	return r, nil
}

// Wire format of the batch deal step: a request frame carries
// `count · (kind byte, u16 session length, session bytes, dims as LE
// u32s — 2 for Hadamard/Aux, 3 for MatMul — and, for MatMul, u16 mask
// length, mask bytes)` after a LE u32 count; the response frame
// carries, in request order, one length-prefixed item payload each
// (the identical bytes an individual deal response would carry). Caps
// keep a Byzantine requester from ballooning the owner's decode work.
const (
	// maxBatchItems bounds one batch deal message. Far above any real
	// plan segment (a Table I training step plans 13 items).
	maxBatchItems = 1024
	// maxBatchSessionLen bounds one item's session string.
	maxBatchSessionLen = 512
	// maxMaskLen bounds a mask name, in both request formats.
	maxMaskLen = 128
)

// EncodeTripleBatch serializes a batch dealing request.
func EncodeTripleBatch(reqs []TripleRequest) ([]byte, error) {
	if len(reqs) == 0 || len(reqs) > maxBatchItems {
		return nil, fmt.Errorf("protocol: batch of %d items out of range", len(reqs))
	}
	buf := binary.LittleEndian.AppendUint32(nil, uint32(len(reqs)))
	for _, r := range reqs {
		if _, err := r.step(); err != nil {
			return nil, err
		}
		if len(r.Session) == 0 || len(r.Session) > maxBatchSessionLen {
			return nil, fmt.Errorf("protocol: batch session length %d out of range", len(r.Session))
		}
		if len(r.Mask) > maxMaskLen || (r.Kind != ReqMatMul && r.Mask != "") {
			return nil, fmt.Errorf("protocol: batch %s item names mask %q", r.Kind, r.Mask)
		}
		buf = append(buf, byte(r.Kind))
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(r.Session)))
		buf = append(buf, r.Session...)
		for _, d := range r.dims() {
			if d <= 0 || d > 1<<24 {
				return nil, fmt.Errorf("protocol: implausible batch dimension %d", d)
			}
			buf = binary.LittleEndian.AppendUint32(buf, uint32(d))
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
		r := TripleRequest{Kind: TripleReqKind(buf[0])}
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
		if len(buf) < 4*nd {
			return nil, fmt.Errorf("protocol: batch item %d dims truncated", i)
		}
		dims := make([]int, nd)
		for j := range dims {
			v := binary.LittleEndian.Uint32(buf[4*j:])
			if v == 0 || v > 1<<24 {
				return nil, fmt.Errorf("protocol: batch item %d has implausible dimension %d", i, v)
			}
			dims[j] = int(v)
		}
		buf = buf[4*nd:]
		r.M, r.N = dims[0], dims[1]
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
		out = append(out, r)
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("protocol: %d trailing bytes after batch request", len(buf))
	}
	return out, nil
}

// encodeBatchPayloads frames the per-item response payloads.
func encodeBatchPayloads(items [][]byte) []byte {
	buf := binary.LittleEndian.AppendUint32(nil, uint32(len(items)))
	for _, it := range items {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(it)))
		buf = append(buf, it...)
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
