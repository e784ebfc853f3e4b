package protocol

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// Fuzz targets for the batched dealing codec: the request frame is
// written by a computing party and parsed by the model owner, the
// response frame flows the other way, and in malicious mode either
// end may be Byzantine. Decoding must never panic, must not allocate
// proportionally to attacker-claimed lengths, and every accepted
// frame must round-trip to the identical bytes.

// fuzzBatchReqs is a representative plan segment: every kind, both
// dim arities, a named weight mask, repeated keys.
var fuzzBatchReqs = []TripleRequest{
	{Kind: ReqMatMul, Session: "infer/0?me=1/l0/t", M: 784, N: 25, P: 5, Mask: "me=1/l0"},
	{Kind: ReqMatMul, Session: "train/0/fc1", M: 8, N: 784, P: 128},
	{Kind: ReqHadamard, Session: "train/0/relu", M: 8, N: 128},
	{Kind: ReqAux, Session: "train/0/relu", M: 8, N: 128},
	{Kind: ReqMatMul, Session: "train/0/fc1", M: 8, N: 784, P: 128},
}

func FuzzDecodeTripleBatch(f *testing.F) {
	valid, err := EncodeTripleBatch(fuzzBatchReqs)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-3]) // dims truncated mid-item
	f.Add(valid[:5])            // header only plus one kind byte
	f.Add([]byte{})
	// Zero and implausible item counts.
	f.Add(binary.LittleEndian.AppendUint32(nil, 0))
	f.Add(binary.LittleEndian.AppendUint32(nil, 1<<31))
	// Count claims more items than the frame carries.
	f.Add(append(binary.LittleEndian.AppendUint32(nil, uint32(maxBatchItems)), valid[4:]...))
	// Unknown kind byte.
	bad := append([]byte(nil), valid...)
	bad[4] = 0xee
	f.Add(bad)
	// Session length beyond the cap.
	bad = append([]byte(nil), valid...)
	binary.LittleEndian.PutUint16(bad[5:], uint16(maxBatchSessionLen+1))
	f.Add(bad)
	// Zero dimension inside an otherwise valid item.
	one, err := EncodeTripleBatch(fuzzBatchReqs[2:3])
	if err != nil {
		f.Fatal(err)
	}
	bad = append([]byte(nil), one...)
	binary.LittleEndian.PutUint32(bad[len(bad)-4:], 0)
	f.Add(bad)
	// Mask length beyond the cap, on the last (unnamed MatMul) item.
	bad = append([]byte(nil), valid...)
	binary.LittleEndian.PutUint16(bad[len(bad)-2:], uint16(maxMaskLen+1))
	f.Add(bad)
	// Trailing garbage after a complete frame.
	f.Add(append(append([]byte(nil), valid...), 0x01))
	f.Fuzz(func(t *testing.T, data []byte) {
		reqs, err := DecodeTripleBatch(data)
		if err != nil {
			return
		}
		if len(reqs) == 0 || len(reqs) > maxBatchItems {
			t.Fatalf("accepted frame decoded to %d items", len(reqs))
		}
		// Every accepted request must be individually well-formed: a
		// known kind (step resolves) and dims the single-request path
		// would also accept.
		for i, r := range reqs {
			if _, err := r.step(); err != nil {
				t.Fatalf("accepted item %d has invalid kind: %v", i, err)
			}
			// (The individual path carries the session in the message
			// envelope, so compare kind, dims and mask only.)
			noSession := r
			noSession.Session = ""
			if rt, err := reqFromWire(mustStep(t, r), r.payload()); err != nil || rt != noSession {
				t.Fatalf("accepted item %d does not survive the individual wire path: %+v vs %+v (%v)", i, rt, noSession, err)
			}
		}
		// The codec is canonical: re-encoding must reproduce the frame.
		re, err := EncodeTripleBatch(reqs)
		if err != nil {
			t.Fatalf("accepted frame cannot be re-encoded: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("re-encoding differs from accepted input")
		}
	})
}

func mustStep(t *testing.T, r TripleRequest) string {
	t.Helper()
	s, err := r.step()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// encodeBatchPayloads frames raw item payloads the way
// encodeBatchResponse frames encoded bundles.
func encodeBatchPayloads(items [][]byte) []byte {
	buf := binary.LittleEndian.AppendUint32(nil, uint32(len(items)))
	for _, it := range items {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(it)))
		buf = append(buf, it...)
	}
	return buf
}

func FuzzDecodeBatchPayloads(f *testing.F) {
	valid := encodeBatchPayloads([][]byte{{1, 2, 3}, {}, {0xff}})
	f.Add(valid)
	f.Add(valid[:len(valid)-1]) // last payload truncated
	f.Add([]byte{})
	f.Add(binary.LittleEndian.AppendUint32(nil, 0))
	f.Add(binary.LittleEndian.AppendUint32(nil, 1<<30))
	// Item length prefix claiming more bytes than remain: must be
	// rejected without slicing past the buffer.
	f.Add(append(binary.LittleEndian.AppendUint32(
		binary.LittleEndian.AppendUint32(nil, 1), 1<<31), 0x7))
	// Trailing garbage after a complete frame.
	f.Add(append(append([]byte(nil), valid...), 0x00))
	f.Fuzz(func(t *testing.T, data []byte) {
		items, err := decodeBatchPayloads(data)
		if err != nil {
			return
		}
		if len(items) == 0 || len(items) > maxBatchItems {
			t.Fatalf("accepted frame decoded to %d items", len(items))
		}
		if !bytes.Equal(encodeBatchPayloads(items), data) {
			t.Fatal("batch payload frame does not round-trip")
		}
		// Slices must be capped at their own payload (the owner hands
		// them to per-item decoders that may append).
		for i, it := range items {
			if cap(it) != len(it) {
				t.Fatalf("item %d aliases its neighbor: len %d cap %d", i, len(it), cap(it))
			}
		}
	})
}

// FuzzTripleBatchRoundTrip drives the encoder with arbitrary request
// fields: anything the encoder accepts must decode back to the exact
// request list, and anything out of spec must be rejected at encode
// time rather than shipped malformed.
func FuzzTripleBatchRoundTrip(f *testing.F) {
	f.Add(byte(ReqMatMul), "s", 1, 2, 3, "")
	f.Add(byte(ReqMatMul), "infer/7?me=2/l2/t", 4, 980, 100, "me=2/l2")
	f.Add(byte(ReqMatMul), "s", 1, 2, 3, string(make([]byte, maxMaskLen+1)))
	f.Add(byte(ReqHadamard), "train/1/relu", 8, 128, 0, "")
	f.Add(byte(ReqHadamard), "train/1/relu", 8, 128, 0, "m")
	f.Add(byte(ReqAux), string(make([]byte, maxBatchSessionLen)), 1<<24, 1, 0, "")
	f.Add(byte(0), "", -1, 0, 1<<25, "")
	f.Fuzz(func(t *testing.T, kind byte, session string, m, n, p int, mask string) {
		req := TripleRequest{Kind: TripleReqKind(kind), Session: session, M: m, N: n, P: p, Mask: mask}
		buf, err := EncodeTripleBatch([]TripleRequest{req})
		if err != nil {
			return
		}
		got, err := DecodeTripleBatch(buf)
		if err != nil {
			t.Fatalf("own encoding rejected: %v", err)
		}
		// Hadamard/Aux requests carry no P on the wire; the decoder
		// leaves it zero.
		want := req
		if want.Kind != ReqMatMul {
			want.P = 0
		}
		if len(got) != 1 || got[0] != want {
			t.Fatalf("round trip changed request: %+v vs %+v", got, want)
		}
	})
}
