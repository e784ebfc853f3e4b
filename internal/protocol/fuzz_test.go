package protocol

import (
	"bytes"
	"encoding/binary"
	"testing"

	"github.com/trustddl/trustddl/internal/fixed"
	"github.com/trustddl/trustddl/internal/sharing"
	"github.com/trustddl/trustddl/internal/tensor"
	"github.com/trustddl/trustddl/internal/transport"
)

// Fuzz targets for the batched dealing codec: the request frame is
// written by a computing party and parsed by the model owner, the
// response frame flows the other way, and in malicious mode either
// end may be Byzantine. Decoding must never panic, must not allocate
// proportionally to attacker-claimed lengths, and every accepted
// frame must round-trip to the identical bytes.

// paperConv is the Table I convolution's geometry.
var paperConv = tensor.ConvShape{InChannels: 1, Height: 28, Width: 28, Kernel: 5, Stride: 2, Pad: 2}

// fuzzBatchReqs is a representative plan segment: every kind, both
// dim arities, a conv item, a named weight mask, repeated keys.
var fuzzBatchReqs = []TripleRequest{
	ConvRequest("infer/0?me=1/l0/t", "me=1/l0", paperConv, 4, 5),
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
	// Conv items the owner must refuse, and one cut inside its geometry.
	for _, r := range badConvRequests() {
		f.Add(rawConvBatch(r.req))
	}
	conv := rawConvBatch(fuzzBatchReqs[0])
	f.Add(conv[:len(conv)-len(fuzzBatchReqs[0].Mask)-2-convWireLen/2])
	// Comparison items: the two ReLU items of a Table I pass, one that
	// names a mask (an Aux item is never dealt against one), and one
	// flagged with conv geometry.
	relus, err := EncodeTripleBatch([]TripleRequest{
		{Kind: ReqAux, Session: "infer/0?me=1/l1/aux", M: 1, N: 980},
		{Kind: ReqAux, Session: "infer/0?me=1/l3/aux", M: 1, N: 100},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(relus)
	f.Add(append(binary.LittleEndian.AppendUint16(append([]byte(nil), relus...), 1), 'm'))
	f.Add(rawConvBatch(TripleRequest{Kind: ReqAux, Session: "s", M: 196, N: 25, Conv: paperConv}))
	// A training step's forward with the backward pair: the first
	// segment of the Table I step (fc1 carries the pair, the conv does
	// not), and items the owner must refuse — the pair on a named
	// request and on a comparison item.
	train, err := EncodeTripleBatch(fuzzTrainReqs)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(train)
	f.Add(rawBatchItem(TripleRequest{Kind: ReqMatMul, Session: "s", M: 8, N: 980, P: 100, Mask: "me=1/l2"}, backPairItem))
	f.Add(rawBatchItem(TripleRequest{Kind: ReqAux, Session: "s", M: 8, N: 100}, backPairItem))
	f.Fuzz(func(t *testing.T, data []byte) {
		reqs, err := DecodeTripleBatch(data)
		if err != nil {
			return
		}
		if len(reqs) == 0 || len(reqs) > maxBatchItems {
			t.Fatalf("accepted frame decoded to %d items", len(reqs))
		}
		// Every accepted request must be individually well-formed: a
		// known kind, a backward pair only where one may ride, and conv
		// geometry the dealer can deal.
		for i, r := range reqs {
			switch r.Kind {
			case ReqHadamard, ReqMatMul, ReqAux:
			default:
				t.Fatalf("accepted item %d has invalid kind %d", i, r.Kind)
			}
			if err := r.checkBackPair(); err != nil {
				t.Fatalf("accepted item %d: %v", i, err)
			}
			if r.isConv() {
				if _, err := r.order().ConvImages(); err != nil {
					t.Fatalf("accepted conv item %d cannot be dealt: %v", i, err)
				}
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

// fuzzTrainReqs is the first segment of a Table I training step's
// plan: the forward of the conv (the first layer: no backward pair),
// a ReLU, fc1 with its backward pair, a ReLU.
var fuzzTrainReqs = []TripleRequest{
	ConvRequest("train/5?lr=50000/l0/t", "", paperConv, 8, 5),
	{Kind: ReqAux, Session: "train/5?lr=50000/l1/aux", M: 8, N: 980},
	{Kind: ReqMatMul, Session: "train/5?lr=50000/l2/t", M: 8, N: 980, P: 100, BackPair: true},
	{Kind: ReqAux, Session: "train/5?lr=50000/l3/aux", M: 8, N: 100},
}

// rawBatchItem frames r as a one-item batch with extra bits on its kind
// byte, skipping every check the encoder makes.
func rawBatchItem(r TripleRequest, bits byte) []byte {
	buf := binary.LittleEndian.AppendUint32(nil, 1)
	buf = append(buf, byte(r.Kind)|bits)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(r.Session)))
	buf = append(buf, r.Session...)
	for _, d := range r.dims() {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(d))
	}
	if r.Kind == ReqMatMul {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(r.Mask)))
		buf = append(buf, r.Mask...)
	}
	return buf
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
	// The reply to a forward-with-pair order, A, B, C, A′, C′, beside a
	// plain triple and a warm pair; and a pair whose C′ is not A′·bᵀ
	// shaped.
	pairSpec := []int{int(sharing.CompA), 2, 3, int(sharing.CompB), 3, 4, int(sharing.CompC), 2, 4, int(sharing.CompBackA), 2, 4}
	f.Add(encodeBatchResponse([]sharing.KeyedItem{
		fuzzItem(append(pairSpec, int(sharing.CompBackC), 2, 3)...),
		fuzzItem(pairSpec[:9]...),
		fuzzItem(int(sharing.CompA), 2, 3, int(sharing.CompC), 2, 4),
	}))
	f.Add(encodeBatchResponse([]sharing.KeyedItem{fuzzItem(append(pairSpec, int(sharing.CompBackC), 2, 4)...)}))
	keys := fuzzDealer().Keys(1)
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
			// A triple accepted with its backward pair has a pair that
			// multiplies by the transposed mask: A′ of B's width, C′ of
			// Bᵀ's, one row count. The request is the product the
			// item's A and B describe.
			ki, err := transport.DecodeKeyedItem(it, keys.Party)
			if err != nil || !ki.Has(sharing.CompA) || !ki.Has(sharing.CompB) {
				continue
			}
			as, bs := ki.Shapes[sharing.CompA], ki.Shapes[sharing.CompB]
			if as[0]*as[1] > 1<<16 || bs[0]*bs[1] > 1<<16 {
				continue // the expansion would allocate what the request says
			}
			req := TripleRequest{Kind: ReqMatMul, Session: "f", M: as[0], N: as[1], P: bs[1], BackPair: true}
			tr, err := decodeTriple(it, req, keys)
			if err != nil {
				continue
			}
			b, a2, c2 := tr.B, tr.Back.A, tr.Back.C
			if a2.Rows() != c2.Rows() || a2.Cols() != b.Cols() || c2.Cols() != b.Rows() {
				t.Fatalf("item %d: accepted a %dx%d, %dx%d pair for a %dx%d mask", i, a2.Rows(), a2.Cols(), c2.Rows(), c2.Cols(), b.Rows(), b.Cols())
			}
		}
	})
}

// FuzzTripleBatchRoundTrip drives the encoder with arbitrary request
// fields: anything the encoder accepts must decode back to the exact
// request list, and anything out of spec must be rejected at encode
// time rather than shipped malformed.
func FuzzTripleBatchRoundTrip(f *testing.F) {
	noConv := [6]int{}
	seedPair := func(kind byte, session string, m, n, p int, mask string, c [6]int, backPair bool) {
		f.Add(kind, session, m, n, p, mask, c[0], c[1], c[2], c[3], c[4], c[5], backPair)
	}
	seed := func(kind byte, session string, m, n, p int, mask string, c [6]int) {
		seedPair(kind, session, m, n, p, mask, c, false)
	}
	seed(byte(ReqMatMul), "s", 1, 2, 3, "", noConv)
	seed(byte(ReqMatMul), "infer/7?me=2/l2/t", 4, 980, 100, "me=2/l2", noConv)
	seed(byte(ReqMatMul), "s", 1, 2, 3, string(make([]byte, maxMaskLen+1)), noConv)
	seed(byte(ReqHadamard), "train/1/relu", 8, 128, 0, "", noConv)
	seed(byte(ReqHadamard), "train/1/relu", 8, 128, 0, "m", noConv)
	seed(byte(ReqAux), string(make([]byte, maxBatchSessionLen)), 1<<24, 1, 0, "", noConv)
	seed(byte(0), "", -1, 0, 1<<25, "", noConv)
	paper := [6]int{1, 28, 28, 5, 2, 2}
	seed(byte(ReqMatMul), "infer/7?me=2/l0/t", 4*196, 25, 5, "me=2/l0", paper)
	seed(byte(ReqMatMul), "train/1/l0/t", 8*196, 25, 5, "", paper)
	seed(byte(ReqMatMul), "s", 195, 25, 5, "", paper)                             // not whole images
	seed(byte(ReqMatMul), "s", 196, 24, 5, "", paper)                             // N is not the patch
	seed(byte(ReqHadamard), "s", 196, 25, 0, "", paper)                           // geometry on an element-wise item
	seed(byte(ReqMatMul), "s", 1, 1, 1, "", [6]int{1, 1 << 24, 2, 1, 1 << 24, 0}) // image width past the cap
	seed(byte(ReqAux), "infer/7?me=2/l1/aux", 4, 980, 0, "", noConv)              // a ReLU's comparison item
	seed(byte(ReqAux), "s", 1, 100, 0, "me=2/l3", noConv)                         // comparison item naming a mask
	seed(byte(ReqAux), "s", 196, 25, 0, "", paper)                                // geometry on a comparison item
	// Training forwards with the backward pair, and pairs the encoder
	// must refuse: on a named request, on a comparison item.
	seedPair(byte(ReqMatMul), "train/5?lr=50000/l2/t", 8, 980, 100, "", noConv, true)
	seedPair(byte(ReqMatMul), "train/5?lr=50000/l0/t", 8*196, 25, 5, "", paper, true)
	seedPair(byte(ReqMatMul), "infer/7?me=2/l2/t", 4, 980, 100, "me=2/l2", noConv, true)
	seedPair(byte(ReqAux), "train/5?lr=50000/l1/aux", 8, 980, 0, "", noConv, true)
	f.Fuzz(func(t *testing.T, kind byte, session string, m, n, p int, mask string, ch, h, w, k, st, pad int, backPair bool) {
		req := TripleRequest{Kind: TripleReqKind(kind), Session: session, M: m, N: n, P: p, Mask: mask, BackPair: backPair,
			Conv: tensor.ConvShape{InChannels: ch, Height: h, Width: w, Kernel: k, Stride: st, Pad: pad}}
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
		if req.isConv() {
			if _, err := req.order().ConvImages(); err != nil {
				t.Fatalf("encoder shipped a conv item the dealer refuses: %v", err)
			}
		}
		if req.BackPair && (req.Kind != ReqMatMul || req.Mask != "") {
			t.Fatalf("encoder shipped a backward pair on a %s item naming %q", req.Kind, req.Mask)
		}
	})
}

// fuzzDealer is the dealer whose keys the fuzz targets expand with.
func fuzzDealer() *sharing.Dealer {
	return sharing.NewDealer(sharing.NewSeededSource(5), fixed.Default())
}

// fuzzItem returns party 1's keyed item of deal 1 (party 1 receives the
// Second of every component of it) with one component per (component,
// rows, cols) triple of spec, its Seconds filled with a counter.
func fuzzItem(spec ...int) sharing.KeyedItem {
	it := sharing.KeyedItem{Deal: 1}
	v := int64(0)
	for i := 0; i+2 < len(spec); i += 3 {
		c := sharing.Component(spec[i])
		m := tensor.MustNew[int64](spec[i+1], spec[i+2])
		for j := range m.Data {
			v++
			m.Data[j] = v
		}
		it.Comps |= 1 << c
		it.Shapes[c] = [2]int{m.Rows, m.Cols}
		it.Second[c] = m
	}
	return it
}

// keyedFuzzReqs has one request of every order kind: Hadamard, MatMul,
// conv, a MatMul named for a retained mask (dealt Against it), a
// training forward with its backward pair, and a comparison item.
var keyedFuzzReqs = []TripleRequest{
	{Kind: ReqHadamard, Session: "k/had", M: 2, N: 3},
	{Kind: ReqMatMul, Session: "k/mm", M: 2, N: 3, P: 4},
	ConvRequest("k/conv", "", tensor.ConvShape{InChannels: 1, Height: 4, Width: 4, Kernel: 3, Stride: 1, Pad: 1}, 2, 2),
	{Kind: ReqMatMul, Session: "k/against", M: 2, N: 3, P: 4, Mask: "w"},
	{Kind: ReqMatMul, Session: "k/bp", M: 2, N: 3, P: 4, BackPair: true},
	{Kind: ReqAux, Session: "k/aux", M: 2, N: 3},
}

// keyedFuzzOrder is the dealer order of keyedFuzzReqs[i]; the named
// request is dealt against a mask the dealer holds.
func keyedFuzzOrder(i int, mask Mat) sharing.BatchOrder {
	o := keyedFuzzReqs[i].order()
	if keyedFuzzReqs[i].Mask != "" {
		o.Against = mask
	}
	return o
}

// FuzzDecodeKeyedItem: the owner's reply item, for any request kind and
// any party, decodes and expands without panicking; an accepted item
// has exactly the components and shapes its request implies, and
// re-encodes to the bytes it came from.
func FuzzDecodeKeyedItem(f *testing.F) {
	d := fuzzDealer()
	mask := tensor.MustNew[int64](3, 4)
	for i := range keyedFuzzReqs {
		deals, err := d.Deal([]sharing.BatchOrder{keyedFuzzOrder(i, mask)})
		if err != nil {
			f.Fatal(err)
		}
		for p := range deals[0].Party {
			payload := transport.EncodeKeyedItem(deals[0].Party[p])
			f.Add(payload, uint8(i), uint8(p))
			f.Add(payload[:len(payload)-1], uint8(i), uint8(p)) // truncated
			f.Add(append(payload, 0), uint8(i), uint8(p))       // trailing byte
			f.Add(payload, uint8(i+1), uint8(p))                // another kind's request
			f.Add(payload, uint8(i), uint8(p+1))                // another party's keys
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, kind, party uint8) {
		req := keyedFuzzReqs[int(kind)%len(keyedFuzzReqs)]
		keys := d.Keys(int(party)%sharing.NumParties + 1)
		tr, err := decodeTriple(data, req, keys)
		if err != nil {
			return
		}
		want, err := req.order().Layout()
		if err != nil {
			t.Fatal(err)
		}
		shape := func(b sharing.Bundle) [2]int { return [2]int{b.Rows(), b.Cols()} }
		if shape(tr.A) != want.Shapes[sharing.CompA] || shape(tr.C) != want.Shapes[sharing.CompC] {
			t.Fatalf("%s request: accepted A %v, C %v, want %v, %v", req.Kind, shape(tr.A), shape(tr.C),
				want.Shapes[sharing.CompA], want.Shapes[sharing.CompC])
		}
		for _, b := range []sharing.Bundle{tr.A, tr.B, tr.C, tr.Back.A, tr.Back.C} {
			if !b.Primary.IsZeroShape() && b.Validate() != nil {
				t.Fatalf("%s request: accepted an inconsistent bundle", req.Kind)
			}
		}
		if req.BackPair == tr.Back.A.Primary.IsZeroShape() {
			t.Fatalf("%s request (backward pair %t): accepted pair presence %t", req.Kind, req.BackPair, !tr.Back.A.Primary.IsZeroShape())
		}
		if tr.B.Primary.IsZeroShape() && req.Mask == "" {
			t.Fatalf("%s request naming no mask: accepted an item without B", req.Kind)
		}
		it, err := transport.DecodeKeyedItem(data, keys.Party)
		if err != nil {
			t.Fatalf("accepted item does not decode: %v", err)
		}
		if !bytes.Equal(transport.EncodeKeyedItem(it), data) {
			t.Fatal("accepted keyed item does not round-trip")
		}
	})
}

// rawConvBatch frames r as a one-item batch with conv geometry,
// skipping every check the encoder makes — the frame a Byzantine
// requester can send.
func rawConvBatch(r TripleRequest) []byte {
	buf := binary.LittleEndian.AppendUint32(nil, 1)
	buf = append(buf, byte(r.Kind)|convItem)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(r.Session)))
	buf = append(buf, r.Session...)
	for _, d := range r.dims() {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(d))
	}
	buf = appendConv(buf, r.Conv)
	if r.Kind == ReqMatMul {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(r.Mask)))
		buf = append(buf, r.Mask...)
	}
	return buf
}

type badConv struct {
	name string
	req  TripleRequest
}

// badConvRequests are conv requests a Byzantine party could send that
// would make the owner's conv kernel panic, deal at a shape the honest
// parties never asked for, or convolve far more than the stated dims.
func badConvRequests() []badConv {
	paper := ConvRequest("s", "me=1/l0", paperConv, 1, 5)
	mod := func(name string, f func(r *TripleRequest)) badConv {
		r := paper
		f(&r)
		return badConv{name, r}
	}
	return []badConv{
		mod("kernel larger than the padded image", func(r *TripleRequest) { r.Conv.Kernel = 40 }),
		mod("zero stride", func(r *TripleRequest) { r.Conv.Stride = 0 }),
		mod("no channels", func(r *TripleRequest) { r.Conv.InChannels = 0 }),
		mod("N is not the patch size", func(r *TripleRequest) { r.N = 24 }),
		mod("M is not whole images", func(r *TripleRequest) { r.M = 195 }),
		mod("M of no image", func(r *TripleRequest) { r.M = 1 }),
		mod("image width past the cap", func(r *TripleRequest) {
			r.Conv = tensor.ConvShape{InChannels: 1, Height: 1 << 12, Width: 1<<12 + 1, Kernel: 1, Stride: 1 << 12, Pad: 0}
			r.M, r.N = 2, 1
		}),
		mod("field past the cap", func(r *TripleRequest) { r.Conv.Pad = 1<<24 + 1 }),
		mod("patch past the cap", func(r *TripleRequest) {
			r.Conv = tensor.ConvShape{InChannels: 1 << 10, Height: 1 << 7, Width: 1 << 7, Kernel: 1<<7 + 1, Stride: 1 << 7, Pad: 1}
			r.M, r.N = 1, 1<<24
		}),
		mod("geometry on a Hadamard item", func(r *TripleRequest) { r.Kind, r.P, r.Mask = ReqHadamard, 0, "" }),
	}
}

// TestConvRequestHardening: the owner refuses every bad conv request,
// and the encoder refuses to ship one.
func TestConvRequestHardening(t *testing.T) {
	good := ConvRequest("s", "me=1/l0", paperConv, 2, 5)
	if reqs, err := DecodeTripleBatch(rawConvBatch(good)); err != nil || len(reqs) != 1 || reqs[0] != good {
		t.Fatalf("valid conv item: %+v, %v", reqs, err)
	}
	for _, bad := range badConvRequests() {
		t.Run(bad.name, func(t *testing.T) {
			if _, err := DecodeTripleBatch(rawConvBatch(bad.req)); err == nil {
				t.Fatal("batch decoder accepted it")
			}
			if _, err := EncodeTripleBatch([]TripleRequest{bad.req}); err == nil {
				t.Fatal("batch encoder shipped it")
			}
		})
	}
	// A conv item whose geometry is all zero is no conv item.
	if _, err := DecodeTripleBatch(rawConvBatch(TripleRequest{Kind: ReqMatMul, Session: "s", M: 1, N: 2, P: 3})); err == nil {
		t.Fatal("batch decoder accepted a conv item without geometry")
	}
}
