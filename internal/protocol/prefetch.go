package protocol

import (
	"fmt"

	"github.com/trustddl/trustddl/internal/sharing"
	"github.com/trustddl/trustddl/internal/tensor"
	"github.com/trustddl/trustddl/internal/transport"
)

// segmentSize is the number of plan requests one batched owner message
// carries. The first segment must arrive before the first layer can
// run, so it is kept small; every later one is requested as its
// predecessor arrives and has until the layers reach it to come back.
// At 4, the Table I inference plan (5 requests) is two owner messages
// per party, the second hidden behind the conv, ReLU, fc1 and ReLU
// rounds, and a training step (8) is two. One whole-plan message
// was slower (DESIGN.md §9): the first layer then waits for every
// layer's deal.
const segmentSize = 4

// PrefetchSource is a party's online dealing path for one pass: it
// walks the pass's triple plan (nn.LogitsPlan / nn.TrainPlan) in
// segments of segmentSize requests, each dealt by one batched owner
// round trip, and keeps one segment in flight — segment k+1 is
// requested the moment segment k arrives — so the owner's round trips
// overlap the online rounds instead of serialising with them (the
// offline/online split of §III-A, realised as a pipeline). The layers
// consume the plan in order. A request that matches a later plan entry
// moves the cursor there, receiving and releasing the segments of the
// entries it skips, so one request off the plan costs one on-demand
// deal and strands nothing; a request the plan does not hold is dealt
// on demand and leaves the cursor where it is.
//
// A PrefetchSource serves one protocol session on the party's
// goroutine and is not safe for concurrent use. Close must be called
// when the pass ends, normally or not.
type PrefetchSource struct {
	ctx  *Ctx
	plan []TripleRequest
	// keys are the model owner's dealing keys the items expand with.
	keys sharing.PartyKeys
	// next is the plan cursor: the request the layers make next.
	next int
	// sent and recvd count the segments requested and received.
	sent, recvd int
	sendErr     error
	// msg is the segment in hand and items its per-request payloads,
	// which alias msg's frame.
	msg   transport.Message
	items [][]byte
}

// NewPrefetchSource requests the first segment of plan and returns the
// source the pass's layers draw from. An empty plan deals everything on
// demand.
func NewPrefetchSource(ctx *Ctx, plan []TripleRequest) *PrefetchSource {
	p := &PrefetchSource{ctx: ctx, plan: plan}
	if p.keys, p.sendErr = ctx.keysOf(transport.ModelOwner); p.sendErr == nil {
		p.send() // segment 0 goes out before the first layer runs
	}
	return p
}

// segment returns the requests of segment k.
func (p *PrefetchSource) segment(k int) []TripleRequest {
	return p.plan[k*segmentSize : min((k+1)*segmentSize, len(p.plan))]
}

// envSession names the batch envelope of segment k. The '#' suffix
// cannot collide with layer-minted sessions (they extend the prefix
// with '/' path elements only).
func (p *PrefetchSource) envSession(k int) string {
	return fmt.Sprintf("%s#pf%d", p.plan[0].Session, k)
}

// send requests the next segment, if one is left. A failed send is
// reported when the layers reach that segment.
func (p *PrefetchSource) send() {
	if p.sent*segmentSize >= len(p.plan) || p.sendErr != nil {
		return
	}
	if err := sendBatch(p.ctx, p.envSession(p.sent), p.segment(p.sent)); err != nil {
		p.sendErr = err
		return
	}
	p.sent++
}

// recv waits for the segment the cursor has reached and requests the
// one after it.
func (p *PrefetchSource) recv() error {
	if p.recvd == p.sent {
		return fmt.Errorf("protocol: prefetch send failed: %w", p.sendErr)
	}
	msg, items, err := recvBatch(p.ctx, p.envSession(p.recvd), len(p.segment(p.recvd)))
	if err != nil {
		return err
	}
	p.msg, p.items = msg, items
	p.recvd++
	p.send()
	return nil
}

// take deals req from its plan segment when the plan holds it at or
// after the cursor, skipping the entries before it, and on demand
// otherwise. A segment's frame is released as soon as the cursor
// leaves it.
func (p *PrefetchSource) take(req TripleRequest) (sharing.TripleBundle, error) {
	at := p.next
	for at < len(p.plan) && p.plan[at] != req {
		at++
	}
	if at == len(p.plan) {
		return RequestTriple(p.ctx, req)
	}
	for ; p.next < at; p.advance() {
		if err := p.hold(); err != nil {
			return sharing.TripleBundle{}, err
		}
	}
	if err := p.hold(); err != nil {
		return sharing.TripleBundle{}, err
	}
	t, err := decodeTriple(p.items[p.next%segmentSize], req, p.keys)
	p.advance()
	return t, err
}

// hold makes sure the segment of the cursor's entry is in hand.
func (p *PrefetchSource) hold() error {
	if p.next/segmentSize == p.recvd {
		return p.recv()
	}
	return nil
}

// advance moves the cursor past its entry, releasing the segment when
// the cursor leaves it.
func (p *PrefetchSource) advance() {
	p.next++
	if p.next%segmentSize == 0 || p.next == len(p.plan) {
		p.release()
	}
}

// release returns the frame of the segment in hand.
func (p *PrefetchSource) release() {
	p.msg.Release()
	p.msg, p.items = transport.Message{}, nil
}

// MatMulTriple implements the TripleSource contract of internal/nn.
func (p *PrefetchSource) MatMulTriple(session, mask string, m, n, pp int, backPair bool) (sharing.TripleBundle, error) {
	return p.take(TripleRequest{Kind: ReqMatMul, Session: session, M: m, N: n, P: pp, Mask: mask, BackPair: backPair})
}

// ConvTriple implements the TripleSource contract of internal/nn.
func (p *PrefetchSource) ConvTriple(session, mask string, shape tensor.ConvShape, images, outChannels int, backPair bool) (sharing.TripleBundle, error) {
	r := ConvRequest(session, mask, shape, images, outChannels)
	r.BackPair = backPair
	return p.take(r)
}

// CompTriple implements the TripleSource contract of internal/nn.
func (p *PrefetchSource) CompTriple(session string, rows, cols int) (sharing.TripleBundle, error) {
	return p.take(TripleRequest{Kind: ReqAux, Session: session, M: rows, N: cols})
}

// Close ends the pass. A segment still in flight — the pass failed or
// hit its deadline before reaching it — is discarded by the router when
// it arrives, so it neither blocks Close nor lingers in the router's
// buffer behind later passes.
func (p *PrefetchSource) Close() {
	for ; p.recvd < p.sent; p.recvd++ {
		p.ctx.Router.Discard(transport.ModelOwner, p.envSession(p.recvd), stepTripleBatch+respSuffix)
	}
	p.release()
}
