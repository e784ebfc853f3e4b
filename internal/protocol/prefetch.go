package protocol

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/trustddl/trustddl/internal/sharing"
	"github.com/trustddl/trustddl/internal/transport"
)

// defaultPrefetchDepth is the process-wide pipeline depth applied when
// a caller passes depth 0 to NewPrefetchSource. 0 keeps prefetching
// off by default; cmd flags and the root trustddl knob change it.
var defaultPrefetchDepth atomic.Int64

// SetDefaultPrefetchDepth sets the process-wide prefetch pipeline
// depth used when no explicit depth is configured and returns the
// value actually applied. Negative values are treated as 0 (off).
func SetDefaultPrefetchDepth(n int) int {
	if n < 0 {
		n = 0
	}
	defaultPrefetchDepth.Store(int64(n))
	return n
}

// DefaultPrefetchDepth returns the process-wide prefetch depth.
func DefaultPrefetchDepth() int {
	return int(defaultPrefetchDepth.Load())
}

// errUnplanned marks a request that the prefetch plan does not cover;
// the source falls back to the on-demand dealing path for it.
var errUnplanned = fmt.Errorf("protocol: triple request not in prefetch plan")

// PrefetchSource decorates the on-demand owner dealing path with a
// plan-driven pipeline: the ordered triple plan of the upcoming
// forward pass or training step is cut into segments of `depth`
// requests, each fetched with one batched owner round-trip, and the
// segment after the one being consumed is requested in the background
// while the current layers compute and exchange. The owner RTTs thus
// overlap the online rounds instead of serializing with them — the
// offline/online split of the preprocessing model (§III-A), realised
// as a pipeline. Requests outside the plan fall back to on-demand
// dealing; consumption must follow plan order (the layer walk that
// produced the plan guarantees this).
//
// A PrefetchSource serves one protocol session and is not safe for
// concurrent use, matching the layer code that consumes it. Close
// must be called when the pass ends (normally or on error) so
// in-flight responses do not linger in the router's pending buffer.
type PrefetchSource struct {
	ctx  *Ctx
	segs [][]TripleRequest
	// envBase namespaces the batch envelope sessions of this plan.
	envBase string
	// planned counts, per request key, deliveries not yet consumed.
	planned map[string]int
	// cache holds delivered payloads not yet consumed, FIFO per key.
	cache map[string][][]byte
	// nextRecv is the next segment index to receive (consumer-side).
	nextRecv int

	sendCh chan int
	wg     sync.WaitGroup
	closed bool

	mu       sync.Mutex
	sendErr  error
	numSent  int
	enqueued int
}

// NewPrefetchSource builds a pipeline over plan with the given segment
// depth and immediately requests the first segment. depth 0 selects
// the process default; if the resolved depth or the plan is empty, it
// returns nil and the caller should use the undecorated source.
func NewPrefetchSource(ctx *Ctx, plan []TripleRequest, depth int) *PrefetchSource {
	if depth == 0 {
		depth = DefaultPrefetchDepth()
	}
	if depth <= 0 || len(plan) == 0 {
		return nil
	}
	var segs [][]TripleRequest
	for len(plan) > 0 {
		n := depth
		if n > len(plan) {
			n = len(plan)
		}
		segs = append(segs, plan[:n])
		plan = plan[n:]
	}
	p := &PrefetchSource{
		ctx:     ctx,
		segs:    segs,
		envBase: segs[0][0].Session,
		planned: make(map[string]int),
		cache:   make(map[string][][]byte),
		sendCh:  make(chan int, len(segs)),
	}
	for _, seg := range segs {
		for _, r := range seg {
			p.planned[r.Key()]++
		}
	}
	p.wg.Add(1)
	go p.sender()
	p.enqueue() // segment 0 goes out before the first layer runs
	return p
}

// envSession names the batch envelope of segment k. The '#' suffix
// cannot collide with layer-minted sessions (they extend the prefix
// with '/' path elements only).
func (p *PrefetchSource) envSession(k int) string {
	return fmt.Sprintf("%s#pf%d", p.envBase, k)
}

// sender issues batched requests in segment order on its own
// goroutine, off the protocol critical path.
func (p *PrefetchSource) sender() {
	defer p.wg.Done()
	for k := range p.sendCh {
		payload, err := EncodeTripleBatch(p.segs[k])
		if err == nil {
			err = p.ctx.Router.Send(transport.ModelOwner, p.envSession(k), stepTripleBatch, payload)
		}
		p.mu.Lock()
		if err != nil {
			p.sendErr = err
			p.mu.Unlock()
			return
		}
		p.numSent++
		p.mu.Unlock()
	}
}

// enqueue hands the next unsent segment to the sender, if any.
func (p *PrefetchSource) enqueue() {
	if p.enqueued < len(p.segs) {
		p.sendCh <- p.enqueued
		p.enqueued++
	}
}

// next returns the delivered payload for req, receiving segments in
// order until it shows up. Only the consuming protocol goroutine
// calls this (the router is single-consumer).
func (p *PrefetchSource) next(req TripleRequest) ([]byte, error) {
	key := req.Key()
	if p.planned[key] == 0 {
		return nil, errUnplanned
	}
	p.planned[key]--
	for {
		if q := p.cache[key]; len(q) > 0 {
			payload := q[0]
			q[0] = nil
			p.cache[key] = q[1:]
			return payload, nil
		}
		if p.nextRecv >= len(p.segs) {
			return nil, fmt.Errorf("protocol: prefetch plan exhausted before %s", key)
		}
		if err := p.recvSegment(); err != nil {
			return nil, err
		}
	}
}

// recvSegment blocks for the next segment's batch response, caches its
// items and pipelines the following segment's request.
func (p *PrefetchSource) recvSegment() error {
	p.mu.Lock()
	err := p.sendErr
	p.mu.Unlock()
	if err != nil {
		return fmt.Errorf("protocol: prefetch send failed: %w", err)
	}
	k := p.nextRecv
	msg, err := p.ctx.Router.Expect(transport.ModelOwner, p.envSession(k), stepTripleBatch+respSuffix)
	if err != nil {
		return err
	}
	items, err := decodeBatchPayloads(msg.Payload)
	if err != nil {
		return err
	}
	if len(items) != len(p.segs[k]) {
		return fmt.Errorf("protocol: prefetch segment %d: got %d items, planned %d", k, len(items), len(p.segs[k]))
	}
	p.nextRecv++
	for i, r := range p.segs[k] {
		key := r.Key()
		p.cache[key] = append(p.cache[key], items[i])
	}
	p.enqueue() // keep the pipeline one segment ahead
	return nil
}

// MatMulTriple implements the TripleSource contract of internal/nn.
func (p *PrefetchSource) MatMulTriple(session, mask string, m, n, pp int) (sharing.TripleBundle, error) {
	req := TripleRequest{Kind: ReqMatMul, Session: session, M: m, N: n, P: pp, Mask: mask}
	payload, err := p.next(req)
	if err == errUnplanned {
		return RequestMatMulTriple(p.ctx, session, mask, m, n, pp)
	}
	if err != nil {
		return sharing.TripleBundle{}, err
	}
	return decodeTriple(payload)
}

// HadamardTriple implements the TripleSource contract of internal/nn.
func (p *PrefetchSource) HadamardTriple(session string, rows, cols int) (sharing.TripleBundle, error) {
	req := TripleRequest{Kind: ReqHadamard, Session: session, M: rows, N: cols}
	payload, err := p.next(req)
	if err == errUnplanned {
		return RequestHadamardTriple(p.ctx, session, rows, cols)
	}
	if err != nil {
		return sharing.TripleBundle{}, err
	}
	return decodeTriple(payload)
}

// AuxPositive implements the TripleSource contract of internal/nn.
func (p *PrefetchSource) AuxPositive(session string, rows, cols int) (sharing.Bundle, error) {
	req := TripleRequest{Kind: ReqAux, Session: session, M: rows, N: cols}
	payload, err := p.next(req)
	if err == errUnplanned {
		return RequestAuxPositive(p.ctx, session, rows, cols)
	}
	if err != nil {
		return sharing.Bundle{}, err
	}
	return transport.DecodeBundle(payload)
}

// Close stops the sender and drains responses of segments already
// requested but not yet received, so they do not sit in the router's
// pending buffer and confuse a later pass. Best effort: on transport
// errors (including a dead owner) it returns after the first failure.
func (p *PrefetchSource) Close() error {
	if p.closed {
		return nil
	}
	p.closed = true
	close(p.sendCh)
	p.wg.Wait()
	p.mu.Lock()
	sent := p.numSent
	sendErr := p.sendErr
	p.mu.Unlock()
	if sendErr != nil {
		return nil // the request never left; nothing to drain
	}
	for k := p.nextRecv; k < sent; k++ {
		if _, err := p.ctx.Router.Expect(transport.ModelOwner, p.envSession(k), stepTripleBatch+respSuffix); err != nil {
			return err
		}
	}
	p.nextRecv = sent
	return nil
}
