package protocol

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"strings"
	"sync"
	"time"

	"github.com/trustddl/trustddl/internal/obs"
	"github.com/trustddl/trustddl/internal/sharing"
	"github.com/trustddl/trustddl/internal/suspicion"
	"github.com/trustddl/trustddl/internal/transport"
)

// Step labels of the owner-facing wire protocol.
const (
	stepTripleHadamard = "triple-had"
	stepTripleMatMul   = "triple-mat"
	stepAuxPositive    = "aux-pos"
	stepTripleBatch    = "triple-batch"
	stepShutdown       = "shutdown"
	stepRejoin         = "rejoin"
	respSuffix         = "/resp"
	fnPrefix           = "fn/"
	sinkPrefix         = "sink/"
)

// UnaryFunc evaluates a delegated plaintext function at the owner
// (e.g. softmax, §III-C).
type UnaryFunc func(Mat) (Mat, error)

// SinkFunc consumes a value revealed to the owner (e.g. the predicted
// label delivered to the data owner, or trained weights delivered to
// the model owner).
type SinkFunc func(session string, value Mat, dec sharing.Decision)

// OwnerStats summarizes one owner service run.
type OwnerStats struct {
	// TriplesDealt counts Beaver triples and auxiliary matrices dealt.
	TriplesDealt int
	// Calls counts delegated function evaluations.
	Calls int
	// Suspicions counts, per party, how often the owner's decision rule
	// found that party's reconstructions deviating (index 0 unused).
	Suspicions [sharing.NumParties + 1]int
}

// OwnerService runs the request loop of a trusted owner actor: it deals
// Beaver triples and auxiliary values on demand (model-owner role,
// §III-A), evaluates delegated functions over validated reconstructions
// (softmax, §III-C), and accepts revealed values. Both the model owner
// and the data owner instantiate it with their own handler sets.
type OwnerService struct {
	ep     transport.Endpoint
	dealer *sharing.Dealer
	fns    map[string]UnaryFunc
	sinks  map[string]SinkFunc

	// GatherTimeout bounds how long the owner waits for the remaining
	// parties once the first bundle of a session arrived; afterwards it
	// proceeds with zero-filled, flagged placeholders (guaranteed
	// output delivery despite a silent Byzantine party).
	GatherTimeout time.Duration
	// SuspicionTolerance is the max raw-ring deviation an honest
	// reconstruction may show (fixed-point truncation slack).
	SuspicionTolerance float64
	// TripleTTL bounds how long a dealt entry waits for the remaining
	// parties to collect their shares. A crashed or flagged party never
	// requests its share, which would otherwise strand the entry in the
	// triples map forever; after the TTL the entry is retired alongside
	// the expired gathers. Zero or negative disables expiry.
	TripleTTL time.Duration
	// Ledger, when non-nil, receives the owner's detection evidence:
	// gather timeouts (circumstantial) and decision-rule deviations
	// (attributable), alongside the legacy stats.Suspicions counters.
	Ledger *suspicion.Ledger
	// OnRejoin, when non-nil, is called (on the service goroutine) when
	// a computing party announces it restarted and needs to be
	// re-provisioned with the current architecture and weight shares.
	OnRejoin func(party int)
	// Resharer, when set, draws the share randomness of delegated
	// function results (softmax, §III-C) instead of the dealing dealer.
	// Keeping the two streams separate makes the triple stream a pure
	// function of the deal order, so the prefetched offline path stays
	// bit-identical to on-demand dealing no matter how its batched
	// round-trips interleave with delegated calls. Nil falls back to
	// the dealing dealer (single-stream legacy behavior). Set before
	// Run starts.
	Resharer *sharing.Dealer
	// Obs, when non-nil, mirrors the service counters into the live
	// metrics registry (owner.triples.dealt, owner.calls,
	// owner.suspicions). Set before Run starts.
	Obs *obs.Registry

	mu      sync.Mutex
	stats   OwnerStats
	triples map[string]*tripleEntry
	gathers map[string]*gatherEntry
	// masks holds the weight-side masks that named MatMul requests are
	// dealt against (TripleRequest.Mask). A name enters only once two
	// parties collected the deal that drew its mask, and leaves only by
	// the table's oldest-first eviction, which no single party's
	// requests drive: one Byzantine party can neither bind a name the
	// honest parties will use nor unbind one they hold.
	masks sharing.MaskTable
}

type tripleEntry struct {
	bundles [sharing.NumParties]sharing.TripleBundle
	aux     [sharing.NumParties]sharing.Bundle
	isAux   bool
	// maskName is the mask the request named. mask is the plaintext b
	// this deal drew under that name, kept until a second party
	// collects the entry and the name is retained; it is empty for an
	// unnamed deal and for one dealt against a mask already retained.
	maskName string
	mask     Mat
	// served is the bitmask of parties already given their share. A
	// bit, not a counter: a party re-requesting the same item (or
	// listing it twice in a batch) must not retire the entry early —
	// later honest requesters would be dealt a fresh, inconsistent
	// triple.
	served  uint8
	dealtAt time.Time
}

// payloadFor encodes one party's share of the entry, byte-identical
// between the individual and the batched response paths. A triple
// dealt against a retained mask has no B to send: its two bundles
// (A, C) tell the requester to use the B it kept.
func (e *tripleEntry) payloadFor(party int) []byte {
	if e.isAux {
		return transport.EncodeBundle(e.aux[party-1])
	}
	t := e.bundles[party-1]
	if t.B.Primary.IsZeroShape() {
		return transport.EncodeBundles(t.A, t.C)
	}
	return transport.EncodeBundles(t.A, t.B, t.C)
}

type gatherEntry struct {
	step      string
	bundles   map[int]sharing.Bundle
	firstSeen time.Time
}

// NewOwnerService creates a service on ep dealing shares via dealer.
func NewOwnerService(ep transport.Endpoint, dealer *sharing.Dealer) *OwnerService {
	return &OwnerService{
		ep:                 ep,
		dealer:             dealer,
		fns:                make(map[string]UnaryFunc),
		sinks:              make(map[string]SinkFunc),
		GatherTimeout:      party1GatherTimeout,
		SuspicionTolerance: 16,
		TripleTTL:          defaultTripleTTL,
		triples:            make(map[string]*tripleEntry),
		gathers:            make(map[string]*gatherEntry),
	}
}

const (
	party1GatherTimeout = 2 * time.Second
	// defaultTripleTTL is generous against honest skew — all honest
	// parties collect a dealt entry within the same protocol step —
	// while still reclaiming entries stranded by a crashed party.
	defaultTripleTTL = time.Minute
)

// RegisterUnary installs a delegated function under name. Safe to call
// concurrently with a running service.
func (s *OwnerService) RegisterUnary(name string, fn UnaryFunc) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fns[name] = fn
}

// RegisterSink installs a reveal handler under name. Safe to call
// concurrently with a running service.
func (s *OwnerService) RegisterSink(name string, fn SinkFunc) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sinks[name] = fn
}

// Stats returns a snapshot of the service counters.
func (s *OwnerService) Stats() OwnerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Run serves requests until a shutdown message arrives or the endpoint
// closes. It is typically run on its own goroutine; Shutdown (from an
// owner actor — computing parties cannot stop the service) or closing
// the network stops it.
func (s *OwnerService) Run() error {
	const poll = 25 * time.Millisecond
	for {
		msg, err := s.ep.Recv(poll)
		if err != nil {
			if errors.Is(err, transport.ErrTimeout) {
				s.expireGathers()
				s.expireTriples()
				continue
			}
			if errors.Is(err, transport.ErrClosed) {
				return nil
			}
			return err
		}
		if msg.Step == stepShutdown {
			// Only the trusted owners (or the service's own actor) may
			// stop the service. From carries the transport's pinned
			// sender identity — proven cryptographically on a keyed TCP
			// mesh, by construction in process — so a Byzantine
			// computing party cannot forge this command there; an
			// unkeyed TCP mesh only screens by source address.
			if msg.From == transport.ModelOwner || msg.From == transport.DataOwner || msg.From == s.ep.Self() {
				return nil
			}
			continue
		}
		derr := s.dispatch(msg)
		// Every handler copies what it keeps out of the payload, so the
		// frame buffer recycles as soon as dispatch returns.
		msg.Release()
		if derr != nil {
			return fmt.Errorf("protocol: owner %s handling %q/%q from %s: %w",
				transport.ActorName(s.ep.Self()), msg.Session, msg.Step, transport.ActorName(msg.From), derr)
		}
		s.expireGathers()
		s.expireTriples()
	}
}

// Shutdown asks the service attached to actor `owner` to stop.
func Shutdown(ep transport.Endpoint, owner int) error {
	return ep.Send(transport.Message{To: owner, Step: stepShutdown})
}

func (s *OwnerService) dispatch(msg transport.Message) error {
	switch {
	case msg.Step == stepTripleHadamard || msg.Step == stepTripleMatMul || msg.Step == stepAuxPositive:
		return s.handleDeal(msg)
	case msg.Step == stepTripleBatch:
		return s.handleBatchDeal(msg)
	case strings.HasPrefix(msg.Step, fnPrefix):
		return s.handleGather(msg)
	case strings.HasPrefix(msg.Step, sinkPrefix):
		return s.handleGather(msg)
	case msg.Step == stepRejoin:
		// A restarted party announces itself; the session driver decides
		// when to re-deal arch + weight shares (see core.TrainSession).
		if msg.From >= 1 && msg.From <= sharing.NumParties && s.OnRejoin != nil {
			s.OnRejoin(msg.From)
		}
		return nil
	default:
		// Unknown steps are ignored: a Byzantine party must not be able
		// to crash the owner with garbage.
		return nil
	}
}

func (s *OwnerService) handleDeal(msg transport.Message) error {
	from := msg.From
	if from < 1 || from > sharing.NumParties {
		return nil // only computing parties may request triples
	}
	req, err := reqFromWire(msg.Step, msg.Payload)
	if err != nil {
		return nil // malformed request from a (possibly Byzantine) party: ignore
	}
	req.Session = msg.Session
	reqs := []TripleRequest{req}
	entries, err := s.ensureDealt(reqs)
	if err != nil {
		return nil
	}
	err = s.ep.Send(transport.Message{To: from, Session: msg.Session, Step: msg.Step + respSuffix, Payload: entries[0].payloadFor(from)})
	if err != nil {
		return err
	}
	s.markServed(reqs, from)
	return nil
}

// handleBatchDeal serves N dealing requests carried by one message with
// N item payloads in one response — a whole plan segment costs one
// round-trip and one frame instead of N (the offline-phase pipeline).
// Malformed or implausible batches are ignored: a Byzantine requester
// only hurts itself.
func (s *OwnerService) handleBatchDeal(msg transport.Message) error {
	from := msg.From
	if from < 1 || from > sharing.NumParties {
		return nil
	}
	reqs, err := DecodeTripleBatch(msg.Payload)
	if err != nil {
		return nil
	}
	entries, err := s.ensureDealt(reqs)
	if err != nil {
		return nil
	}
	items := make([][]byte, len(entries))
	for i, e := range entries {
		items[i] = e.payloadFor(from)
	}
	err = s.ep.Send(transport.Message{To: from, Session: msg.Session, Step: stepTripleBatch + respSuffix, Payload: encodeBatchPayloads(items)})
	if err != nil {
		return err
	}
	s.markServed(reqs, from)
	return nil
}

// ensureDealt returns one dealt entry per request, dealing all missing
// items in a single dealer batch (independent products run
// concurrently there). Entries are keyed by (kind, session, dims,
// mask) — not session alone — so a Byzantine first-requester announcing
// wrong dims or another mask for a session gets its own useless entry
// instead of poisoning the honest parties' triple, and so batched and
// individual requests for the same item converge on the same entry
// regardless of each party's prefetch depth. Whether a named request
// is dealt against a retained mask or draws a new one is decided here,
// once per key: every party that collects the entry gets the same
// answer.
func (s *OwnerService) ensureDealt(reqs []TripleRequest) ([]*tripleEntry, error) {
	entries := make([]*tripleEntry, len(reqs))
	var missing []int
	var orders []sharing.BatchOrder
	seen := make(map[string]bool, len(reqs))
	s.mu.Lock()
	for i, r := range reqs {
		key := r.Key()
		if e, ok := s.triples[key]; ok {
			entries[i] = e
		} else if !seen[key] {
			seen[key] = true
			missing = append(missing, i)
			order := r.order()
			order.Against = s.masks.Get(r.Mask, r.N, r.P)
			orders = append(orders, order)
		}
		// Duplicate keys inside one batch resolve below, after dealing.
	}
	s.mu.Unlock()
	if len(missing) > 0 {
		items, err := s.dealer.DealBatch(orders)
		if err != nil {
			return nil, err
		}
		now := time.Now()
		s.mu.Lock()
		for oi, i := range missing {
			key := reqs[i].Key()
			if existing, raced := s.triples[key]; raced {
				entries[i] = existing
				continue
			}
			e := &tripleEntry{bundles: items[oi].Triple, aux: items[oi].Aux, isAux: items[oi].IsAux, dealtAt: now}
			if e.maskName = reqs[i].Mask; e.maskName != "" {
				e.mask = items[oi].Mask
			}
			s.triples[key] = e
			s.stats.TriplesDealt++
			s.Obs.Counter("owner.triples.dealt").Inc()
			entries[i] = e
		}
		s.mu.Unlock()
	}
	s.mu.Lock()
	for i, r := range reqs {
		if entries[i] == nil {
			entries[i] = s.triples[r.Key()]
		}
	}
	s.mu.Unlock()
	for i, e := range entries {
		if e == nil {
			return nil, fmt.Errorf("protocol: batch item %d lost its entry", i)
		}
	}
	return entries, nil
}

// markServed records that party `from` received its share of each
// request, retiring entries once every party collected theirs. The
// second collector of a deal that drew a named mask retains the mask:
// at least one of the two is honest, so the name is one the honest
// parties cache under too.
func (s *OwnerService) markServed(reqs []TripleRequest, from int) {
	bit := uint8(1) << uint(from-1)
	const all = uint8(1<<sharing.NumParties) - 1
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range reqs {
		key := r.Key()
		e, ok := s.triples[key]
		if !ok {
			continue
		}
		e.served |= bit
		if !e.mask.IsZeroShape() && bits.OnesCount8(e.served) >= 2 {
			s.retainMask(e.maskName, e.mask)
			e.mask = Mat{}
		}
		if e.served == all {
			delete(s.triples, key)
		}
	}
}

// retainMask binds name to b and drops every pending pair dealt
// against a mask this unbinds (the evicted oldest name's, or name's own
// earlier one): no later request under that name will be told of that
// mask, and whoever collected the pair would combine it with shares of
// another. Called with s.mu held.
func (s *OwnerService) retainMask(name string, b Mat) {
	unbound := s.masks.Put(name, b)
	if unbound == "" {
		return
	}
	for key, e := range s.triples {
		if e.maskName == unbound && e.bundles[0].B.Primary.IsZeroShape() {
			delete(s.triples, key)
		}
	}
}

// expireTriples retires dealt entries that not every party collected
// within TripleTTL (a crashed or flagged party strands them
// otherwise). Honest peers that still ask for an expired entry are
// simply dealt a fresh one — all parties still waiting on it request
// within the same protocol step, far inside the TTL.
func (s *OwnerService) expireTriples() {
	if s.TripleTTL <= 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for key, e := range s.triples {
		if time.Since(e.dealtAt) >= s.TripleTTL {
			delete(s.triples, key)
		}
	}
}

func (s *OwnerService) handleGather(msg transport.Message) error {
	from := msg.From
	if from < 1 || from > sharing.NumParties {
		return nil
	}
	bundle, err := transport.DecodeBundle(msg.Payload)
	if err != nil {
		return nil // corrupted payload: the gather timeout will flag it
	}
	s.mu.Lock()
	g, ok := s.gathers[msg.Session+"|"+msg.Step]
	if !ok {
		g = &gatherEntry{step: msg.Step, bundles: make(map[int]sharing.Bundle, sharing.NumParties), firstSeen: time.Now()}
		s.gathers[msg.Session+"|"+msg.Step] = g
	}
	g.bundles[from] = bundle
	complete := len(g.bundles) == sharing.NumParties
	if complete {
		delete(s.gathers, msg.Session+"|"+msg.Step)
	}
	s.mu.Unlock()
	if complete {
		return s.finishGather(msg.Session, g)
	}
	return nil
}

func (s *OwnerService) expireGathers() {
	s.mu.Lock()
	var due []struct {
		session string
		g       *gatherEntry
	}
	for key, g := range s.gathers {
		if time.Since(g.firstSeen) >= s.GatherTimeout && len(g.bundles) >= sharing.NumParties-1 {
			session := key[:strings.LastIndex(key, "|")]
			due = append(due, struct {
				session string
				g       *gatherEntry
			}{session, g})
			delete(s.gathers, key)
		}
	}
	s.mu.Unlock()
	for _, d := range due {
		// Errors here would already have been surfaced by Run for
		// complete gathers; keep serving on best effort.
		_ = s.finishGather(d.session, d.g)
	}
}

func (s *OwnerService) finishGather(session string, g *gatherEntry) error {
	// Assemble bundles, zero-filling and flagging absent parties.
	var shape sharing.Bundle
	for _, b := range g.bundles {
		shape = b
		break
	}
	var per [sharing.NumParties]sharing.Bundle
	var missing []int
	for p := 1; p <= sharing.NumParties; p++ {
		if b, ok := g.bundles[p]; ok {
			per[p-1] = b
		} else {
			per[p-1] = zeroBundlesLike([]sharing.Bundle{shape})[0]
			missing = append(missing, p)
		}
	}
	sets, err := sharing.CollectSets(per)
	if err != nil {
		return err
	}
	rec, err := sharing.ReconstructSix(sets)
	if err != nil {
		return err
	}
	for _, p := range missing {
		rec.FlagParty(p)
	}
	// Row-wise decision: gathered results may be batches whose rows are
	// independent per-image values; deciding per row keeps each row's
	// reveal independent of the other rows' truncation carries.
	value, dec, err := rec.DecideRows()
	if err != nil {
		return err
	}
	for _, p := range missing {
		s.Ledger.Record(p, suspicion.KindGatherTimeout, session, g.step)
	}
	if suspect := rec.Suspect(value, s.SuspicionTolerance); suspect != 0 {
		s.mu.Lock()
		s.stats.Suspicions[suspect]++
		s.mu.Unlock()
		s.Obs.Counter("owner.suspicions").Inc()
		// Only a present-but-deviating party earns attributable evidence;
		// an absent one was already recorded as a (circumstantial) gather
		// timeout — its zero-filled placeholder trivially deviates.
		if _, present := g.bundles[suspect]; present {
			s.Ledger.Record(suspect, suspicion.KindDecisionDeviation, session, g.step)
		}
	}

	switch {
	case strings.HasPrefix(g.step, sinkPrefix):
		s.mu.Lock()
		fn, ok := s.sinks[strings.TrimPrefix(g.step, sinkPrefix)]
		s.mu.Unlock()
		if ok {
			fn(session, value, dec)
		}
		return nil
	case strings.HasPrefix(g.step, fnPrefix):
		s.mu.Lock()
		fn, ok := s.fns[strings.TrimPrefix(g.step, fnPrefix)]
		s.mu.Unlock()
		if !ok {
			return fmt.Errorf("protocol: no delegated function %q", g.step)
		}
		out, err := fn(value)
		if err != nil {
			return fmt.Errorf("protocol: delegated %q: %w", g.step, err)
		}
		s.mu.Lock()
		s.stats.Calls++
		s.mu.Unlock()
		s.Obs.Counter("owner.calls").Inc()
		resharer := s.Resharer
		if resharer == nil {
			resharer = s.dealer
		}
		bundles, err := resharer.Share(out)
		if err != nil {
			return err
		}
		for p := 1; p <= sharing.NumParties; p++ {
			err := s.ep.Send(transport.Message{
				To:      p,
				Session: session,
				Step:    g.step + respSuffix,
				Payload: transport.EncodeBundle(bundles[p-1]),
			})
			if err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("protocol: unexpected gather step %q", g.step)
	}
}

// --- Party-side client calls ---

// RequestHadamardTriple asks the model owner for an element-wise Beaver
// triple. All three parties must request the same session.
func RequestHadamardTriple(ctx *Ctx, session string, rows, cols int) (sharing.TripleBundle, error) {
	payload := encodeDims(rows, cols)
	if err := ctx.Router.Send(transport.ModelOwner, session, stepTripleHadamard, payload); err != nil {
		return sharing.TripleBundle{}, err
	}
	msg, err := ctx.Router.Expect(transport.ModelOwner, session, stepTripleHadamard+respSuffix)
	if err != nil {
		return sharing.TripleBundle{}, err
	}
	t, err := decodeTriple(msg.Payload)
	msg.Release() // triple shares are copied out of the payload
	return t, err
}

// RequestMatMulTriple asks the model owner for a matrix-product Beaver
// triple with a m×n and b n×p, dealt against the named mask (empty: a
// single-use b). The returned B is empty when the owner still held the
// named mask and dealt only (A, C = A·b).
func RequestMatMulTriple(ctx *Ctx, session, mask string, m, n, p int) (sharing.TripleBundle, error) {
	payload := TripleRequest{Kind: ReqMatMul, M: m, N: n, P: p, Mask: mask}.payload()
	if err := ctx.Router.Send(transport.ModelOwner, session, stepTripleMatMul, payload); err != nil {
		return sharing.TripleBundle{}, err
	}
	msg, err := ctx.Router.Expect(transport.ModelOwner, session, stepTripleMatMul+respSuffix)
	if err != nil {
		return sharing.TripleBundle{}, err
	}
	t, err := decodeTriple(msg.Payload)
	msg.Release()
	return t, err
}

// RequestAuxPositive asks the model owner for the auxiliary positive
// matrix consumed by SecComp-BT.
func RequestAuxPositive(ctx *Ctx, session string, rows, cols int) (sharing.Bundle, error) {
	payload := encodeDims(rows, cols)
	if err := ctx.Router.Send(transport.ModelOwner, session, stepAuxPositive, payload); err != nil {
		return sharing.Bundle{}, err
	}
	msg, err := ctx.Router.Expect(transport.ModelOwner, session, stepAuxPositive+respSuffix)
	if err != nil {
		return sharing.Bundle{}, err
	}
	b, err := transport.DecodeBundle(msg.Payload)
	msg.Release()
	return b, err
}

// CallOwner evaluates the delegated function `name` at actor `owner`
// over a shared argument and returns this party's bundle of the result
// (the softmax delegation path of §III-C). A Byzantine party corrupts
// what it sends to the owner too; the owner's decision rule recovers.
func CallOwner(ctx *Ctx, owner int, name, session string, arg sharing.Bundle) (sharing.Bundle, error) {
	step := fnPrefix + name
	if ctx.Adversary != nil {
		arg = ctx.Adversary.CorruptPreCommit(session, step, []sharing.Bundle{arg.Clone()})[0]
	}
	if err := ctx.Router.Send(owner, session, step, transport.EncodeBundle(arg)); err != nil {
		return sharing.Bundle{}, err
	}
	msg, err := ctx.Router.Expect(owner, session, step+respSuffix)
	if err != nil {
		return sharing.Bundle{}, err
	}
	b, err := transport.DecodeBundle(msg.Payload)
	msg.Release()
	return b, err
}

// SendToSink reveals a shared value to actor `owner` under sink `name`
// (predictions to the data owner, trained weights to the model owner).
// Byzantine corruption applies here as well.
func SendToSink(ctx *Ctx, owner int, name, session string, arg sharing.Bundle) error {
	if ctx.Adversary != nil {
		arg = ctx.Adversary.CorruptPreCommit(session, sinkPrefix+name, []sharing.Bundle{arg.Clone()})[0]
	}
	return ctx.Router.Send(owner, session, sinkPrefix+name, transport.EncodeBundle(arg))
}

// AnnounceRejoin tells the model owner this party (re)started with no
// session state, so the session driver re-provisions it with the
// architecture and current weight shares from the latest checkpoint.
func AnnounceRejoin(ctx *Ctx) error {
	return ctx.Router.Send(transport.ModelOwner, "", stepRejoin, nil)
}

// decodeTriple parses a deal response: three bundles (A, B, C), or two
// (A, C) for a triple dealt against a mask the owner retained.
func decodeTriple(payload []byte) (sharing.TripleBundle, error) {
	want := 3
	if len(payload) >= 8 && binary.LittleEndian.Uint64(payload) == 6 { // the matrix count of two bundles
		want = 2
	}
	bs, err := transport.DecodeBundles(payload, want)
	if err != nil {
		return sharing.TripleBundle{}, err
	}
	if want == 2 {
		return sharing.TripleBundle{A: bs[0], C: bs[1]}, nil
	}
	return sharing.TripleBundle{A: bs[0], B: bs[1], C: bs[2]}, nil
}

func encodeDims(dims ...int) []byte {
	buf := make([]byte, 0, 4*len(dims))
	for _, d := range dims {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(d))
	}
	return buf
}

func decodeDims(buf []byte) ([]int, error) {
	if len(buf) == 0 || len(buf)%4 != 0 {
		return nil, fmt.Errorf("protocol: malformed dims payload (%d bytes)", len(buf))
	}
	out := make([]int, len(buf)/4)
	for i := range out {
		v := binary.LittleEndian.Uint32(buf[4*i:])
		if v == 0 || v > (1<<24) {
			return nil, fmt.Errorf("protocol: implausible dimension %d", v)
		}
		out[i] = int(v)
	}
	return out, nil
}
