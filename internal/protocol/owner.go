package protocol

import (
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
	stepTripleBatch = "triple-batch"
	stepShutdown    = "shutdown"
	stepRejoin      = "rejoin"
	respSuffix      = "/resp"
	fnPrefix        = "fn/"
	sinkPrefix      = "sink/"
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
	// TriplesDealt counts the items dealt: Beaver triples and
	// comparison items.
	TriplesDealt int
	// Calls counts delegated function evaluations.
	Calls int
	// Suspicions counts, per party, how often the owner's decision rule
	// found that party's reconstructions deviating (index 0 unused).
	Suspicions [sharing.NumParties + 1]int
}

// OwnerService runs the request loop of a trusted owner actor: it deals
// Beaver triples and comparison items on demand (model-owner role,
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
	// Obs, when non-nil, mirrors the service counters into the live
	// metrics registry (owner.triples.dealt, owner.calls,
	// owner.suspicions). Set before Run starts.
	Obs *obs.Registry

	// resharer deals delegated function results (softmax, §III-C) with
	// the dealer's keys in its own label domain and deal counter
	// (sharing.Dealer.Resharer), so the triple stream is a pure function
	// of the deal order: the prefetched path stays bit-identical to
	// on-demand dealing however its round trips interleave with
	// delegated calls.
	resharer *sharing.Dealer

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
	deal sharing.KeyedDeal
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
		resharer:           dealer.Resharer(),
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

// handleBatchDeal serves N dealing requests carried by one message with
// N item payloads in one response — a whole plan segment costs one
// round-trip and one frame instead of N (the offline-phase pipeline),
// and a request off the plan is a batch of one. It is the owner's only
// deal path. Malformed or implausible batches are ignored: a Byzantine
// requester only hurts itself.
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
	items := make([]sharing.KeyedItem, len(entries))
	for i, e := range entries {
		items[i] = e.deal.Party[from-1]
	}
	err = s.ep.Send(transport.Message{To: from, Session: msg.Session, Step: stepTripleBatch + respSuffix, Payload: encodeBatchResponse(items)})
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
// instead of poisoning the honest parties' triple, and so a plan
// segment's item and a one-item batch for the same key converge on the
// same entry (a party whose layers leave the plan asks for each item
// alone). Whether a named request is dealt against a retained mask or
// draws a new one is decided here, once per key: every party that
// collects the entry gets the same answer.
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
		items, err := s.dealer.Deal(orders)
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
			e := &tripleEntry{deal: items[oi], dealtAt: now}
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
		if e.maskName == unbound && !e.deal.Party[0].Has(sharing.CompB) {
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
	if suspect := rec.Suspect(s.SuspicionTolerance); suspect != 0 {
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
		items, err := s.resharer.DealValue(out)
		if err != nil {
			return err
		}
		return DistributeShares(s.ep, session, g.step+respSuffix, items)
	default:
		return fmt.Errorf("protocol: unexpected gather step %q", g.step)
	}
}

// --- Party-side client calls ---

// RequestTriple deals one triple request in a batch of one. All three
// parties must make the same request. The batch's envelope session is
// the request's key: unique per key, and never a plan segment's
// `<session>#pf<k>`, since a key ends in its backward-pair flag.
func RequestTriple(ctx *Ctx, r TripleRequest) (sharing.TripleBundle, error) {
	keys, err := ctx.keysOf(transport.ModelOwner)
	if err != nil {
		return sharing.TripleBundle{}, err
	}
	env := r.Key()
	if err := sendBatch(ctx, env, []TripleRequest{r}); err != nil {
		return sharing.TripleBundle{}, err
	}
	msg, items, err := recvBatch(ctx, env, 1)
	if err != nil {
		return sharing.TripleBundle{}, err
	}
	t, err := decodeTriple(items[0], r, keys)
	msg.Release() // the expansion owns its storage
	return t, err
}

// sendBatch asks the model owner to deal reqs in one batch message
// under envelope session env.
func sendBatch(ctx *Ctx, env string, reqs []TripleRequest) error {
	payload, err := EncodeTripleBatch(reqs)
	if err != nil {
		return err
	}
	return ctx.Router.Send(transport.ModelOwner, env, stepTripleBatch, payload)
}

// recvBatch waits for the owner's answer to the batch of n requests
// sent under env and splits it into their item payloads, which alias
// the returned message's frame.
func recvBatch(ctx *Ctx, env string, n int) (transport.Message, [][]byte, error) {
	msg, err := ctx.Router.Expect(transport.ModelOwner, env, stepTripleBatch+respSuffix)
	if err != nil {
		return transport.Message{}, nil, err
	}
	items, err := decodeBatchPayloads(msg.Payload)
	if err == nil && len(items) != n {
		err = fmt.Errorf("protocol: batch %s: got %d items, asked for %d", env, len(items), n)
	}
	if err != nil {
		msg.Release()
		return transport.Message{}, nil, err
	}
	return msg, items, nil
}

// CallOwner evaluates the delegated function `name` at actor `owner`
// over a shared argument and returns this party's bundle of the result
// (the softmax delegation path of §III-C). A Byzantine party corrupts
// what it sends to the owner too; the owner's decision rule recovers.
func CallOwner(ctx *Ctx, owner int, name, session string, arg sharing.Bundle) (sharing.Bundle, error) {
	step := fnPrefix + name
	keys, err := ctx.keysOf(owner)
	if err != nil {
		return sharing.Bundle{}, err
	}
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
	b, err := expandValue(msg.Payload, keys.Reshare())
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

// decodeTriple parses and expands the keyed item dealt for request r.
// It refuses an item whose components or shapes are not the ones r
// implies: A, B (t for a comparison item), C, plus the backward pair
// exactly when r asks for it; a named MatMul request may also be dealt
// against the mask the owner retained, without B.
func decodeTriple(payload []byte, r TripleRequest, keys sharing.PartyKeys) (sharing.TripleBundle, error) {
	want, err := r.order().Layout()
	if err != nil {
		return sharing.TripleBundle{}, err
	}
	it, err := transport.DecodeKeyedItem(payload, keys.Party)
	if err != nil {
		return sharing.TripleBundle{}, err
	}
	if it.Layout != want && (r.Mask == "" || it.Layout != want.Without(sharing.CompB)) {
		return sharing.TripleBundle{}, fmt.Errorf("protocol: deal %d for a %s request has layout %+v, want %+v",
			it.Deal, r.Kind, it.Layout, want)
	}
	return it.Triple(keys), nil
}
