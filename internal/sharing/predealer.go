package sharing

import (
	"fmt"
	"sync"

	"github.com/trustddl/trustddl/internal/tensor"
)

// PreDealer models the offline phase of triple distribution: all
// correlated randomness is produced by the trusted dealer ahead of
// time, so requesting a triple during the online phase costs no
// network traffic. Views for the three computing parties share one
// PreDealer; the first request for a session deals, later requests
// for the same session return the matching party slots.
//
// A matrix triple requested against a named weight mask follows the
// reuse rule of the online owner: the first deal under a name draws and
// retains b, later ones deal only the input-side pair against it. A
// matrix triple requested with its backward pair carries it in Back.
//
// Entries hold the keyed deal, as the online owner does; each view
// expands its party's item with that party's keys, so the offline path
// runs the same expansion as a party decoding the owner's reply.
//
// PreDealer is safe for concurrent use by the three party goroutines.
type PreDealer struct {
	mu      sync.Mutex
	dealer  *Dealer
	triples map[string]*preTriple
	masks   MaskTable
}

type preTriple struct {
	deal   KeyedDeal
	served int
}

// NewPreDealer wraps a dealer for offline-phase distribution.
func NewPreDealer(d *Dealer) *PreDealer {
	return &PreDealer{
		dealer:  d,
		triples: make(map[string]*preTriple),
	}
}

// View returns the triple source seen by one computing party. The
// returned value satisfies the nn.TripleSource interface.
func (p *PreDealer) View(party int) (*PreView, error) {
	if party < 1 || party > NumParties {
		return nil, fmt.Errorf("sharing: party %d out of range", party)
	}
	return &PreView{dealer: p, party: party, keys: p.dealer.Keys(party)}, nil
}

// matMulKey names the entry of a matrix triple; conv geometry and the
// backward pair are part of it, since they change what is dealt.
func matMulKey(session string, conv tensor.ConvShape, m, n, q int, backPair bool) string {
	return fmt.Sprintf("%s|mm|%dx%dx%d|%v|%t", session, m, n, q, conv, backPair)
}

func (p *PreDealer) matMul(session, mask string, conv tensor.ConvShape, m, n, q int, backPair bool) (*preTriple, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	key := matMulKey(session, conv, m, n, q, backPair)
	if e, ok := p.triples[key]; ok {
		return e, nil
	}
	order := BatchOrder{Kind: TripleMatMul, M: m, N: n, P: q, Against: p.masks.Get(mask, n, q), Conv: conv, BackPair: backPair}
	return p.deal(key, order, mask)
}

// deal deals order as a new entry under key, retaining a freshly drawn
// mask under its name. Called with p.mu held.
func (p *PreDealer) deal(key string, order BatchOrder, mask string) (*preTriple, error) {
	deals, err := p.dealer.Deal([]BatchOrder{order})
	if err != nil {
		return nil, err
	}
	if mask != "" && order.Against.IsZeroShape() {
		p.masks.Put(mask, deals[0].Mask)
	}
	e := &preTriple{deal: deals[0]}
	p.triples[key] = e
	return e, nil
}

// compKey names the entry of a comparison item.
func compKey(session string, rows, cols int) string {
	return fmt.Sprintf("%s|cmp|%dx%d", session, rows, cols)
}

func (p *PreDealer) comp(session string, rows, cols int) (*preTriple, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	key := compKey(session, rows, cols)
	if e, ok := p.triples[key]; ok {
		return e, nil
	}
	return p.deal(key, BatchOrder{Aux: true, M: rows, N: cols}, "")
}

func (p *PreDealer) retire(key string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if e, ok := p.triples[key]; ok {
		e.served++
		if e.served >= NumParties {
			delete(p.triples, key)
		}
	}
}

// PreView is one party's offline triple source.
type PreView struct {
	dealer *PreDealer
	party  int
	keys   PartyKeys
}

// expand expands the party's item of entry e. The entry keeps its
// Second matrices — a repeated request expands them again — so the
// expansion gets copies.
func (v *PreView) expand(e *preTriple) TripleBundle {
	it := e.deal.Party[v.party-1]
	for c, m := range it.Second {
		if !m.IsZeroShape() {
			it.Second[c] = m.Clone()
		}
	}
	return it.Triple(v.keys)
}

// MatMulTriple returns this party's share of the session's matrix
// Beaver triple; B is empty when the triple was dealt against a mask
// the dealer already held under that name, and Back holds the backward
// pair when backPair asks for it (BatchOrder.BackPair).
func (v *PreView) MatMulTriple(session, mask string, m, n, q int, backPair bool) (TripleBundle, error) {
	return v.matMul(session, mask, tensor.ConvShape{}, m, n, q, backPair)
}

// ConvTriple returns this party's share of the session's convolution
// triple: the matrix triple of the lowered product over images images
// and outChannels filters, with A at image shape (BatchOrder.Conv).
func (v *PreView) ConvTriple(session, mask string, shape tensor.ConvShape, images, outChannels int, backPair bool) (TripleBundle, error) {
	return v.matMul(session, mask, shape, images*shape.OutHeight()*shape.OutWidth(), shape.PatchSize(), outChannels, backPair)
}

func (v *PreView) matMul(session, mask string, conv tensor.ConvShape, m, n, q int, backPair bool) (TripleBundle, error) {
	e, err := v.dealer.matMul(session, mask, conv, m, n, q, backPair)
	if err != nil {
		return TripleBundle{}, err
	}
	t := v.expand(e)
	v.dealer.retire(matMulKey(session, conv, m, n, q, backPair))
	return t, nil
}

// CompTriple returns this party's share of the session's comparison
// item: A, B = t and C = A⊙t (Dealer.CompTriple).
func (v *PreView) CompTriple(session string, rows, cols int) (TripleBundle, error) {
	e, err := v.dealer.comp(session, rows, cols)
	if err != nil {
		return TripleBundle{}, err
	}
	t := v.expand(e)
	v.dealer.retire(compKey(session, rows, cols))
	return t, nil
}
