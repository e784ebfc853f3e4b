package sharing

import (
	"fmt"
	"sync"
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
// retains b, later ones deal only the input-side pair against it.
//
// PreDealer is safe for concurrent use by the three party goroutines.
type PreDealer struct {
	mu      sync.Mutex
	dealer  *Dealer
	triples map[string]*preTriple
	auxes   map[string]*preAux
	masks   MaskTable
}

type preTriple struct {
	bundles [NumParties]TripleBundle
	served  int
}

type preAux struct {
	bundles [NumParties]Bundle
	served  int
}

// NewPreDealer wraps a dealer for offline-phase distribution.
func NewPreDealer(d *Dealer) *PreDealer {
	return &PreDealer{
		dealer:  d,
		triples: make(map[string]*preTriple),
		auxes:   make(map[string]*preAux),
	}
}

// View returns the triple source seen by one computing party. The
// returned value satisfies the nn.TripleSource interface.
func (p *PreDealer) View(party int) (*PreView, error) {
	if party < 1 || party > NumParties {
		return nil, fmt.Errorf("sharing: party %d out of range", party)
	}
	return &PreView{dealer: p, party: party}, nil
}

func (p *PreDealer) matMul(session, mask string, m, n, q int) (*preTriple, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	key := fmt.Sprintf("%s|mm|%dx%dx%d", session, m, n, q)
	if e, ok := p.triples[key]; ok {
		return e, nil
	}
	// A one-order batch draws exactly what MatMulTriple would.
	order := BatchOrder{Kind: TripleMatMul, M: m, N: n, P: q, Against: p.masks.Get(mask, n, q)}
	items, err := p.dealer.DealBatch([]BatchOrder{order})
	if err != nil {
		return nil, err
	}
	if mask != "" && order.Against.IsZeroShape() {
		p.masks.Put(mask, items[0].Mask)
	}
	e := &preTriple{bundles: items[0].Triple}
	p.triples[key] = e
	return e, nil
}

func (p *PreDealer) hadamard(session string, rows, cols int) (*preTriple, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	key := fmt.Sprintf("%s|hd|%dx%d", session, rows, cols)
	if e, ok := p.triples[key]; ok {
		return e, nil
	}
	bs, err := p.dealer.HadamardTriple(rows, cols)
	if err != nil {
		return nil, err
	}
	e := &preTriple{bundles: bs}
	p.triples[key] = e
	return e, nil
}

func (p *PreDealer) aux(session string, rows, cols int) (*preAux, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	key := fmt.Sprintf("%s|ax|%dx%d", session, rows, cols)
	if e, ok := p.auxes[key]; ok {
		return e, nil
	}
	bs, err := p.dealer.AuxPositive(rows, cols)
	if err != nil {
		return nil, err
	}
	e := &preAux{bundles: bs}
	p.auxes[key] = e
	return e, nil
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
	if e, ok := p.auxes[key]; ok {
		e.served++
		if e.served >= NumParties {
			delete(p.auxes, key)
		}
	}
}

// PreView is one party's offline triple source.
type PreView struct {
	dealer *PreDealer
	party  int
}

// MatMulTriple returns this party's share of the session's matrix
// Beaver triple; B is empty when the triple was dealt against a mask
// the dealer already held under that name.
func (v *PreView) MatMulTriple(session, mask string, m, n, q int) (TripleBundle, error) {
	e, err := v.dealer.matMul(session, mask, m, n, q)
	if err != nil {
		return TripleBundle{}, err
	}
	t := e.bundles[v.party-1]
	v.dealer.retire(fmt.Sprintf("%s|mm|%dx%dx%d", session, m, n, q))
	return t, nil
}

// HadamardTriple returns this party's share of the session's
// element-wise Beaver triple.
func (v *PreView) HadamardTriple(session string, rows, cols int) (TripleBundle, error) {
	e, err := v.dealer.hadamard(session, rows, cols)
	if err != nil {
		return TripleBundle{}, err
	}
	t := e.bundles[v.party-1]
	v.dealer.retire(fmt.Sprintf("%s|hd|%dx%d", session, rows, cols))
	return t, nil
}

// AuxPositive returns this party's share of the session's auxiliary
// positive matrix.
func (v *PreView) AuxPositive(session string, rows, cols int) (Bundle, error) {
	e, err := v.dealer.aux(session, rows, cols)
	if err != nil {
		return Bundle{}, err
	}
	b := e.bundles[v.party-1]
	v.dealer.retire(fmt.Sprintf("%s|ax|%dx%d", session, rows, cols))
	return b, nil
}
