package sharing

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/bits"
	"unsafe"
)

// Seeded dealing. Every first share of every set is uniform and held by
// two parties (Fig. 1), so a key the owner shares with exactly those two
// can produce it: the owner sends keys once per provisioning and each
// deal carries only the second shares a key cannot produce. Party i
// holds the keys of sets i and next(i) (its Primary and Hat) and one
// private key shared with the owner alone. A non-uniform value (C, C′,
// t, an input, a weight) travels as each party's Second. A uniform
// secret (A, a fresh B, A′) is drawn with one whole set from keys — its
// first share from the set key, its second from the private key of the
// party holding it — so that party receives nothing for it; the keyed
// set rotates with the deal number.
//
// Each share is an AES-CTR stream under its key, with an IV derived
// from the label (domain, deal number, component, set). A label
// must never repeat under one key: the uniform A of two deals would
// then be equal, and two openings against it would reveal the
// difference of the secrets. The deal number is the dealer's own
// counter, so retired or expired requests dealt again, and sessions a
// later run names alike, still draw fresh labels.

// Key is a 128-bit AES key of seeded dealing.
type Key [16]byte

// drawKey draws a key from src.
func drawKey(src Source) Key {
	var k Key
	binary.LittleEndian.PutUint64(k[:8], src.Uint64())
	binary.LittleEndian.PutUint64(k[8:], src.Uint64())
	return k
}

// Domain separates the label spaces of dealers that share keys: the
// model owner's deals and its reshares of delegated function results
// count their deals independently.
type Domain byte

// Label domains.
const (
	DomainDeal    Domain = 'd'
	DomainReshare Domain = 'r'
)

// PartyKeys is what one party holds of one dealer's keys, and the label
// domain the dealer deals in.
type PartyKeys struct {
	Party  int
	Domain Domain
	// Primary and Hat are the keys of sets i1 and i2 (SetsOf), shared
	// with the owner and the set's other first-share holder.
	Primary, Hat Key
	// Private is shared with the owner alone: it produces the party's
	// Second of a uniform secret whose set the keys produce whole.
	Private Key
}

// Reshare returns the same keys in the reshare domain (Dealer.Resharer).
func (k PartyKeys) Reshare() PartyKeys {
	k.Domain = DomainReshare
	return k
}

// Component names one dealt matrix of an item.
type Component uint8

// Components of a dealt item. A, B and A′ are uniform; the others are
// not.
const (
	// CompA is a triple's input-side mask a.
	CompA Component = iota
	// CompB is a freshly drawn weight-side mask b.
	CompB
	// CompT is a comparison item's positive mask t (TripleBundle.B).
	CompT
	// CompC is a triple's product c.
	CompC
	// CompBackA and CompBackC are a backward pair's A′ and C′.
	CompBackA
	CompBackC
	// CompValue is a shared value: an input, a label, a weight, a
	// velocity or a delegated function's result.
	CompValue
	// NumComponents bounds the component indices.
	NumComponents
)

// Uniform reports whether the component is a uniform secret, which one
// whole set of keys can produce.
func (c Component) Uniform() bool { return c == CompA || c == CompB || c == CompBackA }

// bit is the component's bit in Layout.Comps.
func (c Component) bit() uint8 { return 1 << c }

// Layout is what a dealt item consists of: the components present and
// the shape (rows, cols) of each.
type Layout struct {
	Comps  uint8
	Shapes [NumComponents][2]int
}

// Has reports whether component c is present.
func (l Layout) Has(c Component) bool { return l.Comps&c.bit() != 0 }

// with adds component c of the given shape.
func (l *Layout) with(c Component, rows, cols int) {
	l.Comps |= c.bit()
	l.Shapes[c] = [2]int{rows, cols}
}

// Without returns the layout with component c removed.
func (l Layout) Without(c Component) Layout {
	l.Comps &^= c.bit()
	l.Shapes[c] = [2]int{}
	return l
}

// keyedSet is the set a deal's uniform secrets draw whole from keys.
func keyedSet(deal uint64) int { return int(deal%NumParties) + 1 }

// Receives reports whether party gets its Second of component c of
// deal on the wire. It does not when c is uniform and the party holds
// the second share of the deal's keyed set (set j's second share is
// party next(j)'s).
func Receives(party int, deal uint64, c Component) bool {
	return !c.Uniform() || party != keyedSet(deal)%NumParties+1
}

// KeyedItem is one party's wire form of a dealt item: the deal number,
// the layout, and the Second of each present component the party's
// keys cannot produce (zero-shaped where Receives is false).
type KeyedItem struct {
	Deal uint64
	Layout
	Second [NumComponents]Mat
}

// KeyedDeal is one dealt item in keyed form: each party's KeyedItem,
// and — for a dealer-side caller that retains it — the plaintext b of
// a freshly drawn MatMul triple (BatchItem.Mask).
type KeyedDeal struct {
	Party [NumParties]KeyedItem
	Mask  Mat
}

// label derives the AES-CTR IV of one share of deal n:
// SHA-256(domain ‖ n ‖ component ‖ set)[:16]. A set's first share and
// the second share a private key produces share the label but not the
// key; the owner's positive masks draw under its unshared key at set 0.
func label(dom Domain, deal uint64, c Component, set int) [aes.BlockSize]byte {
	var in [11]byte
	in[0] = byte(dom)
	binary.LittleEndian.PutUint64(in[1:], deal)
	in[9], in[10] = byte(c), byte(set)
	sum := sha256.Sum256(in[:])
	var iv [aes.BlockSize]byte
	copy(iv[:], sum[:])
	return iv
}

// hostLittleEndian selects the bulk keystream path: an int64 slice's
// byte image is then its little-endian reading.
var hostLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// observePRF, when set, sees the key and IV of every stream prf
// derives (the label-uniqueness tests). It must be safe for concurrent
// use: Deal derives its items concurrently.
var observePRF func(Key, [aes.BlockSize]byte)

// prf returns a rows×cols matrix of the AES-CTR keystream of key at
// iv, read as little-endian int64s.
func prf(rows, cols int, key Key, iv [aes.BlockSize]byte) Mat {
	if observePRF != nil {
		observePRF(key, iv)
	}
	m := Mat{Rows: rows, Cols: cols, Data: make([]int64, rows*cols)}
	if len(m.Data) == 0 {
		return m
	}
	block, err := aes.NewCipher(key[:])
	if err != nil {
		panic(err) // unreachable: a 16-byte key is always valid
	}
	// The keystream XORed over the freshly zeroed matrix is the keystream.
	raw := unsafe.Slice((*byte)(unsafe.Pointer(&m.Data[0])), 8*len(m.Data))
	cipher.NewCTR(block, iv[:]).XORKeyStream(raw, raw)
	if !hostLittleEndian {
		for i, v := range m.Data {
			m.Data[i] = int64(bits.ReverseBytes64(uint64(v)))
		}
	}
	return m
}

// Triple expands a dealt triple, comparison item or backward-pair
// triple into the party's bundles. The caller checks the layout first
// (BatchOrder.Layout). The expansion takes ownership of the item's
// Second matrices.
func (it KeyedItem) Triple(k PartyKeys) TripleBundle {
	var t TripleBundle
	for _, slot := range [...]struct {
		c Component
		b *Bundle
	}{{CompA, &t.A}, {CompB, &t.B}, {CompT, &t.B}, {CompC, &t.C}, {CompBackA, &t.Back.A}, {CompBackC, &t.Back.C}} {
		if it.Has(slot.c) {
			*slot.b = it.expand(k, slot.c)
		}
	}
	return t
}

// Value expands a dealt value into the party's bundle, taking ownership
// of the item's Second.
func (it KeyedItem) Value(k PartyKeys) (Bundle, error) {
	if it.Comps != CompValue.bit() {
		return Bundle{}, fmt.Errorf("sharing: deal %d is not a value (components %#x)", it.Deal, it.Comps)
	}
	return it.expand(k, CompValue), nil
}

// expand derives the party's bundle of component c: Primary and Hat
// from the set keys, Second as received or from the private key.
func (it KeyedItem) expand(k PartyKeys, c Component) Bundle {
	rows, cols := it.Shapes[c][0], it.Shapes[c][1]
	i1, i2, i3 := SetsOf(k.Party)
	b := Bundle{
		Primary: prf(rows, cols, k.Primary, label(k.Domain, it.Deal, c, i1)),
		Hat:     prf(rows, cols, k.Hat, label(k.Domain, it.Deal, c, i2)),
		Second:  it.Second[c],
	}
	if !Receives(k.Party, it.Deal, c) {
		b.Second = prf(rows, cols, k.Private, label(k.Domain, it.Deal, c, i3))
	}
	return b
}
