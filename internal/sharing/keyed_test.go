package sharing

import (
	"crypto/aes"
	"fmt"
	"sync"
	"testing"
)

// keyedOrders has one order of every kind: Hadamard, MatMul, conv,
// Against a retained mask, a training forward with its backward pair,
// and a comparison item.
func keyedOrders(mask Mat) []BatchOrder {
	return []BatchOrder{
		{Kind: TripleHadamard, M: 2, N: 3},
		{Kind: TripleMatMul, M: 2, N: 3, P: 4},
		convOrder(2, 3),
		{Kind: TripleMatMul, M: 2, N: 3, P: 4, Against: mask},
		{Kind: TripleMatMul, M: 2, N: 3, P: 4, BackPair: true},
		{Aux: true, M: 3, N: 2},
	}
}

// TestKeyedExpansionKeepsFigOne: every party's expansion of a keyed deal
// has the distribution of Fig. 1 — the first share of set j is party
// j's Primary and, bit for bit, party prev(j)'s Hat — and each set
// reconstructs the dealt value, for every order kind and for values.
func TestKeyedExpansionKeepsFigOne(t *testing.T) {
	d := batchDealer(41)
	mask := Mat{Rows: 3, Cols: 4, Data: make([]int64, 12)}
	items, err := d.DealBatch(keyedOrders(mask))
	if err != nil {
		t.Fatal(err)
	}
	v := Mat{Rows: 2, Cols: 2, Data: []int64{1, -2, 3 << 40, -4}}
	vs, err := d.Share(v)
	if err != nil {
		t.Fatal(err)
	}
	check := func(what string, bs [NumParties]Bundle) {
		t.Helper()
		sets, err := CollectSets(bs)
		if err != nil {
			t.Fatal(err)
		}
		var want Mat
		for j, s := range sets {
			matEqual(t, s.HatFirst, s.First, fmt.Sprintf("%s: set %d hat copy", what, j+1))
			got, err := Reconstruct(s.First, s.Second)
			if err != nil {
				t.Fatal(err)
			}
			if j == 0 {
				want = got
			}
			matEqual(t, got, want, fmt.Sprintf("%s: set %d value", what, j+1))
		}
	}
	check("value", vs)
	matEqual(t, decide(t, vs), v, "value")
	for i, it := range items {
		as, bs, cs := components(it.Triple)
		check(fmt.Sprintf("order %d A", i), as)
		check(fmt.Sprintf("order %d C", i), cs)
		if !bs[0].Primary.IsZeroShape() {
			check(fmt.Sprintf("order %d B", i), bs)
		}
		if !it.Triple[0].Back.A.Primary.IsZeroShape() {
			var a2, c2 [NumParties]Bundle
			for p := range a2 {
				a2[p], c2[p] = it.Triple[p].Back.A, it.Triple[p].Back.C
			}
			check(fmt.Sprintf("order %d A′", i), a2)
			check(fmt.Sprintf("order %d C′", i), c2)
		}
	}
}

// TestKeyedItemsCarryTwoOrThreeElements: over the three parties, each
// element of a uniform component (A, a fresh B, A′) travels as 2 ring
// elements and each element of any other component as 3; the keyed
// party of a uniform component rotates with the deal number.
func TestKeyedItemsCarryTwoOrThreeElements(t *testing.T) {
	d := batchDealer(42)
	mask := Mat{Rows: 3, Cols: 4, Data: make([]int64, 12)}
	deals, err := d.Deal(keyedOrders(mask))
	if err != nil {
		t.Fatal(err)
	}
	values, err := d.DealValue(Mat{Rows: 3, Cols: 5, Data: make([]int64, 15)})
	if err != nil {
		t.Fatal(err)
	}
	keyedParties := map[int]bool{}
	for i, kd := range append(deals, KeyedDeal{Party: values}) {
		l := kd.Party[0].Layout
		for c := Component(0); c < NumComponents; c++ {
			if !l.Has(c) {
				continue
			}
			n := l.Shapes[c][0] * l.Shapes[c][1]
			sent := 0
			for p, it := range kd.Party {
				if it.Layout != l || it.Deal != kd.Party[0].Deal {
					t.Fatalf("deal %d: parties disagree on the header", i)
				}
				if s := it.Second[c].Size(); s != 0 {
					sent += s
				} else if c.Uniform() {
					keyedParties[p+1] = true
				}
			}
			want := 3 * n
			if c.Uniform() {
				want = 2 * n
			}
			if sent != want {
				t.Fatalf("deal %d component %d: %d elements sent for %d dealt, want %d", i, c, sent, n, want)
			}
		}
	}
	if len(keyedParties) != NumParties {
		t.Fatalf("the keyed party never rotated past %v", keyedParties)
	}
}

// TestLabelsNeverRepeat derives every stream of 10⁴ deals that mix
// triples of every kind, dealt values and reshares under one set of
// keys, and checks no (key, IV) pair is used twice: a repeat would deal
// the same uniform A twice.
func TestLabelsNeverRepeat(t *testing.T) {
	var mu sync.Mutex
	seen := make(map[[len(Key{}) + aes.BlockSize]byte]int)
	repeats := 0
	observePRF = func(k Key, iv [aes.BlockSize]byte) {
		var id [len(Key{}) + aes.BlockSize]byte
		copy(id[:], k[:])
		copy(id[len(k):], iv[:])
		mu.Lock()
		seen[id]++
		if seen[id] == 2 {
			repeats++
		}
		mu.Unlock()
	}
	t.Cleanup(func() { observePRF = nil })

	d := batchDealer(43)
	r := d.Resharer()
	cold, err := d.Deal([]BatchOrder{{Kind: TripleMatMul, M: 1, N: 3, P: 4}})
	if err != nil {
		t.Fatal(err)
	}
	orders := keyedOrders(cold[0].Mask)
	small := Mat{Rows: 1, Cols: 2, Data: []int64{7, -7}}
	const deals = 10_000
	for i := 0; i < deals; i++ {
		switch i % 4 {
		case 0, 1:
			_, err = d.Deal(orders[i%len(orders) : i%len(orders)+1])
		case 2:
			_, err = d.DealValue(small)
		default:
			_, err = r.DealValue(small)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if repeats != 0 {
		t.Fatalf("%d (key, IV) pairs drawn twice over %d deals", repeats, deals)
	}
	if len(seen) < 3*deals {
		t.Fatalf("only %d streams over %d deals", len(seen), deals)
	}
}
