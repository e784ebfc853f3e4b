package protocol_test

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/trustddl/trustddl/internal/fixed"
	"github.com/trustddl/trustddl/internal/party"
	"github.com/trustddl/trustddl/internal/protocol"
	"github.com/trustddl/trustddl/internal/sharing"
	"github.com/trustddl/trustddl/internal/tensor"
	"github.com/trustddl/trustddl/internal/transport"
)

// compRun is what one party's comparison returned and whom it
// convicted.
type compRun struct {
	signs   protocol.Mat
	flagged [sharing.NumParties + 1]bool
}

// runComp runs SecCompBT on ring-domain x and y with a comparison item
// dealt against its positive mask, on a fresh three-party network, the
// party at byz (0: none) behaving as mode says. Every run seeds its
// dealer alike, so the honest parties of two runs hold identical
// shares.
func runComp(t *testing.T, x, y protocol.Mat, byz int, mode byzMode) [sharing.NumParties]compRun {
	t.Helper()
	params := fixed.Default()
	net := transport.NewChanNetwork()
	t.Cleanup(func() { _ = net.Close() })
	var ctxs [sharing.NumParties]*protocol.Ctx
	for i := 1; i <= sharing.NumParties; i++ {
		ep, err := net.Endpoint(i)
		if err != nil {
			t.Fatal(err)
		}
		if i == byz && mode.intercept != nil {
			ep = transport.Intercepted(ep, mode.intercept(i))
		}
		if ctxs[i-1], err = protocol.NewCtx(party.NewRouter(ep, 150*time.Millisecond), i, params, true); err != nil {
			t.Fatal(err)
		}
		if i == byz && mode.adv != nil {
			ctxs[i-1].Adversary = mode.adv(i)
		}
	}
	dealer := sharing.NewDealer(sharing.NewSeededSource(31), params)
	bx, err := dealer.Share(x)
	if err != nil {
		t.Fatal(err)
	}
	by, err := dealer.Share(y)
	if err != nil {
		t.Fatal(err)
	}
	items, err := dealer.CompTriple(x.Rows, x.Cols)
	if err != nil {
		t.Fatal(err)
	}

	var out [sharing.NumParties]compRun
	var errs [sharing.NumParties]error
	var wg sync.WaitGroup
	for i := range ctxs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			signs, err := protocol.SecCompBT(ctxs[i], "cmp", bx[i], by[i], items[i].B, items[i])
			out[i], errs[i] = compRun{signs: signs, flagged: ctxs[i].Flagged}, err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil && i+1 != byz {
			t.Fatalf("honest party %d: %v", i+1, err)
		}
	}
	return out
}

// openingLog is an honest adversary hook that records each opening's
// session, step and bundle count.
type openingLog struct{ opened []string }

func (l *openingLog) CorruptPreCommit(session, step string, bs []sharing.Bundle) []sharing.Bundle {
	l.opened = append(l.opened, fmt.Sprintf("%s %s ×%d", session, step, len(bs)))
	return bs
}

func (*openingLog) CorruptPostCommit(_ int, _, _ string, bs []sharing.Bundle) []sharing.Bundle {
	return bs
}

// TestSecCompBTAgainstT: with the triple dealt against the positive
// mask, only α − A is opened before β, and the comparison still gives
// the plaintext sign(x − y) on a grid of differences that includes zero
// and ±1 raw unit. Under every Byzantine mode at every party position
// the honest parties' signs are bit-equal to the all-honest run's, and
// nobody but the Byzantine party is convicted.
func TestSecCompBTAgainstT(t *testing.T) {
	one := fixed.Default().FromFloat(1)
	// Differences in raw units; 2³⁹ is near the largest |α| whose
	// untruncated β = α⊙t (t < 2²³ raw) stays inside the ring.
	diffs := []int64{0, 1, -1, 2, -2, 1000, -1000, one, -one, 7 * one, -7 * one, 1 << 39, -(1 << 39)}
	bases := []int64{0, -3 * one, one / 3, 5 * one}
	x := tensor.MustNew[int64](len(bases), len(diffs))
	y := tensor.MustNew[int64](len(bases), len(diffs))
	var want []int64
	for r, base := range bases {
		for c, d := range diffs {
			y.Set(r, c, base)
			x.Set(r, c, base+d)
			want = append(want, int64(cmp.Compare(d, 0)))
		}
	}

	// An honest party that logs what it opens: one masked value, then β.
	log := &openingLog{}
	runComp(t, x, y, 1, byzMode{adv: func(int) protocol.Adversary { return log }})
	if want := []string{"cmp/mul e ×1", "cmp beta ×1"}; !slices.Equal(log.opened, want) {
		t.Fatalf("a comparison opened %q, want %q", log.opened, want)
	}

	honest := runComp(t, x, y, 0, byzMode{})
	for i, r := range honest {
		for k, w := range want {
			if r.signs.Data[k] != w {
				t.Fatalf("party %d: sign(%d − %d) = %d, want %d", i+1, x.Data[k], y.Data[k], r.signs.Data[k], w)
			}
		}
		if r.flagged != ([sharing.NumParties + 1]bool{}) {
			t.Fatalf("all-honest run: party %d convicted %v", i+1, r.flagged)
		}
	}

	for name, mode := range byzModes {
		for byz := 1; byz <= sharing.NumParties; byz++ {
			t.Run(fmt.Sprintf("%s/P%d", name, byz), func(t *testing.T) {
				runs := runComp(t, x, y, byz, mode)
				for i, r := range runs {
					if i+1 == byz {
						continue
					}
					if !r.signs.Equal(honest[i].signs) {
						t.Fatalf("honest party %d: signs differ from the all-honest run", i+1)
					}
					for p := 1; p <= sharing.NumParties; p++ {
						if r.flagged[p] && p != byz {
							t.Fatalf("honest party %d convicted honest party %d", i+1, p)
						}
					}
				}
			})
		}
	}
}
