package sharing

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/trustddl/trustddl/internal/fixed"
	"github.com/trustddl/trustddl/internal/tensor"
)

func newTestDealer() *Dealer {
	return NewDealer(NewSeededSource(1234), fixed.Default())
}

func TestSetsOfMatchesFig1(t *testing.T) {
	tests := []struct {
		party                  int
		wantI1, wantI2, wantI3 int
	}{
		{party: 1, wantI1: 1, wantI2: 2, wantI3: 3},
		{party: 2, wantI1: 2, wantI2: 3, wantI3: 1},
		{party: 3, wantI1: 3, wantI2: 1, wantI3: 2},
	}
	for _, tt := range tests {
		i1, i2, i3 := SetsOf(tt.party)
		if i1 != tt.wantI1 || i2 != tt.wantI2 || i3 != tt.wantI3 {
			t.Errorf("SetsOf(%d) = (%d,%d,%d), want (%d,%d,%d)",
				tt.party, i1, i2, i3, tt.wantI1, tt.wantI2, tt.wantI3)
		}
	}
}

func TestSetsOfCoverage(t *testing.T) {
	// Across the three parties, every set index must appear exactly once
	// in each of the three roles (privacy + resiliency of §III-A).
	var asPrimary, asHat, asSecond [NumParties + 1]int
	for p := 1; p <= NumParties; p++ {
		i1, i2, i3 := SetsOf(p)
		asPrimary[i1]++
		asHat[i2]++
		asSecond[i3]++
	}
	for j := 1; j <= NumParties; j++ {
		if asPrimary[j] != 1 || asHat[j] != 1 || asSecond[j] != 1 {
			t.Fatalf("set %d held as primary/hat/second by %d/%d/%d parties, want 1/1/1",
				j, asPrimary[j], asHat[j], asSecond[j])
		}
	}
}

func TestNoPartyHoldsACompleteSet(t *testing.T) {
	// Privacy requirement: party i must never hold both shares of one
	// set, i.e. i3 ∉ {i1, i2}.
	for p := 1; p <= NumParties; p++ {
		i1, i2, i3 := SetsOf(p)
		if i3 == i1 || i3 == i2 {
			t.Fatalf("party %d holds first and second share of set %d", p, i3)
		}
	}
}

func TestShareAndCollectReconstruct(t *testing.T) {
	d := newTestDealer()
	secret := testMat(t, 4, 3, 11)
	bundles, err := d.Share(secret)
	if err != nil {
		t.Fatal(err)
	}
	sets, err := CollectSets(bundles)
	if err != nil {
		t.Fatal(err)
	}
	for j, s := range sets {
		if plain, err := s.First.Add(s.Second); err != nil || !plain.Equal(secret) {
			t.Errorf("set %d plain reconstruction differs from secret (%v)", j+1, err)
		}
		if hat, err := s.HatFirst.Add(s.Second); err != nil || !hat.Equal(secret) {
			t.Errorf("set %d hat reconstruction differs from secret (%v)", j+1, err)
		}
	}
}

func TestHatIsCopyOfFirstShare(t *testing.T) {
	d := newTestDealer()
	bundles, err := d.Share(testMat(t, 2, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	// Party p's Hat must equal party (p mod 3 + 1)'s Primary: both are
	// the first share of set p's i2.
	for p := 1; p <= NumParties; p++ {
		_, i2, _ := SetsOf(p)
		if !bundles[p-1].Hat.Equal(bundles[i2-1].Primary) {
			t.Fatalf("party %d hat is not a copy of party %d primary", p, i2)
		}
	}
}

func TestDecidePicksHonestPair(t *testing.T) {
	d := newTestDealer()
	secret := testMat(t, 3, 3, 9)
	bundles, err := d.Share(secret)
	if err != nil {
		t.Fatal(err)
	}
	sets, err := CollectSets(bundles)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := ReconstructSix(sets)
	if err != nil {
		t.Fatal(err)
	}
	got, dec, err := rec.DecideRows()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(secret) {
		t.Fatal("honest decision differs from secret")
	}
	if dec.Distance != 0 {
		t.Fatalf("honest distance = %v, want 0 (exact ring arithmetic)", dec.Distance)
	}
	if dec.PlainSet == dec.HatSet {
		t.Fatalf("decision pair (%d, %d) must have j != k", dec.PlainSet, dec.HatSet)
	}
}

// corruptBundle flips the shares a Byzantine party would send.
func corruptBundle(b Bundle, delta int64) Bundle {
	c := b.Clone()
	for i := range c.Primary.Data {
		c.Primary.Data[i] += delta
	}
	for i := range c.Hat.Data {
		c.Hat.Data[i] += delta * 3
	}
	for i := range c.Second.Data {
		c.Second.Data[i] += delta * 7
	}
	return c
}

func TestDecideSurvivesOneByzantineParty(t *testing.T) {
	// Case 3 of the security analysis: a Byzantine party uses incorrect
	// shares consistently (commitment matches the corrupted shares).
	// The honest parties must still decide on the true value.
	for byz := 1; byz <= NumParties; byz++ {
		d := newTestDealer()
		secret := testMat(t, 4, 4, int64(byz)*13)
		bundles, err := d.Share(secret)
		if err != nil {
			t.Fatal(err)
		}
		bundles[byz-1] = corruptBundle(bundles[byz-1], 1<<30)
		sets, err := CollectSets(bundles)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := ReconstructSix(sets)
		if err != nil {
			t.Fatal(err)
		}
		got, dec, err := rec.DecideRows()
		if err != nil {
			t.Fatalf("byz=%d: %v", byz, err)
		}
		if !got.Equal(secret) {
			t.Fatalf("byz=%d: decision differs from secret", byz)
		}
		if dec.Distance != 0 {
			t.Fatalf("byz=%d: honest pair distance %v, want 0", byz, dec.Distance)
		}
		if suspect := rec.Suspect(0); suspect != byz {
			t.Fatalf("byz=%d: Suspect() = %d", byz, suspect)
		}
	}
}

func TestDecideRespectsFlags(t *testing.T) {
	// Case 1: the commitment check failed for one party; all four
	// reconstructions fed by its shares must be ignored even if the
	// values happen to agree.
	d := newTestDealer()
	secret := testMat(t, 2, 2, 21)
	bundles, err := d.Share(secret)
	if err != nil {
		t.Fatal(err)
	}
	sets, err := CollectSets(bundles)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := ReconstructSix(sets)
	if err != nil {
		t.Fatal(err)
	}
	rec.FlagParty(2)
	p1, p2, p3 := SetsOf(2)
	if rec.PlainOK[p1-1] || rec.HatOK[p2-1] || rec.PlainOK[p3-1] || rec.HatOK[p3-1] {
		t.Fatal("FlagParty(2) left a fed reconstruction unflagged")
	}
	got, _, err := rec.DecideRows()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(secret) {
		t.Fatal("decision with one party flagged differs from secret")
	}
}

func TestDecideNoConsensus(t *testing.T) {
	d := newTestDealer()
	bundles, err := d.Share(testMat(t, 2, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	sets, err := CollectSets(bundles)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := ReconstructSix(sets)
	if err != nil {
		t.Fatal(err)
	}
	rec.FlagParty(1)
	rec.FlagParty(2) // two Byzantine parties: outside the fault model
	if _, _, err := rec.DecideRows(); !errors.Is(err, ErrNoConsensus) {
		t.Fatalf("two flagged parties: err = %v, want ErrNoConsensus", err)
	}
}

func TestBundleLinearOps(t *testing.T) {
	d := newTestDealer()
	x := testMat(t, 2, 3, 4)
	y := testMat(t, 2, 3, 6)
	bx, err := d.Share(x)
	if err != nil {
		t.Fatal(err)
	}
	by, err := d.Share(y)
	if err != nil {
		t.Fatal(err)
	}

	var sum, diff, scaled [NumParties]Bundle
	for i := 0; i < NumParties; i++ {
		if sum[i], err = bx[i].Add(by[i]); err != nil {
			t.Fatal(err)
		}
		if diff[i], err = bx[i].Sub(by[i]); err != nil {
			t.Fatal(err)
		}
		scaled[i] = bx[i].Scale(3)
	}

	check := func(name string, bundles [NumParties]Bundle, want Mat) {
		t.Helper()
		sets, err := CollectSets(bundles)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := ReconstructSix(sets)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := rec.DecideRows()
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("%s: reconstruction differs from expected", name)
		}
	}
	wantSum, _ := x.Add(y)
	wantDiff, _ := x.Sub(y)
	check("add", sum, wantSum)
	check("sub", diff, wantDiff)
	check("scale", scaled, x.Scale(3))
}

func TestBundleHadamardPublic(t *testing.T) {
	d := newTestDealer()
	x := testMat(t, 2, 2, 8)
	mask, _ := tensor.FromSlice(2, 2, []int64{1, 0, 0, 1})
	bundles, err := d.Share(x)
	if err != nil {
		t.Fatal(err)
	}
	var masked [NumParties]Bundle
	for i := 0; i < NumParties; i++ {
		if masked[i], err = bundles[i].HadamardPublic(mask); err != nil {
			t.Fatal(err)
		}
	}
	sets, _ := CollectSets(masked)
	rec, err := ReconstructSix(sets)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := rec.DecideRows()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := x.Hadamard(mask)
	if !got.Equal(want) {
		t.Fatal("HadamardPublic reconstruction differs")
	}
}

func TestBundleValidate(t *testing.T) {
	good := Bundle{
		Primary: tensor.MustNew[int64](2, 2),
		Hat:     tensor.MustNew[int64](2, 2),
		Second:  tensor.MustNew[int64](2, 2),
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid bundle rejected: %v", err)
	}
	bad := good
	bad.Hat = tensor.MustNew[int64](3, 3)
	if err := bad.Validate(); err == nil {
		t.Fatal("mismatched bundle accepted")
	}
	if err := (Bundle{}).Validate(); err == nil {
		t.Fatal("empty bundle accepted")
	}
}

// corruptAndDecide shares secret, applies corruptBundle(delta) to the
// bundle of party byz and returns what DecideRows reveals.
func corruptAndDecide(d *Dealer, secret Mat, byz int, delta int64) (Mat, error) {
	bundles, err := d.Share(secret)
	if err != nil {
		return Mat{}, err
	}
	bundles[byz-1] = corruptBundle(bundles[byz-1], delta)
	sets, err := CollectSets(bundles)
	if err != nil {
		return Mat{}, err
	}
	rec, err := ReconstructSix(sets)
	if err != nil {
		return Mat{}, err
	}
	got, _, err := rec.DecideRows()
	return got, err
}

// Property: for any secret, any single corrupted party and any
// corruption (+δ, +3δ, +7δ) with δ > HonestSlack, DecideRows returns
// the true value.
func TestPropertyDecideUnderCorruption(t *testing.T) {
	d := newTestDealer()
	f := func(vals [4]int64, byzRaw, deltaRaw uint8) bool {
		byz := int(byzRaw%NumParties) + 1
		delta := int64(deltaRaw) + HonestSlack + 1
		secret, _ := tensor.FromSlice(2, 2, vals[:])
		got, err := corruptAndDecide(d, secret, byz, delta)
		return err == nil && got.Equal(secret)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}

	// ROADMAP item 1(a): a corruption within the slack can put a
	// corrupted pair within HonestSlack of the honest minimum, and the
	// canonical preference may then pick it. DecideRows is exact for
	// every δ ≥ 9; for δ ≤ 8 it reveals values up to 28 raw units off
	// (7δ at δ = 4), above HonestSlack = 16.
	t.Run("known/delta<=HonestSlack", func(t *testing.T) {
		secret, _ := tensor.FromSlice(2, 2, []int64{5, -9, 1 << 40, -(1 << 40)})
		var worst, worstDelta int64
		for delta := int64(1); delta <= HonestSlack; delta++ {
			for byz := 1; byz <= NumParties; byz++ {
				got, err := corruptAndDecide(d, secret, byz, delta)
				if err != nil {
					t.Fatal(err)
				}
				for i := range got.Data {
					if e := max(got.Data[i]-secret.Data[i], secret.Data[i]-got.Data[i]); e > worst {
						worst, worstDelta = e, delta
					}
				}
			}
		}
		if worst <= HonestSlack {
			t.Fatalf("gap closed (worst error %d raw units): fold δ ≤ HonestSlack into the property", worst)
		}
		t.Skipf("known gap: within-slack corruption revealed %d raw units off (at δ = %d), above HonestSlack = %d", worst, worstDelta, HonestSlack)
	})
}

// refReconstructions is the decision rule as it was written before it
// ran in one pass: the six candidates materialised as whole matrices,
// float64 pair distances, and Suspect scoring each candidate against
// the decided matrix with MaxAbsDiff. It is the reference DecideRows and
// Suspect must match exactly.
type refReconstructions struct {
	plain, hat     [NumParties]Mat
	plainOK, hatOK [NumParties]bool
}

func refReconstructSix(sets [NumParties]SetShares) (refReconstructions, error) {
	var rec refReconstructions
	for j := 0; j < NumParties; j++ {
		plain, err := sets[j].First.Add(sets[j].Second)
		if err != nil {
			return rec, fmt.Errorf("sharing: set %d: %w", j+1, err)
		}
		hat, err := sets[j].HatFirst.Add(sets[j].Second)
		if err != nil {
			return rec, fmt.Errorf("sharing: set %d (hat): %w", j+1, err)
		}
		rec.plain[j], rec.hat[j] = plain, hat
		rec.plainOK[j], rec.hatOK[j] = true, true
	}
	return rec, nil
}

func (r *refReconstructions) flagParty(p int) {
	p1, p2, p3 := SetsOf(p)
	r.plainOK[p1-1] = false
	r.hatOK[p2-1] = false
	r.plainOK[p3-1] = false
	r.hatOK[p3-1] = false
}

func (r *refReconstructions) decideRows() (Mat, Decision, error) {
	rows, cols := 0, 0
	for j := 0; j < NumParties; j++ {
		if r.plainOK[j] {
			rows, cols = r.plain[j].Rows, r.plain[j].Cols
			break
		}
	}
	if rows == 0 && cols == 0 {
		return Mat{}, Decision{}, ErrNoConsensus
	}
	out := Mat{Rows: rows, Cols: cols, Data: make([]int64, rows*cols)}
	worst := Decision{Distance: math.Inf(-1)}
	for row := 0; row < rows; row++ {
		var dist [NumParties][NumParties]float64
		minDist := math.Inf(1)
		found := false
		for j := 0; j < NumParties; j++ {
			if !r.plainOK[j] {
				continue
			}
			for k := 0; k < NumParties; k++ {
				if k == j || !r.hatOK[k] {
					continue
				}
				if r.plain[j].Rows != rows || r.plain[j].Cols != cols ||
					r.hat[k].Rows != rows || r.hat[k].Cols != cols {
					return Mat{}, Decision{}, fmt.Errorf("sharing: reconstruction shape mismatch (plain %d: %dx%d, hat %d: %dx%d)",
						j+1, r.plain[j].Rows, r.plain[j].Cols, k+1, r.hat[k].Rows, r.hat[k].Cols)
				}
				d := 0.0
				for c := row * cols; c < (row+1)*cols; c++ {
					diff := math.Abs(float64(r.plain[j].Data[c] - r.hat[k].Data[c]))
					if diff > d {
						d = diff
					}
				}
				dist[j][k] = d
				if d < minDist {
					minDist = d
					found = true
				}
			}
		}
		if !found {
			return Mat{}, Decision{}, ErrNoConsensus
		}
		best := Decision{}
	pick:
		for j := 0; j < NumParties; j++ {
			if !r.plainOK[j] {
				continue
			}
			for k := 0; k < NumParties; k++ {
				if k == j || !r.hatOK[k] {
					continue
				}
				if dist[j][k] <= minDist+HonestSlack {
					best = Decision{PlainSet: j + 1, HatSet: k + 1, Distance: dist[j][k]}
					break pick
				}
			}
		}
		copy(out.Data[row*cols:(row+1)*cols], r.plain[best.PlainSet-1].Data[row*cols:(row+1)*cols])
		if best.Distance > worst.Distance {
			worst = best
		}
	}
	return out, worst, nil
}

func (r *refReconstructions) suspect(decided Mat, tol float64) int {
	deviates := func(m Mat, ok bool) bool {
		if !ok {
			return true
		}
		d, err := decided.MaxAbsDiff(m)
		return err != nil || d > tol
	}
	bestParty, bestScore := 0, 0
	for p := 1; p <= NumParties; p++ {
		p1, p2, p3 := SetsOf(p)
		score := 0
		for _, dev := range []bool{
			deviates(r.plain[p1-1], r.plainOK[p1-1]),
			deviates(r.hat[p2-1], r.hatOK[p2-1]),
			deviates(r.plain[p3-1], r.plainOK[p3-1]),
			deviates(r.hat[p3-1], r.hatOK[p3-1]),
		} {
			if dev {
				score++
			}
		}
		if score > bestScore {
			bestParty, bestScore = p, score
		}
	}
	return bestParty
}

// decideCase draws one opening for the reference comparison from a
// seed and a few structural knobs: a rows×cols secret (up to 5×9)
// shared into three sets with honest noise up to ±noise on each set's
// second share (and, for odd seeds, on the hat copy), corruptions of
// ±1, 17, 2²⁰, MinInt64 or a random delta on any of the nine share
// matrices (whole matrix, whole rows or single elements), flags cleared
// by FlagParty (one party) and one at a time, and shape mismatches of one matrix or
// of a whole set.
func decideCase(seed int64, shape, noise, flags, misshape uint8) ([NumParties]SetShares, func(flag func(p int), clear func(plain bool, j int))) {
	rng := rand.New(rand.NewSource(seed))
	rows, cols := 1+int(shape%5), 1+int(shape/5%9)
	amp := int64(noise % 21)
	randMat := func(r, c int) Mat {
		m := tensor.MustNew[int64](r, c)
		for i := range m.Data {
			m.Data[i] = int64(rng.Uint64())
		}
		return m
	}
	secret := randMat(rows, cols)
	jitter := func(m Mat) {
		if amp == 0 {
			return
		}
		for i := range m.Data {
			m.Data[i] += rng.Int63n(2*amp+1) - amp
		}
	}
	var sets [NumParties]SetShares
	for j := range sets {
		first := randMat(rows, cols)
		second, _ := secret.Sub(first)
		jitter(second)
		hat := first.Clone()
		if seed%2 != 0 {
			jitter(hat)
		}
		sets[j] = SetShares{First: first, HatFirst: hat, Second: second}
	}
	deltas := []int64{1, -1, 17, -17, 1 << 20, -(1 << 20), math.MinInt64}
	share := func(j, w int) *Mat {
		return [...]*Mat{&sets[j].First, &sets[j].HatFirst, &sets[j].Second}[w]
	}
	for n := rng.Intn(4); n > 0; n-- {
		m := share(rng.Intn(NumParties), rng.Intn(3))
		delta := int64(rng.Uint64())
		if i := rng.Intn(len(deltas) + 1); i < len(deltas) {
			delta = deltas[i]
		}
		mode := rng.Intn(3)
		hit := rng.Intn(rows)
		for i := range m.Data {
			switch {
			case mode == 0, // the whole matrix
				mode == 1 && i/cols == hit,    // one row
				mode == 2 && rng.Intn(2) == 0: // scattered elements
				m.Data[i] += delta
			}
		}
	}
	switch misshape % 16 {
	case 1: // one matrix reshaped: ReconstructSix rejects its set
		j, w := rng.Intn(NumParties), rng.Intn(3)
		*share(j, w) = randMat(rows+1, cols)
	case 2: // a whole set reshaped: consistent within, not across sets
		j := rng.Intn(NumParties)
		r, c := rows, cols+1
		if rng.Intn(2) == 0 {
			r, c = rows+1, cols
		}
		sets[j] = SetShares{First: randMat(r, c), HatFirst: randMat(r, c), Second: randMat(r, c)}
	}
	apply := func(flag func(p int), clear func(plain bool, j int)) {
		if p := int(flags % 4); p != 0 {
			flag(p)
		}
		for n := int(flags/4%8) - 4; n > 0; n-- {
			clear(rng.Intn(2) == 0, rng.Intn(NumParties))
		}
	}
	return sets, apply
}

// checkDecideMatchesReference runs DecideRows/Suspect and the reference
// on one drawn case and fails on any difference in the revealed value,
// the Decision, the error or the suspect at any tolerance. It returns
// which outcome the case reached.
func checkDecideMatchesReference(t *testing.T, seed int64, shape, noise, flags, misshape uint8) string {
	t.Helper()
	sets, apply := decideCase(seed, shape, noise, flags, misshape)
	ref, refErr := refReconstructSix(sets)
	rec, err := ReconstructSix(sets)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("seed %d: ReconstructSix err = %v, reference %v", seed, err, refErr)
	}
	if err != nil {
		return "reconstruct error"
	}
	// Both sides must see the same flags: record the draws once.
	type clearing struct {
		plain bool
		j     int
	}
	var parties []int
	var clears []clearing
	apply(func(p int) { parties = append(parties, p) }, func(plain bool, j int) { clears = append(clears, clearing{plain, j}) })
	for _, p := range parties {
		ref.flagParty(p)
		rec.FlagParty(p)
	}
	for _, c := range clears {
		if c.plain {
			ref.plainOK[c.j], rec.PlainOK[c.j] = false, false
		} else {
			ref.hatOK[c.j], rec.HatOK[c.j] = false, false
		}
	}
	tols := []float64{0, 1, HonestSlack, 1e6}
	for _, tol := range tols {
		if got, want := rec.Suspect(tol), ref.suspect(Mat{}, tol); got != want {
			t.Fatalf("seed %d: Suspect(%v) before DecideRows = %d, reference %d", seed, tol, got, want)
		}
	}
	wantV, wantD, wantErr := ref.decideRows()
	gotV, gotD, gotErr := rec.DecideRows()
	switch {
	case (gotErr == nil) != (wantErr == nil),
		gotErr != nil && gotErr.Error() != wantErr.Error(),
		errors.Is(gotErr, ErrNoConsensus) != errors.Is(wantErr, ErrNoConsensus):
		t.Fatalf("seed %d: DecideRows err = %v, reference %v", seed, gotErr, wantErr)
	case gotErr == nil && !gotV.Equal(wantV):
		t.Fatalf("seed %d: DecideRows value differs from the reference", seed)
	case gotD != wantD:
		t.Fatalf("seed %d: Decision = %+v, reference %+v", seed, gotD, wantD)
	}
	for _, tol := range tols {
		if got, want := rec.Suspect(tol), ref.suspect(wantV, tol); got != want {
			t.Fatalf("seed %d: Suspect(%v) = %d, reference %d", seed, tol, got, want)
		}
	}
	switch {
	case errors.Is(gotErr, ErrNoConsensus):
		return "no consensus"
	case gotErr != nil:
		return "shape error"
	case gotD.PlainSet != 1:
		return fmt.Sprintf("decided set %d", gotD.PlainSet)
	case rec.Suspect(1e6) != 0:
		return "decided set 1, suspect"
	}
	return "decided set 1, no suspect"
}

func TestDecideRowsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	const cases = 20000
	seen := map[string]int{}
	for i := 0; i < cases; i++ {
		b := rng.Uint32()
		seen[checkDecideMatchesReference(t, rng.Int63(), uint8(b), uint8(b>>8), uint8(b>>16), uint8(b>>24))]++
	}
	// Every outcome of the rule must be exercised, not just agreed on.
	for _, kind := range []string{"reconstruct error", "shape error", "no consensus", "decided set 2", "decided set 3",
		"decided set 1, suspect", "decided set 1, no suspect"} {
		if seen[kind] < 50 {
			t.Errorf("%q reached by %d of %d cases, want at least 50 (%v)", kind, seen[kind], cases, seen)
		}
	}
}

func FuzzDecideRowsMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(int64(2), uint8(44), uint8(20), uint8(0), uint8(0))
	f.Add(int64(3), uint8(13), uint8(7), uint8(0b101), uint8(1))
	f.Add(int64(5), uint8(39), uint8(16), uint8(0b11111000), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, shape, noise, flags, misshape uint8) {
		checkDecideMatchesReference(t, seed, shape, noise, flags, misshape)
	})
}

// TestDecideRowsAllocs pins what deciding a 980×100 opening (fc1's
// weight-sized f of a training step) allocates: the decided matrix and
// one 6 × cols row scratch, not the six candidate matrices.
func TestDecideRowsAllocs(t *testing.T) {
	bundles, err := newTestDealer().Share(testMat(t, 980, 100, 5))
	if err != nil {
		t.Fatal(err)
	}
	sets, err := CollectSets(bundles)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		rec, err := ReconstructSix(sets)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := rec.DecideRows(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("ReconstructSix + DecideRows: %v allocs per opening, want at most 2 (decided matrix, row scratch)", allocs)
	}
}
