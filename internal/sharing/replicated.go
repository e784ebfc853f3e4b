package sharing

import (
	"fmt"
	"math"
)

// NumParties is the size of TrustDDL's proxy layer (a 3PC framework,
// §III-A). The scheme tolerates one Byzantine party.
const NumParties = 3

// SetsOf returns (i1, i2, i3) for computing party i ∈ {1,2,3}: the share
// set of which the party holds the primary first share, the set of which
// it holds the redundant ("hat") first-share copy, and the set of which
// it holds the second share. This encodes Fig. 1:
//
//	P1 ← {[s]¹₁, [ŝ]²₁, [s]³₂}   (i1,i2,i3) = (1,2,3)
//	P2 ← {[s]²₁, [ŝ]³₁, [s]¹₂}   (i1,i2,i3) = (2,3,1)
//	P3 ← {[s]³₁, [ŝ]¹₁, [s]²₂}   (i1,i2,i3) = (3,1,2)
func SetsOf(i int) (i1, i2, i3 int) {
	return i, i%NumParties + 1, (i+1)%NumParties + 1
}

// Bundle is the slice of one secret held by a single computing party
// under the three-set distribution scheme: the vectors [x]_i of
// Algorithms 4 and 5.
type Bundle struct {
	Primary Mat // [s]^{i1}_1 — first share of set i1
	Hat     Mat // [ŝ]^{i2}_1 — redundant copy of set i2's first share
	Second  Mat // [s]^{i3}_2 — second share of set i3
}

// Rows returns the row count of the bundled matrices.
func (b Bundle) Rows() int { return b.Primary.Rows }

// Cols returns the column count of the bundled matrices.
func (b Bundle) Cols() int { return b.Primary.Cols }

// Validate checks that the three components share one shape.
func (b Bundle) Validate() error {
	if b.Primary.IsZeroShape() || !b.Primary.SameShape(b.Hat) || !b.Primary.SameShape(b.Second) {
		return fmt.Errorf("sharing: inconsistent bundle shapes %dx%d / %dx%d / %dx%d",
			b.Primary.Rows, b.Primary.Cols, b.Hat.Rows, b.Hat.Cols, b.Second.Rows, b.Second.Cols)
	}
	return nil
}

// Clone deep-copies the bundle.
func (b Bundle) Clone() Bundle {
	return Bundle{Primary: b.Primary.Clone(), Hat: b.Hat.Clone(), Second: b.Second.Clone()}
}

// Add returns the component-wise sum: the local share computation for
// z = x + y.
func (b Bundle) Add(o Bundle) (Bundle, error) {
	p, err := b.Primary.Add(o.Primary)
	if err != nil {
		return Bundle{}, err
	}
	h, err := b.Hat.Add(o.Hat)
	if err != nil {
		return Bundle{}, err
	}
	s, err := b.Second.Add(o.Second)
	if err != nil {
		return Bundle{}, err
	}
	return Bundle{Primary: p, Hat: h, Second: s}, nil
}

// Sub returns the component-wise difference: the local share computation
// for z = x − y.
func (b Bundle) Sub(o Bundle) (Bundle, error) {
	p, err := b.Primary.Sub(o.Primary)
	if err != nil {
		return Bundle{}, err
	}
	h, err := b.Hat.Sub(o.Hat)
	if err != nil {
		return Bundle{}, err
	}
	s, err := b.Second.Sub(o.Second)
	if err != nil {
		return Bundle{}, err
	}
	return Bundle{Primary: p, Hat: h, Second: s}, nil
}

// Scale multiplies every share by the public ring constant k
// (multiplication by a constant is local, §II). Callers multiplying by
// a fixed-point-encoded constant must follow up with TruncateInPlace.
func (b Bundle) Scale(k int64) Bundle {
	return Bundle{Primary: b.Primary.Scale(k), Hat: b.Hat.Scale(k), Second: b.Second.Scale(k)}
}

// HadamardPublic multiplies every share element-wise by a public matrix
// (used for the public ReLU mask, §III-C). Mask entries are plain ring
// integers (0/1), so no truncation is needed.
func (b Bundle) HadamardPublic(mask Mat) (Bundle, error) {
	p, err := b.Primary.Hadamard(mask)
	if err != nil {
		return Bundle{}, err
	}
	h, err := b.Hat.Hadamard(mask)
	if err != nil {
		return Bundle{}, err
	}
	s, err := b.Second.Hadamard(mask)
	if err != nil {
		return Bundle{}, err
	}
	return Bundle{Primary: p, Hat: h, Second: s}, nil
}

// TruncateInPlace arithmetic-shifts every share right by frac bits in
// b's own storage and returns b: the local fixed-point rescaling after
// every multiplication (error bound: package fixed), for a bundle the
// caller exclusively owns, such as a Beaver combination or Scale result.
func (b Bundle) TruncateInPlace(frac uint) Bundle {
	tr := func(v int64) int64 { return v >> frac }
	b.Primary.MapInplace(tr)
	b.Hat.MapInplace(tr)
	b.Second.MapInplace(tr)
	return b
}

// SetShares groups, for one share set j, everything the collecting
// party has after the exchange round: the set's first share, the
// redundant copy of the first share, and the second share.
type SetShares struct {
	First    Mat
	HatFirst Mat
	Second   Mat
}

// CollectSets reorganizes the three parties' bundles (own + two
// received) into per-set shares. bundles[i-1] must be party P_i's
// bundle. For set j: the first share comes from party j (its Primary),
// the hat copy from party prev(j) (its Hat), and the second share from
// party next(j) (its Second).
func CollectSets(bundles [NumParties]Bundle) ([NumParties]SetShares, error) {
	var out [NumParties]SetShares
	for _, b := range bundles {
		if err := b.Validate(); err != nil {
			return out, err
		}
	}
	for j := 1; j <= NumParties; j++ {
		prev := (j+1)%NumParties + 1 // party whose i2 == j
		next := j%NumParties + 1     // party whose i3 == j
		out[j-1] = SetShares{
			First:    bundles[j-1].Primary,
			HatFirst: bundles[prev-1].Hat,
			Second:   bundles[next-1].Second,
		}
	}
	return out, nil
}

// Reconstructions holds what the decision rule of §III-B needs for one
// opened value: the three share sets, from which the six candidates
// s^j = [s]^j_1 + [s]^j_2 and ŝ^j = [ŝ]^j_1 + [s]^j_2 are formed, and the
// commitment-phase flags of Algorithm 4 (true = all contributing shares
// passed the commit check). DecideRows forms the candidates one row at
// a time, never as whole matrices, and keeps their deviations for Suspect.
type Reconstructions struct {
	sets    [NumParties]SetShares
	PlainOK [NumParties]bool
	HatOK   [NumParties]bool
	// decided is set by a successful DecideRows; dev[j] and
	// dev[NumParties+k] are then max |decided − s^j| and |decided − ŝ^k|
	// (+Inf where the candidate was flagged or mis-shaped).
	decided bool
	dev     [2 * NumParties]float64
}

// ReconstructSix arranges the per-set shares for the decision rule,
// checking that each set's shares can be summed. All flags start true;
// callers clear them per the commitment checks before calling
// DecideRows.
func ReconstructSix(sets [NumParties]SetShares) (Reconstructions, error) {
	rec := Reconstructions{sets: sets}
	for j, s := range sets {
		if !s.First.SameShape(s.Second) || !s.HatFirst.SameShape(s.Second) {
			return rec, fmt.Errorf("sharing: set %d: shares %dx%d, hat %dx%d, second %dx%d", j+1,
				s.First.Rows, s.First.Cols, s.HatFirst.Rows, s.HatFirst.Cols, s.Second.Rows, s.Second.Cols)
		}
		rec.PlainOK[j], rec.HatOK[j] = true, true
	}
	return rec, nil
}

// FlagParty clears the flags of every reconstruction that party p's
// shares feed into (Algorithm 4, lines 13–14): flag_{p1}, ˆflag_{p2},
// flag_{p3} and ˆflag_{p3}.
func (r *Reconstructions) FlagParty(p int) {
	p1, p2, p3 := SetsOf(p)
	r.PlainOK[p1-1] = false
	r.HatOK[p2-1] = false
	r.PlainOK[p3-1] = false
	r.HatOK[p3-1] = false
}

// pairOK reports whether (s^j, ŝ^k), 0-based, is a pair the decision
// rule may choose.
func (r *Reconstructions) pairOK(j, k int) bool {
	return j != k && r.PlainOK[j] && r.HatOK[k]
}

// Decision reports which reconstruction pair the decision rule selected.
type Decision struct {
	// PlainSet and HatSet are the 1-based set indices (j, k) of the
	// minimizing pair (s^j, ŝ^k), j ≠ k.
	PlainSet int
	HatSet   int
	// Distance is dist(s^j, ŝ^k) for the chosen pair.
	Distance float64
}

// ErrNoConsensus is returned when fewer than one unflagged pair with
// j ≠ k exists — possible only when more than one party misbehaves,
// which is outside the fault model.
var ErrNoConsensus = fmt.Errorf("sharing: no unflagged reconstruction pair (more than one Byzantine party?)")

// HonestSlack bounds the disagreement (raw ring units) between honest
// reconstructions of the same opened value: exact openings agree
// perfectly, and the share-local probabilistic truncation perturbs each
// set's reconstruction by at most a few carry units. Any two candidates
// within this slack of each other are equally valid reveals of the
// value; a corrupted candidate is farther away with overwhelming
// probability (the corrupter commits before seeing honest shares). The
// protocol layer's deviation-suspicion tolerance matches this bound.
const HonestSlack = 16

// DecideRows applies the decision rule of §III-B: among all unflagged
// pairs (s^j, ŝ^k) with j ≠ k, a pair at minimum distance reveals s^j.
// Two honest sets always agree up to truncation slack, while a
// Byzantine party can force agreement between the reconstructions it
// corrupts only with negligible probability (it must commit to its
// shares before seeing the honest ones). The rule is applied
// independently to each row of the reconstructed matrix, with a
// canonical preference among plausibly-honest candidates: each row
// first finds its minimum pair distance, then picks the
// lexicographically first unflagged pair (j, k) whose distance is
// within HonestSlack of that minimum, and reveals s^j's row.
//
// Both refinements exist to make the decision a pure function of the
// honest data, independent of shape and flag context:
//
//   - Per-row: after truncation the six candidates disagree by
//     share-local carry bits, so a matrix-global minimum-distance pair
//     lets one row's carries select the reconstruction used for a
//     logically unrelated row. Batched openings would then diverge
//     from their sequential replay. Per-row decisions make a batched
//     reveal bit-identical to the concatenation of single-row reveals.
//
//   - Canonical preference: within the slack, *which* candidate wins
//     min-distance is an artifact of carry noise — and parties can
//     hold different candidate sets (a party that flagged a timed-out
//     peer is forced to the peer-free pair; an unflagged party sees
//     all six). Strict min-distance then lets two honest parties
//     decide values differing by a carry, silently forking the shared
//     state — every later share of the forked party is off by a
//     mask-sized term. Preferring the lowest plain set among all
//     within-slack pairs makes every honest party choose the same
//     value whenever their candidate sets overlap on one honest pair,
//     while corrupted sets (distance >> HonestSlack above the minimum)
//     are still excluded.
//
// One pass does it all, row by row: the six candidates are summed into
// a 6 × cols scratch, pair distances are integer |Δ| maxima (float64 of
// |Δ| as uint64 equals math.Abs(float64(Δ)) and conversion is monotone,
// so the rule decides as over float distances), the decided row is
// written out, and each candidate's distance to it is folded into the
// deviations Suspect reads — for a hat, the pair distance already known.
//
// The returned Decision describes the worst (maximum-distance) row: the
// distance deviation detection compares against its tolerance.
func (r *Reconstructions) DecideRows() (Mat, Decision, error) {
	r.decided = false
	rows, cols := 0, 0
	for j, s := range r.sets {
		if r.PlainOK[j] {
			rows, cols = s.First.Rows, s.First.Cols
			break
		}
	}
	if rows == 0 && cols == 0 {
		return Mat{}, Decision{}, ErrNoConsensus
	}
	fits := func(m Mat) bool { return m.Rows == rows && m.Cols == cols }
	paired := false
	for j := range NumParties {
		for k := range NumParties {
			if !r.pairOK(j, k) {
				continue
			}
			if plain, hat := r.sets[j].First, r.sets[k].HatFirst; !fits(plain) || !fits(hat) {
				return Mat{}, Decision{}, fmt.Errorf("sharing: reconstruction shape mismatch (plain %d: %dx%d, hat %d: %dx%d)",
					j+1, plain.Rows, plain.Cols, k+1, hat.Rows, hat.Cols)
			}
			paired = true
		}
	}
	if !paired {
		return Mat{}, Decision{}, ErrNoConsensus
	}
	// Candidate j < NumParties is s^j, candidate NumParties+k is ŝ^k;
	// on marks the unflagged ones of the decided shape.
	var on [2 * NumParties]bool
	for j, s := range r.sets {
		on[j], on[NumParties+j] = r.PlainOK[j] && fits(s.First), r.HatOK[j] && fits(s.HatFirst)
	}
	out := Mat{Rows: rows, Cols: cols, Data: make([]int64, rows*cols)}
	scratch := make([]int64, 2*NumParties*cols)
	cand := func(i int) []int64 { return scratch[i*cols : (i+1)*cols] }
	var devMax [2 * NumParties]uint64
	worst := Decision{Distance: math.Inf(-1)}
	for lo := 0; lo < len(out.Data); lo += cols {
		hi := lo + cols
		for j, s := range r.sets {
			if on[j] {
				addRow(cand(j), s.First.Data[lo:hi], s.Second.Data[lo:hi])
			}
			if on[NumParties+j] {
				addRow(cand(NumParties+j), s.HatFirst.Data[lo:hi], s.Second.Data[lo:hi])
			}
		}
		var dist [NumParties][NumParties]uint64
		minDist := uint64(math.MaxUint64)
		for j := range NumParties {
			for k := range NumParties {
				if r.pairOK(j, k) {
					dist[j][k] = maxAbsDiff(cand(j), cand(NumParties+k))
					minDist = min(minDist, dist[j][k])
				}
			}
		}
		// Canonical choice: the first pair within slack of the minimum,
		// compared in float64 as the distances are reported.
		limit := float64(minDist) + HonestSlack
		pj, pk := 0, 0
	pick:
		for j := range NumParties {
			for k := range NumParties {
				if r.pairOK(j, k) && float64(dist[j][k]) <= limit {
					pj, pk = j, k
					break pick
				}
			}
		}
		decided := cand(pj)
		copy(out.Data[lo:hi], decided)
		if d := float64(dist[pj][pk]); d > worst.Distance {
			worst = Decision{PlainSet: pj + 1, HatSet: pk + 1, Distance: d}
		}
		for i, ok := range on {
			switch k := i - NumParties; {
			case !ok || i == pj: // nothing measured, or the decided row itself
			case k >= 0 && k != pj:
				devMax[i] = max(devMax[i], dist[pj][k])
			default:
				devMax[i] = max(devMax[i], maxAbsDiff(decided, cand(i)))
			}
		}
	}
	for i, ok := range on {
		r.dev[i] = math.Inf(1)
		if ok {
			r.dev[i] = float64(devMax[i])
		}
	}
	r.decided = true
	return out, worst, nil
}

// addRow sets dst = a + b over the ring.
func addRow(dst, a, b []int64) {
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		dst[i] = a[i] + b[i]
	}
}

// maxAbsDiff returns max |a − b| of the ring differences as uint64,
// without a sign branch: |MinInt64| = 2⁶³ is exact.
func maxAbsDiff(a, b []int64) uint64 {
	b = b[:len(a)]
	var m uint64
	for i, x := range a {
		d := x - b[i]
		s := d >> 63
		m = max(m, uint64((d^s)-s))
	}
	return m
}

// Suspect reports which party is most plausibly Byzantine, given
// tolerance tol (in raw ring units): the party with the most
// reconstructions that deviate from the value the last DecideRows
// decided by more than tol, or were flagged in the commitment phase.
// Before DecideRows, or after it failed, every candidate counts as
// deviating. It returns 0 when every reconstruction is within
// tolerance (no suspicion). This powers the detection logic the paper
// describes for Case 3 of the security analysis.
func (r *Reconstructions) Suspect(tol float64) int {
	// A Byzantine party p corrupts: plain p1, hat p2, plain+hat p3.
	// Score each party by how many of "its" reconstructions deviate.
	deviates := func(i int, ok bool) int {
		if !ok || !r.decided || r.dev[i] > tol {
			return 1
		}
		return 0
	}
	bestParty, bestScore := 0, 0
	for p := 1; p <= NumParties; p++ {
		p1, p2, p3 := SetsOf(p)
		score := deviates(p1-1, r.PlainOK[p1-1]) + deviates(NumParties+p2-1, r.HatOK[p2-1]) +
			deviates(p3-1, r.PlainOK[p3-1]) + deviates(NumParties+p3-1, r.HatOK[p3-1])
		if score > bestScore {
			bestParty, bestScore = p, score
		}
	}
	return bestParty
}
