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
// a fixed-point-encoded constant must follow up with Truncate.
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

// Truncate arithmetic-shifts every share right by frac bits: the local
// fixed-point rescaling applied after every multiplication. See package
// fixed for the error bound.
func (b Bundle) Truncate(frac uint) Bundle {
	tr := func(v int64) int64 { return v >> frac }
	return Bundle{Primary: b.Primary.Map(tr), Hat: b.Hat.Map(tr), Second: b.Second.Map(tr)}
}

// TruncateInPlace is Truncate over b's own storage, for bundles the
// caller exclusively owns (e.g. a fresh Beaver combination) — the
// secure step's hot path uses it to avoid cloning all three shares.
func (b Bundle) TruncateInPlace(frac uint) {
	tr := func(v int64) int64 { return v >> frac }
	b.Primary.MapInplace(tr)
	b.Hat.MapInplace(tr)
	b.Second.MapInplace(tr)
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

// Reconstructions holds the six candidate reconstructions of §III-B:
// s^j = [s]^j_1 + [s]^j_2 and ŝ^j = [ŝ]^j_1 + [s]^j_2, together with the
// commitment-phase flags of Algorithm 4 (true = all contributing shares
// passed the commit check).
type Reconstructions struct {
	Plain   [NumParties]Mat
	Hat     [NumParties]Mat
	PlainOK [NumParties]bool
	HatOK   [NumParties]bool
}

// ReconstructSix computes all six reconstructions from the per-set
// shares. All flags start true; callers clear them per the commitment
// checks before calling DecideRows.
func ReconstructSix(sets [NumParties]SetShares) (Reconstructions, error) {
	var rec Reconstructions
	for j := 0; j < NumParties; j++ {
		plain, err := sets[j].First.Add(sets[j].Second)
		if err != nil {
			return rec, fmt.Errorf("sharing: set %d: %w", j+1, err)
		}
		hat, err := sets[j].HatFirst.Add(sets[j].Second)
		if err != nil {
			return rec, fmt.Errorf("sharing: set %d (hat): %w", j+1, err)
		}
		rec.Plain[j], rec.Hat[j] = plain, hat
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
// within HonestSlack of that minimum, and reveals Plain[j]'s row.
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
// The returned Decision describes the worst (maximum-distance) row: the
// distance deviation detection compares against its tolerance.
func (r *Reconstructions) DecideRows() (Mat, Decision, error) {
	rows, cols := 0, 0
	for j := 0; j < NumParties; j++ {
		if r.PlainOK[j] {
			rows, cols = r.Plain[j].Rows, r.Plain[j].Cols
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
			if !r.PlainOK[j] {
				continue
			}
			for k := 0; k < NumParties; k++ {
				if k == j || !r.HatOK[k] {
					continue
				}
				if r.Plain[j].Rows != rows || r.Plain[j].Cols != cols ||
					r.Hat[k].Rows != rows || r.Hat[k].Cols != cols {
					return Mat{}, Decision{}, fmt.Errorf("sharing: reconstruction shape mismatch (plain %d: %dx%d, hat %d: %dx%d)",
						j+1, r.Plain[j].Rows, r.Plain[j].Cols, k+1, r.Hat[k].Rows, r.Hat[k].Cols)
				}
				d := 0.0
				for c := row * cols; c < (row+1)*cols; c++ {
					// Ring difference first, as in Mat.MaxAbsDiff: exact
					// near the int64 extremes where float64 conversion
					// of each operand would round the delta away.
					diff := math.Abs(float64(r.Plain[j].Data[c] - r.Hat[k].Data[c]))
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
		// Canonical choice: the first pair within slack of the minimum.
		best := Decision{}
	pick:
		for j := 0; j < NumParties; j++ {
			if !r.PlainOK[j] {
				continue
			}
			for k := 0; k < NumParties; k++ {
				if k == j || !r.HatOK[k] {
					continue
				}
				if dist[j][k] <= minDist+HonestSlack {
					best = Decision{PlainSet: j + 1, HatSet: k + 1, Distance: dist[j][k]}
					break pick
				}
			}
		}
		copy(out.Data[row*cols:(row+1)*cols], r.Plain[best.PlainSet-1].Data[row*cols:(row+1)*cols])
		if best.Distance > worst.Distance {
			worst = best
		}
	}
	return out, worst, nil
}

// Suspect inspects the six reconstructions and reports which party is
// most plausibly Byzantine, given the decided value and tolerance tol
// (in raw ring units). It returns 0 when every reconstruction is within
// tolerance (no suspicion). This powers the detection logic the paper
// describes for Case 3 of the security analysis.
func (r *Reconstructions) Suspect(decided Mat, tol float64) int {
	// A Byzantine party p corrupts: plain p1, hat p2, plain+hat p3.
	// Score each party by how many of "its" reconstructions deviate.
	deviates := func(m Mat, ok bool) bool {
		if !ok {
			return true // flagged in the commitment phase
		}
		d, err := decided.MaxAbsDiff(m)
		return err != nil || d > tol
	}
	bestParty, bestScore := 0, 0
	for p := 1; p <= NumParties; p++ {
		p1, p2, p3 := SetsOf(p)
		score := 0
		if deviates(r.Plain[p1-1], r.PlainOK[p1-1]) {
			score++
		}
		if deviates(r.Hat[p2-1], r.HatOK[p2-1]) {
			score++
		}
		if deviates(r.Plain[p3-1], r.PlainOK[p3-1]) {
			score++
		}
		if deviates(r.Hat[p3-1], r.HatOK[p3-1]) {
			score++
		}
		if score > bestScore {
			bestParty, bestScore = p, score
		}
	}
	return bestParty
}
