package protocol

import (
	"fmt"

	"github.com/trustddl/trustddl/internal/sharing"
	"github.com/trustddl/trustddl/internal/tensor"
)

// SecCompBT is Algorithm 5: Byzantine-tolerant element-wise secure
// comparison. It returns the public sign matrix sign(x − y) with
// entries in {−1, 0, +1}.
//
// t must be a bundle of random positive values so that
// sign(t⊙(x−y)) = sign(x−y), and the triple is the comparison item
// dealt against it (Dealer.CompTriple): B = t and C = A⊙t. t is the
// triple's right operand whatever the triple's own B holds, so
// F = t − B is zero and public without an opening: only e = α − A is
// opened before β, where α = x − y. Revealing the sign is the
// protocol's defined output — the ReLU mask it computes is public by
// design (§III-C).
func SecCompBT(ctx *Ctx, session string, x, y, t sharing.Bundle, triple sharing.TripleBundle) (Mat, error) {
	// Line 1: α = x − y.
	alpha, err := x.Sub(y)
	if err != nil {
		return Mat{}, fmt.Errorf("protocol: SecCompBT alpha: %w", err)
	}
	// Line 2: β = SecMul(α, t) with F = 0. The untruncated product
	// keeps sub-ulp sign information intact; only the sign of β is
	// ever revealed.
	f, err := tensor.New[int64](alpha.Rows(), alpha.Cols())
	if err != nil {
		return Mat{}, fmt.Errorf("protocol: SecCompBT: %w", err)
	}
	triple.B = t
	beta, _, err := secMulBT(ctx, session+"/mul", alpha, t, triple, f, product{kind: mulHadamard}, false)
	if err != nil {
		return Mat{}, err
	}
	// Lines 3–13: commitment phase and exchange of the β shares.
	res, err := ctx.exchangeBundles(session, "beta", []sharing.Bundle{beta})
	if err != nil {
		return Mat{}, err
	}
	// Lines 14–16: six reconstructions of β.
	rec, err := ctx.reconstructionsFor(res, 0)
	if err != nil {
		return Mat{}, err
	}
	// Line 17: minimum-distance decision.
	vals, err := decideJoint(rec)
	if err != nil {
		return Mat{}, fmt.Errorf("protocol: SecCompBT decide: %w", err)
	}
	// Line 18: sign(x − y) = sign(β).
	return signOf(vals[0]), nil
}

// signOf maps each element to −1, 0 or +1.
func signOf(m Mat) Mat {
	return m.Map(func(v int64) int64 {
		switch {
		case v > 0:
			return 1
		case v < 0:
			return -1
		default:
			return 0
		}
	})
}
