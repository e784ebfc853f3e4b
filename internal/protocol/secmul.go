package protocol

import (
	"fmt"

	"github.com/trustddl/trustddl/internal/sharing"
	"github.com/trustddl/trustddl/internal/tensor"
)

// mulKind selects the product the Beaver combination uses.
type mulKind int

const (
	mulHadamard mulKind = iota + 1
	mulMatrix
	// mulConv convolves the left operand's images with the right
	// operand's kernel matrix (product.conv is the geometry).
	mulConv
)

// product is the bilinear map z = x ∘ y a Beaver combination
// evaluates. Every term of the combination has the form u ∘ v with u of
// x's shape, so a conv triple's A, its opened e and x all stay at image
// shape and nothing is lowered: conv(u, v) = im2col(u)·v.
type product struct {
	kind mulKind
	conv tensor.ConvShape
}

// into writes a ∘ b into out, which has the shape outShape reports.
// Every kernel is bit-identical to its allocating form.
func (p product) into(a, b, out Mat) error {
	switch p.kind {
	case mulMatrix:
		return a.MatMulInto(b, out)
	case mulConv:
		return tensor.Conv2DBatchInto(p.conv, a, b, out)
	default:
		return a.HadamardInto(b, out)
	}
}

// outShape is the shape of x ∘ y.
func (p product) outShape(x, y Mat) (rows, cols int) {
	switch p.kind {
	case mulMatrix:
		return x.Rows, y.Cols
	case mulConv:
		return x.Rows * p.conv.OutHeight() * p.conv.OutWidth(), y.Cols
	default:
		return x.Rows, x.Cols
	}
}

// SecMulBT is Algorithm 4: Byzantine-tolerant element-wise secure
// multiplication z = x ⊙ y over the three-set share bundles. All three
// computing parties call it concurrently with the same session string
// and their own bundles; it returns this party's bundle of z, already
// rescaled to single fixed-point scale.
//
// The Beaver triple must be fresh (single use) and of the operands'
// shape; the model owner deals it (§III-A).
func SecMulBT(ctx *Ctx, session string, x, y sharing.Bundle, triple sharing.TripleBundle) (sharing.Bundle, error) {
	z, _, err := secMulBT(ctx, session, x, y, triple, Mat{}, product{kind: mulHadamard}, true)
	return z, err
}

// SecMatMulBT is the adapted SecMatMul-BT protocol: identical to
// SecMulBT with matrix products substituted for element-wise products.
// x is m×n, y is n×p and the triple must have matching shapes.
func SecMatMulBT(ctx *Ctx, session string, x, y sharing.Bundle, triple sharing.TripleBundle) (sharing.Bundle, error) {
	z, _, err := secMulBT(ctx, session, x, y, triple, Mat{}, product{kind: mulMatrix}, true)
	return z, err
}

// SecMatMulWeightBT is SecMatMulBT for a right operand w that stays
// fixed over many calls (a layer's weights): the opened f = w − b is
// returned beside z, and a caller that passes it back — with the same
// triple.B, against which the dealer then deals only (A, C = A·b) —
// has only e = x − A opened. An empty f opens both, exactly as
// SecMatMulBT does. The caller must drop f and B the moment w changes:
// opening a second w under the same b would reveal their difference.
func SecMatMulWeightBT(ctx *Ctx, session string, x, w sharing.Bundle, triple sharing.TripleBundle, f Mat) (sharing.Bundle, Mat, error) {
	return secMulBT(ctx, session, x, w, triple, f, product{kind: mulMatrix}, true)
}

// SecConvWeightBT is SecMatMulWeightBT for a convolution: x holds one
// flattened shape.InSize() image per row, w is the PatchSize×filters
// kernel matrix, and the triple is a conv triple (ConvRequest) whose A
// has x's shape. It opens e = x − A at image shape and evaluates
// z = C + conv(e, B) + conv(A, F) + conv(e, F), which equals the
// lowered SecMatMulWeightBT over im2col(x) because the lowering is
// linear — without ever lowering a share. z has one row per image and
// output position, (images·OutH·OutW)×filters. f and B follow the
// SecMatMulWeightBT contract: the caller drops them when w changes.
func SecConvWeightBT(ctx *Ctx, session string, shape tensor.ConvShape, x, w sharing.Bundle, triple sharing.TripleBundle, f Mat) (sharing.Bundle, Mat, error) {
	return secMulBT(ctx, session, x, w, triple, f, product{kind: mulConv, conv: shape}, true)
}

// secMulBT opens whichever of e = x − a and f = y − b is not public
// yet (f is, when the caller passes it) in one commit-and-open
// exchange, and returns z with the f it used.
func secMulBT(ctx *Ctx, session string, x, y sharing.Bundle, triple sharing.TripleBundle, f Mat, prod product, truncate bool) (sharing.Bundle, Mat, error) {
	if err := x.Validate(); err != nil {
		return sharing.Bundle{}, Mat{}, fmt.Errorf("protocol: SecMulBT x: %w", err)
	}
	if err := y.Validate(); err != nil {
		return sharing.Bundle{}, Mat{}, fmt.Errorf("protocol: SecMulBT y: %w", err)
	}

	// Lines 1–2: mask the operands with the triple.
	e, err := x.Sub(triple.A)
	if err != nil {
		return sharing.Bundle{}, Mat{}, fmt.Errorf("protocol: SecMulBT mask e: %w", err)
	}
	step, opening := "e", []sharing.Bundle{e}
	if f.IsZeroShape() {
		fShares, err := y.Sub(triple.B)
		if err != nil {
			return sharing.Bundle{}, Mat{}, fmt.Errorf("protocol: SecMulBT mask f: %w", err)
		}
		step, opening = "ef", append(opening, fShares)
	}

	// Lines 3–14: commitment phase and share exchange for [e] and [f].
	res, err := ctx.exchangeBundles(session, step, opening)
	if err != nil {
		return sharing.Bundle{}, Mat{}, err
	}

	// Lines 15–19: the share sets of each opened value (DecideRows
	// forms the six reconstructions from them, row by row).
	recStart := ctx.obsStart()
	recs := make([]*sharing.Reconstructions, len(opening))
	for k := range opening {
		if recs[k], err = ctx.reconstructionsFor(res, k); err != nil {
			return sharing.Bundle{}, Mat{}, err
		}
	}
	ctx.obsPhase(ctx.obsReconstruct, recStart)
	// Line 20: joint minimum-distance decision.
	decideStart := ctx.obsStart()
	vals, err := decideJoint(recs...)
	if err != nil {
		return sharing.Bundle{}, Mat{}, fmt.Errorf("protocol: SecMulBT decide: %w", err)
	}
	ctx.obsPhase(ctx.obsDecide, decideStart)
	ctx.recordDeviations(session, step, res, recs)
	if len(vals) == 2 {
		f = vals[1]
	}

	// Lines 21–24: local share computation z = c + e·b + a·f, with the
	// public e·f term folded into the second share of each set (r = 2).
	z, err := beaverCombine(triple, vals[0], f, prod)
	if err != nil {
		return sharing.Bundle{}, Mat{}, err
	}
	if truncate {
		// z is freshly combined and exclusively ours: truncate in place
		// instead of cloning all three shares.
		z.TruncateInPlace(ctx.Params.FracBits)
	}
	return z, f, nil
}

// beaverCombine evaluates c + e∘b + a∘f on each bundle component and
// adds e∘f to the second share, where ∘ is prod.
//
// The intermediate products (eb, af per component, plus ef) live only
// until their AddInPlace, so they run through pooled scratch matrices:
// a secure step's Beaver combinations allocate nothing beyond the
// returned bundle.
func beaverCombine(triple sharing.TripleBundle, e, f Mat, prod product) (sharing.Bundle, error) {
	scratch := tensor.GetMatrix(prod.outShape(e, f))
	defer tensor.PutMatrix(scratch)
	mulInto := func(a, b Mat) error { return prod.into(a, b, scratch) }
	component := func(c, b, a Mat) (Mat, error) {
		if err := mulInto(e, b); err != nil {
			return Mat{}, fmt.Errorf("protocol: beaver e∘b: %w", err)
		}
		out, err := c.Add(scratch)
		if err != nil {
			return Mat{}, err
		}
		if err := mulInto(a, f); err != nil {
			return Mat{}, fmt.Errorf("protocol: beaver a∘f: %w", err)
		}
		if err := out.AddInPlace(scratch); err != nil {
			return Mat{}, err
		}
		return out, nil
	}
	primary, err := component(triple.C.Primary, triple.B.Primary, triple.A.Primary)
	if err != nil {
		return sharing.Bundle{}, err
	}
	hat, err := component(triple.C.Hat, triple.B.Hat, triple.A.Hat)
	if err != nil {
		return sharing.Bundle{}, err
	}
	second, err := component(triple.C.Second, triple.B.Second, triple.A.Second)
	if err != nil {
		return sharing.Bundle{}, err
	}
	if err := mulInto(e, f); err != nil {
		return sharing.Bundle{}, fmt.Errorf("protocol: beaver e∘f: %w", err)
	}
	if err := second.AddInPlace(scratch); err != nil {
		return sharing.Bundle{}, err
	}
	return sharing.Bundle{Primary: primary, Hat: hat, Second: second}, nil
}
