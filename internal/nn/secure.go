package nn

import (
	"fmt"
	"strings"
	"time"

	"github.com/trustddl/trustddl/internal/fixed"
	"github.com/trustddl/trustddl/internal/obs"
	"github.com/trustddl/trustddl/internal/protocol"
	"github.com/trustddl/trustddl/internal/sharing"
	"github.com/trustddl/trustddl/internal/tensor"
	"github.com/trustddl/trustddl/internal/transport"
)

// Mat abbreviates the ring matrix domain of the secure engine.
type Mat = tensor.Matrix[int64]

// TripleSource supplies the correlated randomness each secure operation
// consumes: Beaver triples and the comparison items of SecComp-BT.
// Implementations: OwnerSource (the model owner deals on demand over
// the network, §III-A) and PreDealer views (offline precomputation,
// used to separate offline from online cost).
type TripleSource interface {
	// MatMulTriple returns this party's share of an m×n × n×p Beaver
	// triple for the given session. mask names the weight-side mask b
	// the triple is dealt against ("" = a fresh single-use one): the
	// deal that first sees a name draws b, and while the dealer holds
	// it later deals under that name return only A and C = A·b, with B
	// empty — the caller kept its share of b from the first deal.
	// backPair, with no mask named, also asks for the backward pair
	// A′, C′ = A′·bᵀ in the triple's Back (sharing.BatchOrder.BackPair).
	MatMulTriple(session, mask string, m, n, p int, backPair bool) (sharing.TripleBundle, error)
	// ConvTriple returns this party's share of the triple of a
	// convolution over images images and outChannels filters: the
	// MatMulTriple of the lowered product, under the same mask and
	// backward pair rules, but with A dealt at image shape
	// (images × shape.InSize()) and C the convolution of A with b
	// (protocol.ConvRequest).
	ConvTriple(session, mask string, shape tensor.ConvShape, images, outChannels int, backPair bool) (sharing.TripleBundle, error)
	// CompTriple returns this party's share of a comparison item of
	// shape rows×cols: a random positive matrix t as B, with A and
	// C = A⊙t (sharing.Dealer.CompTriple).
	CompTriple(session string, rows, cols int) (sharing.TripleBundle, error)
}

// OwnerSource requests correlated randomness from the model owner over
// the network (online dealing; its traffic is metered).
type OwnerSource struct {
	// Ctx is the owning party's protocol context.
	Ctx *protocol.Ctx
}

var _ TripleSource = OwnerSource{}

// MatMulTriple implements TripleSource.
func (s OwnerSource) MatMulTriple(session, mask string, m, n, p int, backPair bool) (sharing.TripleBundle, error) {
	return protocol.RequestTriple(s.Ctx, protocol.TripleRequest{Kind: protocol.ReqMatMul, Session: session, M: m, N: n, P: p, Mask: mask, BackPair: backPair})
}

// ConvTriple implements TripleSource.
func (s OwnerSource) ConvTriple(session, mask string, shape tensor.ConvShape, images, outChannels int, backPair bool) (sharing.TripleBundle, error) {
	r := protocol.ConvRequest(session, mask, shape, images, outChannels)
	r.BackPair = backPair
	return protocol.RequestTriple(s.Ctx, r)
}

// CompTriple implements TripleSource.
func (s OwnerSource) CompTriple(session string, rows, cols int) (sharing.TripleBundle, error) {
	return protocol.RequestTriple(s.Ctx, protocol.TripleRequest{Kind: protocol.ReqAux, Session: session, M: rows, N: cols})
}

// SecureLayer is one stage of the secret-shared network. Each computing
// party holds its own layer instance (its share bundles of the
// parameters); the three instances advance in lockstep through shared
// session strings.
type SecureLayer interface {
	// Forward maps this party's activation bundle to the output bundle.
	Forward(ctx *protocol.Ctx, ts TripleSource, session string, x sharing.Bundle) (sharing.Bundle, error)
	// Backward maps the output-gradient bundle to the input-gradient
	// bundle, caching parameter gradients. A parameterised layer's
	// Backward follows its forward of a training step and returns an
	// empty input gradient unless that forward dealt for one.
	Backward(ctx *protocol.Ctx, ts TripleSource, session string, dy sharing.Bundle) (sharing.Bundle, error)
	// Update applies cached gradients: W ← W − lr·dW, computed locally
	// on shares (a public-constant multiplication, §II).
	Update(params fixed.Params, lr float64) error
}

// transformBundle applies the same local transformation to all three
// share components. Local transformations commute with additive
// sharing because they are linear (§III-C).
func transformBundle(b sharing.Bundle, f func(Mat) (Mat, error)) (sharing.Bundle, error) {
	p, err := f(b.Primary)
	if err != nil {
		return sharing.Bundle{}, err
	}
	h, err := f(b.Hat)
	if err != nil {
		return sharing.Bundle{}, err
	}
	s, err := f(b.Second)
	if err != nil {
		return sharing.Bundle{}, err
	}
	return sharing.Bundle{Primary: p, Hat: h, Second: s}, nil
}

func transposeBundle(b sharing.Bundle) (sharing.Bundle, error) {
	return transformBundle(b, func(m Mat) (Mat, error) { return m.Transpose(), nil })
}

// pooledTransposeBundle transposes b into pooled storage. The result is
// scratch for exactly one protocol call in the backward pass; the
// caller must hand it back via releaseBundle once that call returns
// (the protocol masks operands into fresh bundles, so the transposed
// shares are dead the moment SecMatMulBT does).
func pooledTransposeBundle(b sharing.Bundle) (sharing.Bundle, error) {
	out := sharing.Bundle{
		Primary: tensor.GetMatrix(b.Primary.Cols, b.Primary.Rows),
		Hat:     tensor.GetMatrix(b.Hat.Cols, b.Hat.Rows),
		Second:  tensor.GetMatrix(b.Second.Cols, b.Second.Rows),
	}
	if err := b.Primary.TransposeInto(out.Primary); err != nil {
		return sharing.Bundle{}, err
	}
	if err := b.Hat.TransposeInto(out.Hat); err != nil {
		return sharing.Bundle{}, err
	}
	if err := b.Second.TransposeInto(out.Second); err != nil {
		return sharing.Bundle{}, err
	}
	return out, nil
}

// releaseBundle returns a pooled bundle's share storage to the matrix
// pool. The bundle and every view of it are dead after this call.
func releaseBundle(b sharing.Bundle) {
	tensor.PutMatrix(b.Primary)
	tensor.PutMatrix(b.Hat)
	tensor.PutMatrix(b.Second)
}

// zeroBundle returns all-zero shares of the public constant 0.
func zeroBundle(rows, cols int) sharing.Bundle {
	mk := func() Mat {
		return tensor.Matrix[int64]{Rows: rows, Cols: cols, Data: make([]int64, rows*cols)}
	}
	return sharing.Bundle{Primary: mk(), Hat: mk(), Second: mk()}
}

// maskEpochLabel introduces the mask epoch in a pass's session label,
// the way "?lr=" introduces a training step's learning rate.
const maskEpochLabel = "?me="

// WithMaskEpoch labels a pass's session with the mask epoch its
// parameterised layers deal their weight masks under. The pass driver
// picks the epoch and must change it whenever a party's weights or
// cached masks may have changed or been lost — after a training step,
// a (re-)provisioning, or any pass that did not complete on all three
// parties — so that every party, in process or served, derives the
// same mask names and the dealer sees a name exactly as long as every
// party holds the mask that goes with it.
func WithMaskEpoch(session string, epoch uint64) string {
	return fmt.Sprintf("%s%s%d", session, maskEpochLabel, epoch)
}

// maskName derives the name a layer's weight mask is dealt under from
// the layer's forward session: the epoch label and the layer's path
// below it, without the per-pass prefix — "infer/17?me=3/l2" and
// "infer/18?me=3/l2" both name "me=3/l2". A session without the label
// (a training step, a bare protocol test) names no mask, and the layer
// gets a fresh single-use triple.
func maskName(session string) string {
	i := strings.LastIndex(session, maskEpochLabel)
	if i < 0 {
		return ""
	}
	return session[i+1:]
}

// weightMask is what a parameterised layer keeps of the pass that
// opened its weights: this party's share of the mask b, and the public
// f = W − b every party decided. While the weights are unchanged and
// the dealer still holds b under the same name, a forward pass needs
// only an input-side pair against b and opens only e = X − A (a warm
// pass). A training step's forward names no mask and keeps b and f
// for its own backward, with the backward pair its triple was dealt
// with when the step wants the layer's input gradient. The zero value
// holds nothing, which makes the next pass cold.
//
// Invalidation is a privacy requirement, not a tuning choice: a second
// weight value opened under the same b would reveal W′ − W. Every
// assignment to a layer's W therefore zeroes its weightMask.
type weightMask struct {
	name string
	b    sharing.Bundle
	f    Mat
	back sharing.Pair
}

// pass is what a parameterised layer's forward product serves.
type pass int

const (
	// inference names the weight mask by the session's mask epoch.
	inference pass = iota
	// training takes a fresh mask and keeps it, with the opened f,
	// until Update.
	training
	// trainingInputGrad is training whose deal also carries the
	// backward pair: the step wants the layer's input gradient.
	trainingInputGrad
)

// weighted is a parameterised layer (SecureDense, SecureConv).
type weighted interface {
	SecureLayer
	// forward is Forward for the given pass.
	forward(ctx *protocol.Ctx, ts TripleSource, session string, x sharing.Bundle, p pass) (sharing.Bundle, error)
}

// matMul computes this party's bundle of x·w for a layer whose weights
// are w, with the triple dealt for pass p.
func (wm *weightMask) matMul(ctx *protocol.Ctx, ts TripleSource, session string, x, w sharing.Bundle, p pass) (sharing.Bundle, error) {
	name := p.mask(session)
	triple, err := ts.MatMulTriple(session+"/t", name, x.Rows(), w.Rows(), w.Cols(), p == trainingInputGrad)
	if err != nil {
		return sharing.Bundle{}, err
	}
	return wm.mul(session, name, p, triple, func(t sharing.TripleBundle, f Mat) (sharing.Bundle, Mat, error) {
		return protocol.SecMatMulWeightBT(ctx, session, x, w, t, f)
	})
}

// conv is matMul for a convolution of x's images with the kernel
// matrix w: the triple is a conv triple and x is never lowered.
func (wm *weightMask) conv(ctx *protocol.Ctx, ts TripleSource, session string, shape tensor.ConvShape, x, w sharing.Bundle, p pass) (sharing.Bundle, error) {
	name := p.mask(session)
	triple, err := ts.ConvTriple(session+"/t", name, shape, x.Rows(), w.Cols(), p == trainingInputGrad)
	if err != nil {
		return sharing.Bundle{}, err
	}
	return wm.mul(session, name, p, triple, func(t sharing.TripleBundle, f Mat) (sharing.Bundle, Mat, error) {
		return protocol.SecConvWeightBT(ctx, session, shape, x, w, t, f)
	})
}

// mask is the name a forward of pass p deals its weight mask under: a
// training step's names none.
func (p pass) mask(session string) string {
	if p != inference {
		return ""
	}
	return maskName(session)
}

// mul runs one weight-side product, secMul, with the triple dealt
// under name: warm (the stored B and f) when the dealer sent no B,
// cold otherwise, caching what a cold pass opened — and what a
// training step's backward reads.
func (wm *weightMask) mul(session, name string, p pass, triple sharing.TripleBundle, secMul func(sharing.TripleBundle, Mat) (sharing.Bundle, Mat, error)) (sharing.Bundle, error) {
	var f Mat
	if triple.B.Primary.IsZeroShape() {
		// Only (A, C): the dealer holds the mask of that name.
		if name == "" || wm.name != name {
			return sharing.Bundle{}, fmt.Errorf("nn: triple for %q dealt against mask %q, which this party does not hold", session, name)
		}
		triple.B, f = wm.b, wm.f
	}
	y, opened, err := secMul(triple, f)
	if err != nil {
		return sharing.Bundle{}, err
	}
	if (name != "" || p != inference) && f.IsZeroShape() {
		*wm = weightMask{name: name, b: triple.B, f: opened, back: triple.Back}
	}
	return y, nil
}

// inputGrad returns this party's bundle of dy·wᵀ for the weights w a
// training forward opened under b: the backward pair (A′, C′ = A′·bᵀ)
// with bᵀ is a triple whose f is fᵀ, already public, so only dy − A′
// is opened. It returns an empty bundle when the forward dealt no pair
// — the step does not want this layer's input gradient.
func (wm *weightMask) inputGrad(ctx *protocol.Ctx, session string, dy, w sharing.Bundle) (sharing.Bundle, error) {
	if wm.name != "" || wm.f.IsZeroShape() {
		return sharing.Bundle{}, fmt.Errorf("nn: backward %q without a training forward", session)
	}
	if wm.back.A.Primary.IsZeroShape() {
		return sharing.Bundle{}, nil
	}
	bt, err := pooledTransposeBundle(wm.b)
	if err != nil {
		return sharing.Bundle{}, err
	}
	defer releaseBundle(bt)
	wt, err := pooledTransposeBundle(w)
	if err != nil {
		return sharing.Bundle{}, err
	}
	defer releaseBundle(wt)
	triple := sharing.TripleBundle{A: wm.back.A, B: bt, C: wm.back.C}
	dx, _, err := protocol.SecMatMulWeightBT(ctx, session, dy, wt, triple, wm.f.Transpose())
	return dx, err
}

// SecureDense mirrors Dense over share bundles: y = x·W via
// SecMatMul-BT.
type SecureDense struct {
	// W is this party's bundle of the in×out weight matrix.
	W sharing.Bundle
	// Momentum enables classical momentum SGD (0 = plain SGD). The
	// velocity is itself secret-shared; the momentum update is linear
	// and therefore local (§II).
	Momentum float64

	in, out int
	x       sharing.Bundle
	dW      sharing.Bundle
	vel     sharing.Bundle
	mask    weightMask
}

var _ weighted = (*SecureDense)(nil)

// NewSecureDense wraps a distributed weight bundle.
func NewSecureDense(w sharing.Bundle) (*SecureDense, error) {
	if err := w.Validate(); err != nil {
		return nil, fmt.Errorf("nn: secure dense: %w", err)
	}
	return &SecureDense{W: w, in: w.Rows(), out: w.Cols()}, nil
}

// Forward implements SecureLayer.
func (d *SecureDense) Forward(ctx *protocol.Ctx, ts TripleSource, session string, x sharing.Bundle) (sharing.Bundle, error) {
	return d.forward(ctx, ts, session, x, inference)
}

func (d *SecureDense) forward(ctx *protocol.Ctx, ts TripleSource, session string, x sharing.Bundle, p pass) (sharing.Bundle, error) {
	d.x = x
	return d.mask.matMul(ctx, ts, session, x, d.W, p)
}

// Backward implements SecureLayer: dW = xᵀ·dy, and dx = dy·Wᵀ under
// the forward's mask when the training forward was asked for it.
func (d *SecureDense) Backward(ctx *protocol.Ctx, ts TripleSource, session string, dy sharing.Bundle) (sharing.Bundle, error) {
	xt, err := pooledTransposeBundle(d.x)
	if err != nil {
		return sharing.Bundle{}, err
	}
	defer releaseBundle(xt)
	tw, err := ts.MatMulTriple(session+"/dw/t", "", d.in, dy.Rows(), d.out, false)
	if err != nil {
		return sharing.Bundle{}, err
	}
	dW, err := protocol.SecMatMulBT(ctx, session+"/dw", xt, dy, tw)
	if err != nil {
		return sharing.Bundle{}, err
	}
	d.dW = dW
	return d.mask.inputGrad(ctx, session+"/dx", dy, d.W)
}

// Update implements SecureLayer.
func (d *SecureDense) Update(params fixed.Params, lr float64) error {
	if d.dW.Primary.IsZeroShape() {
		return nil
	}
	eff, err := applyMomentumBundle(&d.vel, d.dW, d.Momentum, params)
	if err != nil {
		return fmt.Errorf("nn: secure dense momentum: %w", err)
	}
	step := eff.Scale(params.FromFloat(lr)).TruncateInPlace(params.FracBits)
	w, err := d.W.Sub(step)
	if err != nil {
		return fmt.Errorf("nn: secure dense update: %w", err)
	}
	d.W, d.mask = w, weightMask{}
	return nil
}

// applyMomentumBundle folds the gradient bundle into the shared
// velocity: v ← μ·v + dW, all local linear operations on shares.
func applyMomentumBundle(vel *sharing.Bundle, dW sharing.Bundle, mu float64, params fixed.Params) (sharing.Bundle, error) {
	if mu <= 0 {
		return dW, nil
	}
	if vel.Primary.IsZeroShape() {
		*vel = dW.Clone()
		return *vel, nil
	}
	scaled := vel.Scale(params.FromFloat(mu)).TruncateInPlace(params.FracBits)
	next, err := scaled.Add(dW)
	if err != nil {
		return sharing.Bundle{}, err
	}
	*vel = next
	return *vel, nil
}

// setMomentum lets SecureNetwork.SetMomentum reach this layer.
func (d *SecureDense) setMomentum(mu float64) { d.Momentum = mu }

// SecureReLU mirrors ReLU: the sign of each activation is revealed via
// SecComp-BT (the public ReLU mask of §III-C); masking and the backward
// derivative are then local.
type SecureReLU struct {
	mask Mat
}

var _ SecureLayer = (*SecureReLU)(nil)

// NewSecureReLU returns a secure ReLU layer.
func NewSecureReLU() *SecureReLU { return &SecureReLU{} }

// Forward implements SecureLayer.
func (r *SecureReLU) Forward(ctx *protocol.Ctx, ts TripleSource, session string, x sharing.Bundle) (sharing.Bundle, error) {
	rows, cols := x.Rows(), x.Cols()
	triple, err := ts.CompTriple(session+"/aux", rows, cols)
	if err != nil {
		return sharing.Bundle{}, err
	}
	sign, err := protocol.SecCompBT(ctx, session, x, zeroBundle(rows, cols), triple.B, triple)
	if err != nil {
		return sharing.Bundle{}, err
	}
	r.mask = sign.Map(func(v int64) int64 {
		if v > 0 {
			return 1
		}
		return 0
	})
	return x.HadamardPublic(r.mask)
}

// Backward implements SecureLayer.
func (r *SecureReLU) Backward(_ *protocol.Ctx, _ TripleSource, _ string, dy sharing.Bundle) (sharing.Bundle, error) {
	if r.mask.IsZeroShape() {
		return sharing.Bundle{}, fmt.Errorf("nn: secure relu backward before forward")
	}
	return dy.HadamardPublic(r.mask)
}

// Update implements SecureLayer.
func (r *SecureReLU) Update(fixed.Params, float64) error { return nil }

// SecureConv mirrors Conv. The forward pass runs SecConvWeightBT on the
// image-shaped shares: the input mask is opened before the lowering,
// so a pass opens InSize values per image instead of the lowered
// OutH·OutW·PatchSize. The backward pass lowers the cached input
// shares (im2col is a local transformation of the shares) for the
// weight gradient's SecMatMul-BT, and takes the input gradient, when
// the step wants it, as the lowered dY·Wᵀ under the forward's mask.
type SecureConv struct {
	// Shape is the spatial geometry.
	Shape tensor.ConvShape
	// OutChannels is the filter count.
	OutChannels int
	// W is this party's bundle of the PatchSize×OutChannels weights.
	W sharing.Bundle
	// Momentum enables classical momentum SGD (0 = plain SGD).
	Momentum float64

	x    sharing.Bundle // input bundle of the last forward
	dW   sharing.Bundle
	vel  sharing.Bundle
	mask weightMask
}

var _ weighted = (*SecureConv)(nil)

// NewSecureConv wraps a distributed convolution weight bundle.
func NewSecureConv(shape tensor.ConvShape, outChannels int, w sharing.Bundle) (*SecureConv, error) {
	if err := shape.Validate(); err != nil {
		return nil, err
	}
	if err := w.Validate(); err != nil {
		return nil, fmt.Errorf("nn: secure conv: %w", err)
	}
	if w.Rows() != shape.PatchSize() || w.Cols() != outChannels {
		return nil, fmt.Errorf("nn: secure conv weights %dx%d, want %dx%d", w.Rows(), w.Cols(), shape.PatchSize(), outChannels)
	}
	return &SecureConv{Shape: shape, OutChannels: outChannels, W: w}, nil
}

// OutSize returns the flattened per-sample output width.
func (c *SecureConv) OutSize() int {
	return c.Shape.OutHeight() * c.Shape.OutWidth() * c.OutChannels
}

// Forward implements SecureLayer.
func (c *SecureConv) Forward(ctx *protocol.Ctx, ts TripleSource, session string, x sharing.Bundle) (sharing.Bundle, error) {
	return c.forward(ctx, ts, session, x, inference)
}

func (c *SecureConv) forward(ctx *protocol.Ctx, ts TripleSource, session string, x sharing.Bundle, p pass) (sharing.Bundle, error) {
	batch := x.Rows()
	c.x = x
	positions := c.Shape.OutHeight() * c.Shape.OutWidth()
	y, err := c.mask.conv(ctx, ts, session, c.Shape, x, c.W, p)
	if err != nil {
		return sharing.Bundle{}, err
	}
	// Regroup (B·P)×Cout rows into B rows of P·Cout (local reshape).
	return transformBundle(y, func(m Mat) (Mat, error) { return m.Reshape(batch, positions*c.OutChannels) })
}

// Backward implements SecureLayer.
func (c *SecureConv) Backward(ctx *protocol.Ctx, ts TripleSource, session string, dy sharing.Bundle) (sharing.Bundle, error) {
	if c.x.Primary.IsZeroShape() {
		return sharing.Bundle{}, fmt.Errorf("nn: secure conv backward before forward")
	}
	batch := dy.Rows()
	positions := c.Shape.OutHeight() * c.Shape.OutWidth()
	dY, err := transformBundle(dy, func(m Mat) (Mat, error) { return m.Reshape(batch*positions, c.OutChannels) })
	if err != nil {
		return sharing.Bundle{}, err
	}
	cols, err := transformBundle(c.x, func(m Mat) (Mat, error) { return tensor.Im2ColBatch(c.Shape, m) })
	if err != nil {
		return sharing.Bundle{}, err
	}
	colsT, err := pooledTransposeBundle(cols)
	if err != nil {
		return sharing.Bundle{}, err
	}
	defer releaseBundle(colsT)
	tw, err := ts.MatMulTriple(session+"/dw/t", "", c.Shape.PatchSize(), batch*positions, c.OutChannels, false)
	if err != nil {
		return sharing.Bundle{}, err
	}
	dW, err := protocol.SecMatMulBT(ctx, session+"/dw", colsT, dY, tw)
	if err != nil {
		return sharing.Bundle{}, err
	}
	c.dW = dW
	dCols, err := c.mask.inputGrad(ctx, session+"/dx", dY, c.W)
	if err != nil || dCols.Primary.IsZeroShape() {
		return sharing.Bundle{}, err
	}
	return transformBundle(dCols, func(m Mat) (Mat, error) { return tensor.Col2ImBatch(c.Shape, m, batch) })
}

// Update implements SecureLayer.
func (c *SecureConv) Update(params fixed.Params, lr float64) error {
	if c.dW.Primary.IsZeroShape() {
		return nil
	}
	eff, err := applyMomentumBundle(&c.vel, c.dW, c.Momentum, params)
	if err != nil {
		return fmt.Errorf("nn: secure conv momentum: %w", err)
	}
	step := eff.Scale(params.FromFloat(lr)).TruncateInPlace(params.FracBits)
	w, err := c.W.Sub(step)
	if err != nil {
		return fmt.Errorf("nn: secure conv update: %w", err)
	}
	c.W, c.mask = w, weightMask{}
	return nil
}

// setMomentum lets SecureNetwork.SetMomentum reach this layer.
func (c *SecureConv) setMomentum(mu float64) { c.Momentum = mu }

// SoftmaxName is the delegated-function name the model owner registers
// for the softmax service (§III-C).
const SoftmaxName = "softmax"

// SoftmaxDelegate returns the owner-side softmax evaluator: decode the
// validated logits reconstruction, apply a numerically stable softmax
// row-wise, re-encode.
func SoftmaxDelegate(params fixed.Params) protocol.UnaryFunc {
	return func(logits Mat) (Mat, error) {
		f := tensor.Matrix[float64]{Rows: logits.Rows, Cols: logits.Cols, Data: make([]float64, logits.Size())}
		for i, v := range logits.Data {
			f.Data[i] = params.ToFloat(v)
		}
		p := SoftmaxRows(f)
		out := tensor.Matrix[int64]{Rows: p.Rows, Cols: p.Cols, Data: make([]int64, p.Size())}
		for i, v := range p.Data {
			out.Data[i] = params.FromFloat(v)
		}
		return out, nil
	}
}

// SecureNetwork is the secret-shared instance of a feed-forward
// network with a delegated softmax head.
type SecureNetwork struct {
	// Layers advance in lockstep across the three parties.
	Layers []SecureLayer
	// OwnerActor is the actor evaluating the softmax head.
	OwnerActor int
}

// SetMomentum configures classical momentum on every parameterized
// layer (0 disables it). All parties must use the same value.
func (n *SecureNetwork) SetMomentum(mu float64) {
	for _, l := range n.Layers {
		if m, ok := l.(interface{ setMomentum(float64) }); ok {
			m.setMomentum(mu)
		}
	}
}

// Logits runs the secure forward pass up to (excluding) softmax. With
// a metrics registry attached to ctx, each layer's wall time lands in
// an nn.l<i>.forward histogram.
func (n *SecureNetwork) Logits(ctx *protocol.Ctx, ts TripleSource, session string, x sharing.Bundle) (sharing.Bundle, error) {
	return n.forward(ctx, ts, session, x, false)
}

// forward runs the layers' forward passes: Logits, or with train the
// forward of a training step, in which the parameterised layers keep
// what their backward reads and every one after the first is dealt
// the backward pair of its input gradient.
func (n *SecureNetwork) forward(ctx *protocol.Ctx, ts TripleSource, session string, x sharing.Bundle, train bool) (sharing.Bundle, error) {
	reg := ctx.Obs()
	var err error
	for i, l := range n.Layers {
		start := layerStart(reg)
		s := fmt.Sprintf("%s/l%d", session, i)
		if w, ok := l.(weighted); ok {
			x, err = w.forward(ctx, ts, s, x, n.layerPass(i, train))
		} else {
			x, err = l.Forward(ctx, ts, s, x)
		}
		if err != nil {
			return sharing.Bundle{}, fmt.Errorf("nn: secure layer %d: %w", i, err)
		}
		layerObserve(reg, "forward", i, start)
	}
	return x, nil
}

// layerStart returns a layer-phase start time, or the zero time when
// metrics are off so the hot path skips both the clock read and the
// name formatting.
func layerStart(reg *obs.Registry) time.Time {
	if reg == nil {
		return time.Time{}
	}
	return time.Now()
}

// layerObserve records one per-layer phase duration.
func layerObserve(reg *obs.Registry, phase string, layer int, start time.Time) {
	if start.IsZero() {
		return
	}
	reg.Histogram(fmt.Sprintf("nn.l%d.%s", layer, phase)).Observe(time.Since(start))
}

// firstWeighted returns the index of the first parameterised layer, or
// len(n.Layers) when there is none. A training step's backward pass
// ends there: the input gradient of that layer, and everything the
// layers before it would route, is read by nobody.
func (n *SecureNetwork) firstWeighted() int {
	for i, l := range n.Layers {
		if _, ok := l.(weighted); ok {
			return i
		}
	}
	return len(n.Layers)
}

// layerPass is the pass layer i's forward serves in an inference pass
// or, with train, in a training step.
func (n *SecureNetwork) layerPass(i int, train bool) pass {
	switch {
	case !train:
		return inference
	case i > n.firstWeighted():
		return trainingInputGrad
	default:
		return training
	}
}

// TrainBatch performs one secure SGD step: forward, softmax at the
// owner, local gradient (p − y)/B, backward down to the first
// parameterised layer, local updates.
func (n *SecureNetwork) TrainBatch(ctx *protocol.Ctx, ts TripleSource, session string, x, oneHot sharing.Bundle, lr float64) error {
	batch := x.Rows()
	logits, err := n.forward(ctx, ts, session, x, true)
	if err != nil {
		return err
	}
	probs, err := protocol.CallOwner(ctx, n.OwnerActor, SoftmaxName, session+"/sm", logits)
	if err != nil {
		return fmt.Errorf("nn: softmax delegation: %w", err)
	}
	diff, err := probs.Sub(oneHot)
	if err != nil {
		return fmt.Errorf("nn: loss gradient: %w", err)
	}
	grad := diff.Scale(ctx.Params.FromFloat(1.0 / float64(batch))).TruncateInPlace(ctx.Params.FracBits)
	reg := ctx.Obs()
	for i := len(n.Layers) - 1; i >= n.firstWeighted(); i-- {
		start := layerStart(reg)
		grad, err = n.Layers[i].Backward(ctx, ts, fmt.Sprintf("%s/b%d", session, i), grad)
		if err != nil {
			return fmt.Errorf("nn: secure layer %d backward: %w", i, err)
		}
		layerObserve(reg, "backward", i, start)
	}
	for i, l := range n.Layers {
		start := layerStart(reg)
		if err := l.Update(ctx.Params, lr); err != nil {
			return fmt.Errorf("nn: secure layer %d update: %w", i, err)
		}
		layerObserve(reg, "update", i, start)
	}
	return nil
}

// NewSecurePaperNet builds one party's instance of the Table I network
// from its distributed weight bundles.
func NewSecurePaperNet(conv, fc1, fc2 sharing.Bundle) (*SecureNetwork, error) {
	convLayer, err := NewSecureConv(PaperConvShape(), PaperOutChannels, conv)
	if err != nil {
		return nil, err
	}
	d1, err := NewSecureDense(fc1)
	if err != nil {
		return nil, err
	}
	d2, err := NewSecureDense(fc2)
	if err != nil {
		return nil, err
	}
	return &SecureNetwork{
		Layers:     []SecureLayer{convLayer, NewSecureReLU(), d1, NewSecureReLU(), d2},
		OwnerActor: transport.ModelOwner,
	}, nil
}
