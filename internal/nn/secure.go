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
// consumes: Beaver triples and the auxiliary positive matrices of
// SecComp-BT. Implementations: OwnerSource (the model owner deals on
// demand over the network, §III-A) and PreDealer views (offline
// precomputation, used to separate offline from online cost).
type TripleSource interface {
	// MatMulTriple returns this party's share of an m×n × n×p Beaver
	// triple for the given session. mask names the weight-side mask b
	// the triple is dealt against ("" = a fresh single-use one): the
	// deal that first sees a name draws b, and while the dealer holds
	// it later deals under that name return only A and C = A·b, with B
	// empty — the caller kept its share of b from the first deal.
	MatMulTriple(session, mask string, m, n, p int) (sharing.TripleBundle, error)
	// HadamardTriple returns an element-wise triple of shape rows×cols.
	HadamardTriple(session string, rows, cols int) (sharing.TripleBundle, error)
	// AuxPositive returns shares of a random positive matrix.
	AuxPositive(session string, rows, cols int) (sharing.Bundle, error)
}

// OwnerSource requests correlated randomness from the model owner over
// the network (online dealing; its traffic is metered).
type OwnerSource struct {
	// Ctx is the owning party's protocol context.
	Ctx *protocol.Ctx
}

var _ TripleSource = OwnerSource{}

// MatMulTriple implements TripleSource.
func (s OwnerSource) MatMulTriple(session, mask string, m, n, p int) (sharing.TripleBundle, error) {
	return protocol.RequestMatMulTriple(s.Ctx, session, mask, m, n, p)
}

// HadamardTriple implements TripleSource.
func (s OwnerSource) HadamardTriple(session string, rows, cols int) (sharing.TripleBundle, error) {
	return protocol.RequestHadamardTriple(s.Ctx, session, rows, cols)
}

// AuxPositive implements TripleSource.
func (s OwnerSource) AuxPositive(session string, rows, cols int) (sharing.Bundle, error) {
	return protocol.RequestAuxPositive(s.Ctx, session, rows, cols)
}

// SecureLayer is one stage of the secret-shared network. Each computing
// party holds its own layer instance (its share bundles of the
// parameters); the three instances advance in lockstep through shared
// session strings.
type SecureLayer interface {
	// Forward maps this party's activation bundle to the output bundle.
	Forward(ctx *protocol.Ctx, ts TripleSource, session string, x sharing.Bundle) (sharing.Bundle, error)
	// Backward maps the output-gradient bundle to the input-gradient
	// bundle, caching parameter gradients.
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
// pass). The zero value holds nothing, which makes the next pass cold.
//
// Invalidation is a privacy requirement, not a tuning choice: a second
// weight value opened under the same b would reveal W′ − W. Every
// assignment to a layer's W therefore zeroes its weightMask.
type weightMask struct {
	name string
	b    sharing.Bundle
	f    Mat
}

// matMul computes this party's bundle of x·w for a layer whose weights
// are w, dealing the triple under the mask name the session implies
// and opening w's mask only when the dealer sent a new one.
func (wm *weightMask) matMul(ctx *protocol.Ctx, ts TripleSource, session string, x, w sharing.Bundle) (sharing.Bundle, error) {
	name := maskName(session)
	triple, err := ts.MatMulTriple(session+"/t", name, x.Rows(), w.Rows(), w.Cols())
	if err != nil {
		return sharing.Bundle{}, err
	}
	var f Mat
	if triple.B.Primary.IsZeroShape() {
		// Only (A, C): the dealer holds the mask of that name.
		if name == "" || wm.name != name {
			return sharing.Bundle{}, fmt.Errorf("nn: triple for %q dealt against mask %q, which this party does not hold", session, name)
		}
		triple.B, f = wm.b, wm.f
	}
	y, opened, err := protocol.SecMatMulWeightBT(ctx, session, x, w, triple, f)
	if err != nil {
		return sharing.Bundle{}, err
	}
	if name != "" && f.IsZeroShape() {
		*wm = weightMask{name: name, b: triple.B, f: opened}
	}
	return y, nil
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

var _ SecureLayer = (*SecureDense)(nil)

// NewSecureDense wraps a distributed weight bundle.
func NewSecureDense(w sharing.Bundle) (*SecureDense, error) {
	if err := w.Validate(); err != nil {
		return nil, fmt.Errorf("nn: secure dense: %w", err)
	}
	return &SecureDense{W: w, in: w.Rows(), out: w.Cols()}, nil
}

// Forward implements SecureLayer.
func (d *SecureDense) Forward(ctx *protocol.Ctx, ts TripleSource, session string, x sharing.Bundle) (sharing.Bundle, error) {
	d.x = x
	return d.mask.matMul(ctx, ts, session, x, d.W)
}

// Backward implements SecureLayer.
func (d *SecureDense) Backward(ctx *protocol.Ctx, ts TripleSource, session string, dy sharing.Bundle) (sharing.Bundle, error) {
	xt, err := pooledTransposeBundle(d.x)
	if err != nil {
		return sharing.Bundle{}, err
	}
	defer releaseBundle(xt)
	tw, err := ts.MatMulTriple(session+"/dw/t", "", d.in, dy.Rows(), d.out)
	if err != nil {
		return sharing.Bundle{}, err
	}
	dW, err := protocol.SecMatMulBT(ctx, session+"/dw", xt, dy, tw)
	if err != nil {
		return sharing.Bundle{}, err
	}
	d.dW = dW
	wt, err := pooledTransposeBundle(d.W)
	if err != nil {
		return sharing.Bundle{}, err
	}
	defer releaseBundle(wt)
	tx, err := ts.MatMulTriple(session+"/dx/t", "", dy.Rows(), d.out, d.in)
	if err != nil {
		return sharing.Bundle{}, err
	}
	return protocol.SecMatMulBT(ctx, session+"/dx", dy, wt, tx)
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
	step := eff.Scale(params.FromFloat(lr)).Truncate(params.FracBits)
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
	scaled := vel.Scale(params.FromFloat(mu)).Truncate(params.FracBits)
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
	aux, err := ts.AuxPositive(session+"/aux", rows, cols)
	if err != nil {
		return sharing.Bundle{}, err
	}
	triple, err := ts.HadamardTriple(session+"/t", rows, cols)
	if err != nil {
		return sharing.Bundle{}, err
	}
	sign, err := protocol.SecCompBT(ctx, session, x, zeroBundle(rows, cols), aux, triple)
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

// SecureConv mirrors Conv: im2col is a local transformation of the
// shares, the lowered product runs through SecMatMul-BT.
type SecureConv struct {
	// Shape is the spatial geometry.
	Shape tensor.ConvShape
	// OutChannels is the filter count.
	OutChannels int
	// W is this party's bundle of the PatchSize×OutChannels weights.
	W sharing.Bundle
	// Momentum enables classical momentum SGD (0 = plain SGD).
	Momentum float64

	cols sharing.Bundle // stacked patch bundle of the last forward
	dW   sharing.Bundle
	vel  sharing.Bundle
	mask weightMask
}

var _ SecureLayer = (*SecureConv)(nil)

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
	batch := x.Rows()
	cols, err := transformBundle(x, func(m Mat) (Mat, error) { return tensor.Im2ColBatch(c.Shape, m) })
	if err != nil {
		return sharing.Bundle{}, err
	}
	c.cols = cols
	positions := c.Shape.OutHeight() * c.Shape.OutWidth()
	y, err := c.mask.matMul(ctx, ts, session, cols, c.W)
	if err != nil {
		return sharing.Bundle{}, err
	}
	// Regroup (B·P)×Cout rows into B rows of P·Cout (local reshape).
	return transformBundle(y, func(m Mat) (Mat, error) { return m.Reshape(batch, positions*c.OutChannels) })
}

// Backward implements SecureLayer.
func (c *SecureConv) Backward(ctx *protocol.Ctx, ts TripleSource, session string, dy sharing.Bundle) (sharing.Bundle, error) {
	if c.cols.Primary.IsZeroShape() {
		return sharing.Bundle{}, fmt.Errorf("nn: secure conv backward before forward")
	}
	batch := dy.Rows()
	positions := c.Shape.OutHeight() * c.Shape.OutWidth()
	dY, err := transformBundle(dy, func(m Mat) (Mat, error) { return m.Reshape(batch*positions, c.OutChannels) })
	if err != nil {
		return sharing.Bundle{}, err
	}
	colsT, err := pooledTransposeBundle(c.cols)
	if err != nil {
		return sharing.Bundle{}, err
	}
	defer releaseBundle(colsT)
	tw, err := ts.MatMulTriple(session+"/dw/t", "", c.Shape.PatchSize(), batch*positions, c.OutChannels)
	if err != nil {
		return sharing.Bundle{}, err
	}
	dW, err := protocol.SecMatMulBT(ctx, session+"/dw", colsT, dY, tw)
	if err != nil {
		return sharing.Bundle{}, err
	}
	c.dW = dW
	wt, err := pooledTransposeBundle(c.W)
	if err != nil {
		return sharing.Bundle{}, err
	}
	defer releaseBundle(wt)
	tx, err := ts.MatMulTriple(session+"/dx/t", "", batch*positions, c.OutChannels, c.Shape.PatchSize())
	if err != nil {
		return sharing.Bundle{}, err
	}
	dCols, err := protocol.SecMatMulBT(ctx, session+"/dx", dY, wt, tx)
	if err != nil {
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
	step := eff.Scale(params.FromFloat(lr)).Truncate(params.FracBits)
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
	reg := ctx.Obs()
	var err error
	for i, l := range n.Layers {
		start := layerStart(reg)
		x, err = l.Forward(ctx, ts, fmt.Sprintf("%s/l%d", session, i), x)
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

// TrainBatch performs one secure SGD step: forward, softmax at the
// owner, local gradient (p − y)/B, backward, local updates.
func (n *SecureNetwork) TrainBatch(ctx *protocol.Ctx, ts TripleSource, session string, x, oneHot sharing.Bundle, lr float64) error {
	batch := x.Rows()
	logits, err := n.Logits(ctx, ts, session, x)
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
	grad := diff.Scale(ctx.Params.FromFloat(1.0 / float64(batch))).Truncate(ctx.Params.FracBits)
	reg := ctx.Obs()
	for i := len(n.Layers) - 1; i >= 0; i-- {
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
