// Package nn implements TrustDDL's deep-learning stack twice over the
// same layer structure: a plaintext float64 engine (the paper's CML
// baseline — centralized plaintext model learning, Fig. 2) and a secure
// engine over three-set share bundles that computes linear layers with
// SecMatMul-BT, ReLU with SecComp-BT, and delegates softmax to the
// model owner (§III-C).
//
// Both engines run their local linear algebra on package tensor's
// kernels, which fan out up to GOMAXPROCS workers; parallel and serial
// kernels are bit-identical, so training trajectories do not depend on
// GOMAXPROCS.
package nn

import (
	"fmt"
	"math"
	mathrand "math/rand/v2"

	"github.com/trustddl/trustddl/internal/tensor"
)

// Mat64 abbreviates the float64 matrix domain of the plaintext engine.
type Mat64 = tensor.Matrix[float64]

// Layer is one plaintext network stage. Forward caches whatever
// Backward needs; Backward caches gradients applied by Update.
type Layer interface {
	// Forward maps a batch (rows = samples) to its output batch.
	Forward(x Mat64) (Mat64, error)
	// Backward maps the output gradient to the input gradient.
	Backward(dy Mat64) (Mat64, error)
	// Update applies the cached parameter gradients with learning
	// rate lr.
	Update(lr float64)
}

// Dense is a fully connected layer y = x·W (no bias, matching the
// Table I configuration).
type Dense struct {
	// W has shape in×out.
	W Mat64
	// Momentum enables classical momentum SGD (0 = plain SGD).
	Momentum float64

	x   Mat64 // cached input
	dW  Mat64 // cached gradient
	vel Mat64 // momentum velocity
}

var _ Layer = (*Dense)(nil)

// NewDense initializes W ~ N(0, 1/in), the paper's fully-connected
// initialization (§IV-A).
func NewDense(in, out int, rng *mathrand.Rand) *Dense {
	w := tensor.MustNew[float64](in, out)
	std := math.Sqrt(1.0 / float64(in))
	for i := range w.Data {
		w.Data[i] = rng.NormFloat64() * std
	}
	return &Dense{W: w}
}

// Forward implements Layer.
func (d *Dense) Forward(x Mat64) (Mat64, error) {
	d.x = x
	y, err := x.MatMul(d.W)
	if err != nil {
		return Mat64{}, fmt.Errorf("nn: dense forward: %w", err)
	}
	return y, nil
}

// Backward implements Layer.
func (d *Dense) Backward(dy Mat64) (Mat64, error) {
	dW, err := d.x.Transpose().MatMul(dy)
	if err != nil {
		return Mat64{}, fmt.Errorf("nn: dense backward dW: %w", err)
	}
	d.dW = dW
	dx, err := dy.MatMul(d.W.Transpose())
	if err != nil {
		return Mat64{}, fmt.Errorf("nn: dense backward dx: %w", err)
	}
	return dx, nil
}

// Update implements Layer: W ← W − lr·v with v = μ·v + dW (classical
// momentum; μ = 0 degenerates to plain SGD).
func (d *Dense) Update(lr float64) {
	if d.dW.IsZeroShape() {
		return
	}
	step := applyMomentum(&d.vel, d.dW, d.Momentum)
	for i := range d.W.Data {
		d.W.Data[i] -= lr * step.Data[i]
	}
}

// applyMomentum folds the gradient into the velocity buffer and
// returns the effective step.
func applyMomentum(vel *Mat64, dW Mat64, mu float64) Mat64 {
	if mu <= 0 {
		return dW
	}
	if vel.IsZeroShape() {
		*vel = dW.Clone()
		return *vel
	}
	for i := range vel.Data {
		vel.Data[i] = mu*vel.Data[i] + dW.Data[i]
	}
	return *vel
}

// setMomentum lets Network.SetMomentum reach parameterized layers.
func (d *Dense) setMomentum(mu float64) { d.Momentum = mu }

// ReLU is the element-wise max(0, x) activation.
type ReLU struct {
	mask Mat64
}

var _ Layer = (*ReLU)(nil)

// NewReLU returns a ReLU layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward implements Layer.
func (r *ReLU) Forward(x Mat64) (Mat64, error) {
	r.mask = x.Map(func(v float64) float64 {
		if v > 0 {
			return 1
		}
		return 0
	})
	return x.Hadamard(r.mask)
}

// Backward implements Layer.
func (r *ReLU) Backward(dy Mat64) (Mat64, error) {
	if r.mask.IsZeroShape() {
		return Mat64{}, fmt.Errorf("nn: relu backward before forward")
	}
	return dy.Hadamard(r.mask)
}

// Update implements Layer.
func (r *ReLU) Update(float64) {}

// Conv is a 2-D convolution lowered to matrix multiplication via
// im2col: y = im2col(x) · W with W of shape PatchSize×OutChannels.
type Conv struct {
	// Shape describes the spatial geometry.
	Shape tensor.ConvShape
	// OutChannels is the filter count.
	OutChannels int
	// W has shape PatchSize×OutChannels.
	W Mat64
	// Momentum enables classical momentum SGD (0 = plain SGD).
	Momentum float64

	x   Mat64 // input batch of the last forward (for the backward pass)
	dW  Mat64
	vel Mat64
}

var _ Layer = (*Conv)(nil)

// NewConv initializes W ~ N(0, 1/(k·k)), the paper's convolutional
// initialization (§IV-A).
func NewConv(shape tensor.ConvShape, outChannels int, rng *mathrand.Rand) (*Conv, error) {
	if err := shape.Validate(); err != nil {
		return nil, err
	}
	if outChannels <= 0 {
		return nil, fmt.Errorf("nn: conv needs positive output channels, got %d", outChannels)
	}
	w := tensor.MustNew[float64](shape.PatchSize(), outChannels)
	std := math.Sqrt(1.0 / float64(shape.Kernel*shape.Kernel))
	for i := range w.Data {
		w.Data[i] = rng.NormFloat64() * std
	}
	return &Conv{Shape: shape, OutChannels: outChannels, W: w}, nil
}

// OutSize returns the flattened output width per sample.
func (c *Conv) OutSize() int {
	return c.Shape.OutHeight() * c.Shape.OutWidth() * c.OutChannels
}

// Forward implements Layer. Rows of x are flattened images of length
// InChannels·H·W; rows of the output have length OutSize (position-
// major: p0c0, p0c1, …).
//
// The convolution runs through the fused im2col+matmul kernel, so the
// forward pass — and therefore plaintext inference — never materializes
// the patch matrix. The backward pass rebuilds patch matrices from the
// cached input batch; the per-row arithmetic is identical either way.
func (c *Conv) Forward(x Mat64) (Mat64, error) {
	inLen := c.Shape.InSize()
	if x.Cols != inLen {
		return Mat64{}, fmt.Errorf("nn: conv input width %d, want %d", x.Cols, inLen)
	}
	c.x = x
	y, err := tensor.Conv2DBatch(c.Shape, x, c.W)
	if err != nil {
		return Mat64{}, err
	}
	// Regroup (B·P)×Cout rows into B rows of P·Cout — a row-major
	// relabeling, so Reshape moves no data.
	return y.Reshape(x.Rows, c.OutSize())
}

// Backward implements Layer. The patch matrix for each sample is
// rebuilt here from the input cached by Forward — im2col is
// deterministic, so the rebuilt matrix is the one Forward would have
// cached, at the cost of recomputing it only on training steps.
func (c *Conv) Backward(dy Mat64) (Mat64, error) {
	if c.x.IsZeroShape() {
		return Mat64{}, fmt.Errorf("nn: conv backward before forward")
	}
	if dy.Cols != c.OutSize() || dy.Rows != c.x.Rows {
		return Mat64{}, fmt.Errorf("nn: conv gradient shape %dx%d unexpected", dy.Rows, dy.Cols)
	}
	positions := c.Shape.OutHeight() * c.Shape.OutWidth()
	inLen := c.Shape.InSize()
	dW := tensor.MustNew[float64](c.Shape.PatchSize(), c.OutChannels)
	dx := tensor.MustNew[float64](dy.Rows, inLen)
	for s := 0; s < dy.Rows; s++ {
		dYs, err := tensor.FromSlice(positions, c.OutChannels, dy.Data[s*dy.Cols:(s+1)*dy.Cols])
		if err != nil {
			return Mat64{}, err
		}
		img, err := tensor.FromSlice(c.Shape.InChannels, c.Shape.Height*c.Shape.Width, c.x.Data[s*c.x.Cols:(s+1)*c.x.Cols])
		if err != nil {
			return Mat64{}, err
		}
		cols, err := c.Shape.Im2ColFloat(img)
		if err != nil {
			return Mat64{}, err
		}
		g, err := cols.Transpose().MatMul(dYs)
		if err != nil {
			return Mat64{}, err
		}
		if err := dW.AddInPlace(g); err != nil {
			return Mat64{}, err
		}
		dCols, err := dYs.MatMul(c.W.Transpose())
		if err != nil {
			return Mat64{}, err
		}
		dImg, err := c.Shape.Col2ImFloat(dCols)
		if err != nil {
			return Mat64{}, err
		}
		copy(dx.Data[s*inLen:(s+1)*inLen], dImg.Data)
	}
	c.dW = dW
	return dx, nil
}

// Update implements Layer.
func (c *Conv) Update(lr float64) {
	if c.dW.IsZeroShape() {
		return
	}
	step := applyMomentum(&c.vel, c.dW, c.Momentum)
	for i := range c.W.Data {
		c.W.Data[i] -= lr * step.Data[i]
	}
}

// setMomentum lets Network.SetMomentum reach parameterized layers.
func (c *Conv) setMomentum(mu float64) { c.Momentum = mu }

// Network is a plaintext feed-forward network with a softmax +
// cross-entropy head.
type Network struct {
	Layers []Layer
}

// SetMomentum configures classical momentum on every parameterized
// layer (0 disables it).
func (n *Network) SetMomentum(mu float64) {
	for _, l := range n.Layers {
		if m, ok := l.(interface{ setMomentum(float64) }); ok {
			m.setMomentum(mu)
		}
	}
}

// Logits runs the forward pass up to (excluding) softmax.
func (n *Network) Logits(x Mat64) (Mat64, error) {
	var err error
	for i, l := range n.Layers {
		x, err = l.Forward(x)
		if err != nil {
			return Mat64{}, fmt.Errorf("nn: layer %d: %w", i, err)
		}
	}
	return x, nil
}

// TrainBatch performs one SGD step on a batch and returns the mean
// cross-entropy loss.
func (n *Network) TrainBatch(x Mat64, labels []int, lr float64) (float64, error) {
	if len(labels) != x.Rows {
		return 0, fmt.Errorf("nn: %d labels for %d samples", len(labels), x.Rows)
	}
	logits, err := n.Logits(x)
	if err != nil {
		return 0, err
	}
	probs := SoftmaxRows(logits)
	loss := CrossEntropy(probs, labels)
	grad, err := CrossEntropyGrad(probs, labels)
	if err != nil {
		return 0, err
	}
	for i := len(n.Layers) - 1; i >= 0; i-- {
		grad, err = n.Layers[i].Backward(grad)
		if err != nil {
			return 0, fmt.Errorf("nn: layer %d backward: %w", i, err)
		}
	}
	for _, l := range n.Layers {
		l.Update(lr)
	}
	return loss, nil
}

// Predict returns the argmax class per row.
func (n *Network) Predict(x Mat64) ([]int, error) {
	logits, err := n.Logits(x)
	if err != nil {
		return nil, err
	}
	return ArgmaxRows(logits), nil
}

// SoftmaxRows applies a numerically stable softmax to every row.
func SoftmaxRows(m Mat64) Mat64 {
	out := m.Clone()
	for r := 0; r < m.Rows; r++ {
		row := out.Data[r*m.Cols : (r+1)*m.Cols]
		maxV := row[0]
		for _, v := range row[1:] {
			if v > maxV {
				maxV = v
			}
		}
		var sum float64
		for i, v := range row {
			row[i] = math.Exp(v - maxV)
			sum += row[i]
		}
		for i := range row {
			row[i] /= sum
		}
	}
	return out
}

// CrossEntropy returns the mean negative log-likelihood of the labels
// under row-wise probabilities.
func CrossEntropy(probs Mat64, labels []int) float64 {
	var total float64
	for r, label := range labels {
		p := probs.At(r, label)
		if p < 1e-12 {
			p = 1e-12
		}
		total += -math.Log(p)
	}
	return total / float64(len(labels))
}

// CrossEntropyGrad returns d(mean CE)/d(logits) = (p − onehot)/B for a
// softmax head.
func CrossEntropyGrad(probs Mat64, labels []int) (Mat64, error) {
	if len(labels) != probs.Rows {
		return Mat64{}, fmt.Errorf("nn: %d labels for %d rows", len(labels), probs.Rows)
	}
	grad := probs.Scale(1.0 / float64(probs.Rows))
	for r, label := range labels {
		if label < 0 || label >= probs.Cols {
			return Mat64{}, fmt.Errorf("nn: label %d out of range", label)
		}
		grad.Set(r, label, grad.At(r, label)-1.0/float64(probs.Rows))
	}
	return grad, nil
}

// ArgmaxRows returns the index of the max element per row.
func ArgmaxRows(m Mat64) []int {
	out := make([]int, m.Rows)
	for r := 0; r < m.Rows; r++ {
		best, bestIdx := m.At(r, 0), 0
		for c := 1; c < m.Cols; c++ {
			if v := m.At(r, c); v > best {
				best, bestIdx = v, c
			}
		}
		out[r] = bestIdx
	}
	return out
}

// OneHot encodes labels as a B×classes 0/1 matrix.
func OneHot(labels []int, classes int) (Mat64, error) {
	out := tensor.MustNew[float64](len(labels), classes)
	for r, label := range labels {
		if label < 0 || label >= classes {
			return Mat64{}, fmt.Errorf("nn: label %d out of range [0,%d)", label, classes)
		}
		out.Set(r, label, 1)
	}
	return out, nil
}
