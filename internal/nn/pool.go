package nn

import (
	"fmt"

	"github.com/trustddl/trustddl/internal/fixed"
	"github.com/trustddl/trustddl/internal/protocol"
	"github.com/trustddl/trustddl/internal/sharing"
	"github.com/trustddl/trustddl/internal/tensor"
)

// Max pooling over secret shares. The element-wise maximum reduces to
// the comparison primitive the paper already provides:
// max(a, b) = b + (a − b)·[a > b], where [a > b] is the public sign
// revealed by SecComp-BT — the same leakage class as the ReLU mask of
// §III-C. Candidate gathering and gradient routing are local
// transformations (tensor.Gather / tensor.ScatterAdd).
//
// Activations are laid out position-major with channels minor —
// element (y, x, ch) at column (y·W + x)·C + ch — matching the
// convolution output layout, so Conv → MaxPool chains compose without
// reshuffling.

// PoolShape describes a non-overlapping max-pooling window.
type PoolShape struct {
	Channels int
	Height   int
	Width    int
	// Window is the pooling size and stride (2 halves each dimension).
	Window int
}

// Validate checks realizability.
func (p PoolShape) Validate() error {
	switch {
	case p.Channels <= 0 || p.Height <= 0 || p.Width <= 0:
		return fmt.Errorf("nn: pool input shape %dx%dx%d invalid", p.Channels, p.Height, p.Width)
	case p.Window <= 1:
		return fmt.Errorf("nn: pool window %d must be at least 2", p.Window)
	case p.Height%p.Window != 0 || p.Width%p.Window != 0:
		return fmt.Errorf("nn: pool window %d does not tile %dx%d", p.Window, p.Height, p.Width)
	}
	return nil
}

// InSize returns the flattened input width.
func (p PoolShape) InSize() int { return p.Channels * p.Height * p.Width }

// OutSize returns the flattened output width.
func (p PoolShape) OutSize() int {
	return p.Channels * (p.Height / p.Window) * (p.Width / p.Window)
}

// plan returns, for each window slot j ∈ [0, Window²), the gather index
// mapping output element k to its j-th candidate input column.
func (p PoolShape) plan() [][]int {
	outH, outW := p.Height/p.Window, p.Width/p.Window
	slots := p.Window * p.Window
	plan := make([][]int, slots)
	for j := range plan {
		dy, dx := j/p.Window, j%p.Window
		idx := make([]int, p.OutSize())
		k := 0
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				for ch := 0; ch < p.Channels; ch++ {
					y, x := oy*p.Window+dy, ox*p.Window+dx
					idx[k] = (y*p.Width+x)*p.Channels + ch
					k++
				}
			}
		}
		plan[j] = idx
	}
	return plan
}

// MaxPool is the plaintext max-pooling layer.
type MaxPool struct {
	Shape PoolShape

	winners []int // per output element: the winning window slot
}

var _ Layer = (*MaxPool)(nil)

// NewMaxPool validates the shape and builds the layer.
func NewMaxPool(shape PoolShape) (*MaxPool, error) {
	if err := shape.Validate(); err != nil {
		return nil, err
	}
	return &MaxPool{Shape: shape}, nil
}

// Forward implements Layer.
func (m *MaxPool) Forward(x Mat64) (Mat64, error) {
	if x.Cols != m.Shape.InSize() {
		return Mat64{}, fmt.Errorf("nn: maxpool input width %d, want %d", x.Cols, m.Shape.InSize())
	}
	plan := m.Shape.plan()
	best, err := tensor.Gather(x, plan[0])
	if err != nil {
		return Mat64{}, err
	}
	m.winners = make([]int, x.Rows*m.Shape.OutSize())
	for j := 1; j < len(plan); j++ {
		cand, err := tensor.Gather(x, plan[j])
		if err != nil {
			return Mat64{}, err
		}
		for i := range best.Data {
			if cand.Data[i] > best.Data[i] {
				best.Data[i] = cand.Data[i]
				m.winners[i] = j
			}
		}
	}
	return best, nil
}

// Backward implements Layer: route each gradient to its argmax input.
func (m *MaxPool) Backward(dy Mat64) (Mat64, error) {
	if m.winners == nil {
		return Mat64{}, fmt.Errorf("nn: maxpool backward before forward")
	}
	if dy.Rows*dy.Cols != len(m.winners) || dy.Cols != m.Shape.OutSize() {
		return Mat64{}, fmt.Errorf("nn: maxpool gradient shape %dx%d unexpected", dy.Rows, dy.Cols)
	}
	return routePoolGradient(m.Shape, dy, m.winners)
}

// Update implements Layer.
func (m *MaxPool) Update(float64) {}

// routePoolGradient scatters dy into the input layout according to the
// per-element winning slots.
func routePoolGradient[T tensor.Element](shape PoolShape, dy tensor.Matrix[T], winners []int) (tensor.Matrix[T], error) {
	plan := shape.plan()
	dx := tensor.Matrix[T]{Rows: dy.Rows, Cols: shape.InSize(), Data: make([]T, dy.Rows*shape.InSize())}
	for r := 0; r < dy.Rows; r++ {
		for k := 0; k < dy.Cols; k++ {
			slot := winners[r*dy.Cols+k]
			dx.Data[r*shape.InSize()+plan[slot][k]] += dy.Data[r*dy.Cols+k]
		}
	}
	return dx, nil
}

// SecureMaxPool mirrors MaxPool over share bundles: Window²−1
// SecComp-BT comparisons per layer, everything else local.
type SecureMaxPool struct {
	Shape PoolShape

	winners []int
	rows    int
}

var _ SecureLayer = (*SecureMaxPool)(nil)

// NewSecureMaxPool validates the shape and builds the layer.
func NewSecureMaxPool(shape PoolShape) (*SecureMaxPool, error) {
	if err := shape.Validate(); err != nil {
		return nil, err
	}
	return &SecureMaxPool{Shape: shape}, nil
}

// Forward implements SecureLayer.
func (m *SecureMaxPool) Forward(ctx *protocol.Ctx, ts TripleSource, session string, x sharing.Bundle) (sharing.Bundle, error) {
	if x.Cols() != m.Shape.InSize() {
		return sharing.Bundle{}, fmt.Errorf("nn: secure maxpool input width %d, want %d", x.Cols(), m.Shape.InSize())
	}
	plan := m.Shape.plan()
	gather := func(idx []int) (sharing.Bundle, error) {
		return transformBundle(x, func(mm Mat) (Mat, error) { return tensor.Gather(mm, idx) })
	}
	best, err := gather(plan[0])
	if err != nil {
		return sharing.Bundle{}, err
	}
	m.rows = x.Rows()
	m.winners = make([]int, m.rows*m.Shape.OutSize())
	for j := 1; j < len(plan); j++ {
		cand, err := gather(plan[j])
		if err != nil {
			return sharing.Bundle{}, err
		}
		// Public comparison: sign(cand − best), the same leakage class
		// as the ReLU mask.
		stepSession := fmt.Sprintf("%s/cmp%d", session, j)
		triple, err := ts.CompTriple(stepSession+"/aux", best.Rows(), best.Cols())
		if err != nil {
			return sharing.Bundle{}, err
		}
		sign, err := protocol.SecCompBT(ctx, stepSession, cand, best, triple.B, triple)
		if err != nil {
			return sharing.Bundle{}, err
		}
		mask := sign.Map(func(v int64) int64 {
			if v > 0 {
				return 1
			}
			return 0
		})
		for i, v := range mask.Data {
			if v == 1 {
				m.winners[i] = j
			}
		}
		// best = best + (cand − best) ⊙ mask, all local given the mask.
		diff, err := cand.Sub(best)
		if err != nil {
			return sharing.Bundle{}, err
		}
		masked, err := diff.HadamardPublic(mask)
		if err != nil {
			return sharing.Bundle{}, err
		}
		best, err = best.Add(masked)
		if err != nil {
			return sharing.Bundle{}, err
		}
	}
	return best, nil
}

// Backward implements SecureLayer.
func (m *SecureMaxPool) Backward(_ *protocol.Ctx, _ TripleSource, _ string, dy sharing.Bundle) (sharing.Bundle, error) {
	if m.winners == nil {
		return sharing.Bundle{}, fmt.Errorf("nn: secure maxpool backward before forward")
	}
	if dy.Rows() != m.rows || dy.Cols() != m.Shape.OutSize() {
		return sharing.Bundle{}, fmt.Errorf("nn: secure maxpool gradient shape %dx%d unexpected", dy.Rows(), dy.Cols())
	}
	return transformBundle(dy, func(mm Mat) (Mat, error) {
		return routePoolGradient(m.Shape, mm, m.winners)
	})
}

// Update implements SecureLayer.
func (m *SecureMaxPool) Update(fixed.Params, float64) error { return nil }

// AvgPool is the plaintext average-pooling layer. Averaging is linear,
// so — unlike max pooling — its secure counterpart needs no protocol
// rounds at all: gather and scale are local share operations.
type AvgPool struct {
	Shape PoolShape

	rows int
}

var _ Layer = (*AvgPool)(nil)

// NewAvgPool validates the shape and builds the layer.
func NewAvgPool(shape PoolShape) (*AvgPool, error) {
	if err := shape.Validate(); err != nil {
		return nil, err
	}
	return &AvgPool{Shape: shape}, nil
}

// Forward implements Layer.
func (a *AvgPool) Forward(x Mat64) (Mat64, error) {
	if x.Cols != a.Shape.InSize() {
		return Mat64{}, fmt.Errorf("nn: avgpool input width %d, want %d", x.Cols, a.Shape.InSize())
	}
	a.rows = x.Rows
	plan := a.Shape.plan()
	sum, err := tensor.Gather(x, plan[0])
	if err != nil {
		return Mat64{}, err
	}
	for j := 1; j < len(plan); j++ {
		cand, err := tensor.Gather(x, plan[j])
		if err != nil {
			return Mat64{}, err
		}
		if err := sum.AddInPlace(cand); err != nil {
			return Mat64{}, err
		}
	}
	return sum.Scale(1 / float64(len(plan))), nil
}

// Backward implements Layer: the gradient spreads uniformly over the
// window.
func (a *AvgPool) Backward(dy Mat64) (Mat64, error) {
	if a.rows == 0 {
		return Mat64{}, fmt.Errorf("nn: avgpool backward before forward")
	}
	if dy.Rows != a.rows || dy.Cols != a.Shape.OutSize() {
		return Mat64{}, fmt.Errorf("nn: avgpool gradient shape %dx%d unexpected", dy.Rows, dy.Cols)
	}
	plan := a.Shape.plan()
	scaled := dy.Scale(1 / float64(len(plan)))
	dx := tensor.MustNew[float64](dy.Rows, a.Shape.InSize())
	for _, idx := range plan {
		part, err := tensor.ScatterAdd(scaled, idx, a.Shape.InSize())
		if err != nil {
			return Mat64{}, err
		}
		if err := dx.AddInPlace(part); err != nil {
			return Mat64{}, err
		}
	}
	return dx, nil
}

// Update implements Layer.
func (a *AvgPool) Update(float64) {}

// SecureAvgPool mirrors AvgPool over share bundles — entirely local:
// gathers, additions and one public-constant scale with truncation.
type SecureAvgPool struct {
	Shape PoolShape

	rows int
}

var _ SecureLayer = (*SecureAvgPool)(nil)

// NewSecureAvgPool validates the shape and builds the layer.
func NewSecureAvgPool(shape PoolShape) (*SecureAvgPool, error) {
	if err := shape.Validate(); err != nil {
		return nil, err
	}
	return &SecureAvgPool{Shape: shape}, nil
}

// Forward implements SecureLayer.
func (a *SecureAvgPool) Forward(ctx *protocol.Ctx, _ TripleSource, _ string, x sharing.Bundle) (sharing.Bundle, error) {
	if x.Cols() != a.Shape.InSize() {
		return sharing.Bundle{}, fmt.Errorf("nn: secure avgpool input width %d, want %d", x.Cols(), a.Shape.InSize())
	}
	a.rows = x.Rows()
	plan := a.Shape.plan()
	sum, err := transformBundle(x, func(m Mat) (Mat, error) { return tensor.Gather(m, plan[0]) })
	if err != nil {
		return sharing.Bundle{}, err
	}
	for j := 1; j < len(plan); j++ {
		cand, err := transformBundle(x, func(m Mat) (Mat, error) { return tensor.Gather(m, plan[j]) })
		if err != nil {
			return sharing.Bundle{}, err
		}
		sum, err = sum.Add(cand)
		if err != nil {
			return sharing.Bundle{}, err
		}
	}
	inv := ctx.Params.FromFloat(1 / float64(len(plan)))
	return sum.Scale(inv).TruncateInPlace(ctx.Params.FracBits), nil
}

// Backward implements SecureLayer.
func (a *SecureAvgPool) Backward(ctx *protocol.Ctx, _ TripleSource, _ string, dy sharing.Bundle) (sharing.Bundle, error) {
	if a.rows == 0 {
		return sharing.Bundle{}, fmt.Errorf("nn: secure avgpool backward before forward")
	}
	if dy.Rows() != a.rows || dy.Cols() != a.Shape.OutSize() {
		return sharing.Bundle{}, fmt.Errorf("nn: secure avgpool gradient shape %dx%d unexpected", dy.Rows(), dy.Cols())
	}
	plan := a.Shape.plan()
	inv := ctx.Params.FromFloat(1 / float64(len(plan)))
	scaled := dy.Scale(inv).TruncateInPlace(ctx.Params.FracBits)
	return transformBundle(scaled, func(m Mat) (Mat, error) {
		dx := tensor.Matrix[int64]{Rows: m.Rows, Cols: a.Shape.InSize(), Data: make([]int64, m.Rows*a.Shape.InSize())}
		for _, idx := range plan {
			part, err := tensor.ScatterAdd(m, idx, a.Shape.InSize())
			if err != nil {
				return Mat{}, err
			}
			if err := dx.AddInPlace(part); err != nil {
				return Mat{}, err
			}
		}
		return dx, nil
	})
}

// Update implements SecureLayer.
func (a *SecureAvgPool) Update(fixed.Params, float64) error { return nil }
