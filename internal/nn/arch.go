package nn

import (
	"encoding/binary"
	"fmt"
	mathrand "math/rand/v2"

	"github.com/trustddl/trustddl/internal/sharing"
	"github.com/trustddl/trustddl/internal/tensor"
)

// LayerKind enumerates the layer types both engines implement.
type LayerKind int

// Layer kinds.
const (
	// KindDense is a fully connected layer (SecMatMul-BT).
	KindDense LayerKind = iota + 1
	// KindConv is an im2col-lowered convolution (SecMatMul-BT).
	KindConv
	// KindReLU is the element-wise activation (SecComp-BT).
	KindReLU
	// KindMaxPool is non-overlapping max pooling (SecComp-BT maxima).
	KindMaxPool
	// KindAvgPool is non-overlapping average pooling (fully local).
	KindAvgPool
)

// LayerSpec declares one layer of an architecture.
type LayerSpec struct {
	Kind LayerKind
	// In and Out are the Dense dimensions.
	In, Out int
	// Conv and OutChannels describe a convolution.
	Conv        tensor.ConvShape
	OutChannels int
	// Pool describes a max-pooling layer.
	Pool PoolShape
}

// DenseSpec declares a fully connected layer.
func DenseSpec(in, out int) LayerSpec {
	return LayerSpec{Kind: KindDense, In: in, Out: out}
}

// ConvSpec declares a convolution layer.
func ConvSpec(shape tensor.ConvShape, outChannels int) LayerSpec {
	return LayerSpec{Kind: KindConv, Conv: shape, OutChannels: outChannels}
}

// ReLUSpec declares an activation layer.
func ReLUSpec() LayerSpec { return LayerSpec{Kind: KindReLU} }

// MaxPoolSpec declares a max-pooling layer.
func MaxPoolSpec(shape PoolShape) LayerSpec { return LayerSpec{Kind: KindMaxPool, Pool: shape} }

// AvgPoolSpec declares an average-pooling layer.
func AvgPoolSpec(shape PoolShape) LayerSpec { return LayerSpec{Kind: KindAvgPool, Pool: shape} }

// hasWeights reports whether the layer carries parameters.
func (s LayerSpec) hasWeights() bool { return s.Kind == KindDense || s.Kind == KindConv }

// outputWidth returns the per-sample output width given the input
// width, or an error on mismatch.
func (s LayerSpec) outputWidth(in int) (int, error) {
	switch s.Kind {
	case KindDense:
		if in != s.In {
			return 0, fmt.Errorf("nn: dense expects width %d, got %d", s.In, in)
		}
		return s.Out, nil
	case KindConv:
		want := s.Conv.InSize()
		if in != want {
			return 0, fmt.Errorf("nn: conv expects width %d, got %d", want, in)
		}
		return s.Conv.OutHeight() * s.Conv.OutWidth() * s.OutChannels, nil
	case KindReLU:
		return in, nil
	case KindMaxPool, KindAvgPool:
		if in != s.Pool.InSize() {
			return 0, fmt.Errorf("nn: pool expects width %d, got %d", s.Pool.InSize(), in)
		}
		return s.Pool.OutSize(), nil
	default:
		return 0, fmt.Errorf("nn: unknown layer kind %d", s.Kind)
	}
}

// Arch is a feed-forward architecture with a softmax + cross-entropy
// head, instantiable in both the plaintext and the secure engine.
type Arch []LayerSpec

// Validate checks layer compatibility for the given input width and
// returns the output width.
func (a Arch) Validate(inputWidth int) (int, error) {
	if len(a) == 0 {
		return 0, fmt.Errorf("nn: empty architecture")
	}
	width := inputWidth
	for i, s := range a {
		var err error
		if s.Kind == KindConv {
			if err := s.Conv.Validate(); err != nil {
				return 0, fmt.Errorf("nn: layer %d: %w", i, err)
			}
			if s.OutChannels <= 0 {
				return 0, fmt.Errorf("nn: layer %d: %d output channels", i, s.OutChannels)
			}
		}
		if s.Kind == KindDense && (s.In <= 0 || s.Out <= 0) {
			return 0, fmt.Errorf("nn: layer %d: dense %dx%d invalid", i, s.In, s.Out)
		}
		if s.Kind == KindMaxPool || s.Kind == KindAvgPool {
			if err := s.Pool.Validate(); err != nil {
				return 0, fmt.Errorf("nn: layer %d: %w", i, err)
			}
		}
		width, err = s.outputWidth(width)
		if err != nil {
			return 0, fmt.Errorf("nn: layer %d: %w", i, err)
		}
	}
	return width, nil
}

// NumWeightMatrices counts parameterized layers.
func (a Arch) NumWeightMatrices() int {
	n := 0
	for _, s := range a {
		if s.hasWeights() {
			n++
		}
	}
	return n
}

// InitWeights draws fresh parameters with the paper's §IV-A scheme:
// dense ~ N(0, 1/in), conv ~ N(0, 1/k²). One matrix per parameterized
// layer, in layer order.
func (a Arch) InitWeights(seed uint64) ([]Mat64, error) {
	rng := mathrand.New(mathrand.NewPCG(seed, seed^0x51ed2701))
	var out []Mat64
	for i, s := range a {
		switch s.Kind {
		case KindDense:
			if s.In <= 0 || s.Out <= 0 {
				return nil, fmt.Errorf("nn: layer %d: dense %dx%d invalid", i, s.In, s.Out)
			}
			out = append(out, NewDense(s.In, s.Out, rng).W)
		case KindConv:
			conv, err := NewConv(s.Conv, s.OutChannels, rng)
			if err != nil {
				return nil, fmt.Errorf("nn: layer %d: %w", i, err)
			}
			out = append(out, conv.W)
		}
	}
	return out, nil
}

// BuildPlain instantiates the plaintext engine around copies of the
// given weight matrices (one per parameterized layer, in order).
func (a Arch) BuildPlain(weights []Mat64) (*Network, error) {
	if len(weights) != a.NumWeightMatrices() {
		return nil, fmt.Errorf("nn: %d weight matrices for %d parameterized layers", len(weights), a.NumWeightMatrices())
	}
	net := &Network{Layers: make([]Layer, 0, len(a))}
	wi := 0
	for i, s := range a {
		switch s.Kind {
		case KindDense:
			w := weights[wi]
			wi++
			if w.Rows != s.In || w.Cols != s.Out {
				return nil, fmt.Errorf("nn: layer %d weights %dx%d, want %dx%d", i, w.Rows, w.Cols, s.In, s.Out)
			}
			net.Layers = append(net.Layers, &Dense{W: w.Clone()})
		case KindConv:
			w := weights[wi]
			wi++
			if w.Rows != s.Conv.PatchSize() || w.Cols != s.OutChannels {
				return nil, fmt.Errorf("nn: layer %d weights %dx%d, want %dx%d", i, w.Rows, w.Cols, s.Conv.PatchSize(), s.OutChannels)
			}
			net.Layers = append(net.Layers, &Conv{Shape: s.Conv, OutChannels: s.OutChannels, W: w.Clone()})
		case KindReLU:
			net.Layers = append(net.Layers, NewReLU())
		case KindMaxPool:
			l, err := NewMaxPool(s.Pool)
			if err != nil {
				return nil, fmt.Errorf("nn: layer %d: %w", i, err)
			}
			net.Layers = append(net.Layers, l)
		case KindAvgPool:
			l, err := NewAvgPool(s.Pool)
			if err != nil {
				return nil, fmt.Errorf("nn: layer %d: %w", i, err)
			}
			net.Layers = append(net.Layers, l)
		default:
			return nil, fmt.Errorf("nn: layer %d: unknown kind %d", i, s.Kind)
		}
	}
	return net, nil
}

// BuildSecure instantiates one party's secure engine around its weight
// bundles (one per parameterized layer, in order).
func (a Arch) BuildSecure(bundles []sharing.Bundle, ownerActor int) (*SecureNetwork, error) {
	if len(bundles) != a.NumWeightMatrices() {
		return nil, fmt.Errorf("nn: %d weight bundles for %d parameterized layers", len(bundles), a.NumWeightMatrices())
	}
	net := &SecureNetwork{Layers: make([]SecureLayer, 0, len(a)), OwnerActor: ownerActor}
	wi := 0
	for i, s := range a {
		switch s.Kind {
		case KindDense:
			l, err := NewSecureDense(bundles[wi])
			wi++
			if err != nil {
				return nil, fmt.Errorf("nn: layer %d: %w", i, err)
			}
			if l.in != s.In || l.out != s.Out {
				return nil, fmt.Errorf("nn: layer %d bundle %dx%d, want %dx%d", i, l.in, l.out, s.In, s.Out)
			}
			net.Layers = append(net.Layers, l)
		case KindConv:
			l, err := NewSecureConv(s.Conv, s.OutChannels, bundles[wi])
			wi++
			if err != nil {
				return nil, fmt.Errorf("nn: layer %d: %w", i, err)
			}
			net.Layers = append(net.Layers, l)
		case KindReLU:
			net.Layers = append(net.Layers, NewSecureReLU())
		case KindMaxPool:
			l, err := NewSecureMaxPool(s.Pool)
			if err != nil {
				return nil, fmt.Errorf("nn: layer %d: %w", i, err)
			}
			net.Layers = append(net.Layers, l)
		case KindAvgPool:
			l, err := NewSecureAvgPool(s.Pool)
			if err != nil {
				return nil, fmt.Errorf("nn: layer %d: %w", i, err)
			}
			net.Layers = append(net.Layers, l)
		default:
			return nil, fmt.Errorf("nn: layer %d: unknown kind %d", i, s.Kind)
		}
	}
	return net, nil
}

// WeightBundles extracts the current parameter bundles from a secure
// network built from this architecture (for weight reveal).
func (a Arch) WeightBundles(net *SecureNetwork) ([]sharing.Bundle, error) {
	if len(net.Layers) != len(a) {
		return nil, fmt.Errorf("nn: network has %d layers, architecture %d", len(net.Layers), len(a))
	}
	var out []sharing.Bundle
	for i, s := range a {
		switch s.Kind {
		case KindDense:
			l, ok := net.Layers[i].(*SecureDense)
			if !ok {
				return nil, fmt.Errorf("nn: layer %d is not dense", i)
			}
			out = append(out, l.W)
		case KindConv:
			l, ok := net.Layers[i].(*SecureConv)
			if !ok {
				return nil, fmt.Errorf("nn: layer %d is not a convolution", i)
			}
			out = append(out, l.W)
		}
	}
	return out, nil
}

// StateBundles extracts the optimizer state (momentum velocity) from a
// secure network built from this architecture, one bundle per
// parameterized layer in order. A layer whose velocity is still unset
// (momentum off, or no update yet) yields an all-zero bundle of its
// weight shape: restoring a zero velocity is arithmetically identical
// to leaving it unset, so checkpoints carry a uniform shape.
func (a Arch) StateBundles(net *SecureNetwork) ([]sharing.Bundle, error) {
	if len(net.Layers) != len(a) {
		return nil, fmt.Errorf("nn: network has %d layers, architecture %d", len(net.Layers), len(a))
	}
	velOrZero := func(vel, w sharing.Bundle) sharing.Bundle {
		if vel.Primary.IsZeroShape() {
			return zeroBundle(w.Rows(), w.Cols())
		}
		return vel
	}
	var out []sharing.Bundle
	for i, s := range a {
		switch s.Kind {
		case KindDense:
			l, ok := net.Layers[i].(*SecureDense)
			if !ok {
				return nil, fmt.Errorf("nn: layer %d is not dense", i)
			}
			out = append(out, velOrZero(l.vel, l.W))
		case KindConv:
			l, ok := net.Layers[i].(*SecureConv)
			if !ok {
				return nil, fmt.Errorf("nn: layer %d is not a convolution", i)
			}
			out = append(out, velOrZero(l.vel, l.W))
		}
	}
	return out, nil
}

// SetStateBundles restores optimizer state captured by StateBundles
// (one velocity bundle per parameterized layer, weight-shaped).
func (a Arch) SetStateBundles(net *SecureNetwork, bundles []sharing.Bundle) error {
	if len(net.Layers) != len(a) {
		return fmt.Errorf("nn: network has %d layers, architecture %d", len(net.Layers), len(a))
	}
	if len(bundles) != a.NumWeightMatrices() {
		return fmt.Errorf("nn: %d state bundles for %d parameterized layers", len(bundles), a.NumWeightMatrices())
	}
	wi := 0
	for i, s := range a {
		if !s.hasWeights() {
			continue
		}
		b := bundles[wi]
		wi++
		if err := b.Validate(); err != nil {
			return fmt.Errorf("nn: layer %d state: %w", i, err)
		}
		switch s.Kind {
		case KindDense:
			l, ok := net.Layers[i].(*SecureDense)
			if !ok {
				return fmt.Errorf("nn: layer %d is not dense", i)
			}
			if b.Rows() != l.W.Rows() || b.Cols() != l.W.Cols() {
				return fmt.Errorf("nn: layer %d state %dx%d, want %dx%d", i, b.Rows(), b.Cols(), l.W.Rows(), l.W.Cols())
			}
			l.vel = b
		case KindConv:
			l, ok := net.Layers[i].(*SecureConv)
			if !ok {
				return fmt.Errorf("nn: layer %d is not a convolution", i)
			}
			if b.Rows() != l.W.Rows() || b.Cols() != l.W.Cols() {
				return fmt.Errorf("nn: layer %d state %dx%d, want %dx%d", i, b.Rows(), b.Cols(), l.W.Rows(), l.W.Cols())
			}
			l.vel = b
		}
	}
	return nil
}

// PaperArch is the Table I architecture as a spec.
func PaperArch() Arch {
	return Arch{
		ConvSpec(PaperConvShape(), PaperOutChannels),
		ReLUSpec(),
		DenseSpec(PaperConvOut, PaperHidden),
		ReLUSpec(),
		DenseSpec(PaperHidden, PaperClasses),
	}
}

// EncodeArch serializes an architecture for distribution to served
// parties (fixed-width little-endian fields, no reflection).
func EncodeArch(a Arch) []byte {
	buf := make([]byte, 0, 4+60*len(a))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(a)))
	for _, s := range a {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(s.Kind))
		for _, v := range []int{
			s.In, s.Out,
			s.Conv.InChannels, s.Conv.Height, s.Conv.Width, s.Conv.Kernel, s.Conv.Stride, s.Conv.Pad,
			s.OutChannels,
			s.Pool.Channels, s.Pool.Height, s.Pool.Width, s.Pool.Window,
		} {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
		}
	}
	return buf
}

// DecodeArch parses the output of EncodeArch.
func DecodeArch(buf []byte) (Arch, error) {
	if len(buf) < 4 {
		return nil, fmt.Errorf("nn: arch encoding truncated")
	}
	n := int(binary.LittleEndian.Uint32(buf))
	buf = buf[4:]
	if n <= 0 || n > 1024 {
		return nil, fmt.Errorf("nn: implausible layer count %d", n)
	}
	const fieldsPerLayer = 14
	if len(buf) != n*fieldsPerLayer*4 {
		return nil, fmt.Errorf("nn: arch encoding has %d bytes for %d layers", len(buf), n)
	}
	out := make(Arch, n)
	for i := 0; i < n; i++ {
		fields := make([]int, fieldsPerLayer)
		for j := range fields {
			fields[j] = int(int32(binary.LittleEndian.Uint32(buf[(i*fieldsPerLayer+j)*4:])))
		}
		out[i] = LayerSpec{
			Kind: LayerKind(fields[0]),
			In:   fields[1],
			Out:  fields[2],
			Conv: tensor.ConvShape{
				InChannels: fields[3],
				Height:     fields[4],
				Width:      fields[5],
				Kernel:     fields[6],
				Stride:     fields[7],
				Pad:        fields[8],
			},
			OutChannels: fields[9],
			Pool: PoolShape{
				Channels: fields[10],
				Height:   fields[11],
				Width:    fields[12],
				Window:   fields[13],
			},
		}
	}
	return out, nil
}
