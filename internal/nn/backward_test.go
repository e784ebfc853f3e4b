package nn

import (
	"fmt"
	mathrand "math/rand/v2"
	"testing"

	"github.com/trustddl/trustddl/internal/sharing"
	"github.com/trustddl/trustddl/internal/tensor"
)

// exactInputGrad is the plaintext reference of a layer's input
// gradient in the ring: ⌊dY·Wᵀ / 2ᶠ⌋ of the encoded operands, element
// by element, before any reshaping.
func exactInputGrad(t *testing.T, env *secureEnv, dy, w Mat64) Mat {
	t.Helper()
	enc := func(m Mat64) Mat {
		out := tensor.MustNew[int64](m.Rows, m.Cols)
		for i, v := range m.Data {
			out.Data[i] = env.params.FromFloat(v)
		}
		return out
	}
	prod, err := enc(dy).MatMul(enc(w).Transpose())
	if err != nil {
		t.Fatal(err)
	}
	return prod.Map(func(v int64) int64 { return v >> env.params.FracBits })
}

// wantWithinCarries checks got − want ∈ [−carries, 0] element-wise: each
// truncated product element of the decided set is ⌊v/2ᶠ⌋ less a carry
// of 0 or 1, and a reshaping sum adds up to carries of them.
func wantWithinCarries(t *testing.T, got, want Mat, carries int64, what string) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", what, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if d := got.Data[i] - want.Data[i]; d < -carries || d > 0 {
			t.Fatalf("%s element %d: %d vs exact %d (Δ=%d outside [-%d, 0])", what, i, got.Data[i], want.Data[i], d, carries)
		}
	}
}

func randomMat(rng *mathrand.Rand, rows, cols int, scale float64) Mat64 {
	m := tensor.MustNew[float64](rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64() * scale
	}
	return m
}

// TestInputGradUnderForwardMask: a parameterised layer's input gradient
// is dY·Wᵀ multiplied under the mask its training forward opened W
// with — the forward's deal carries the backward pair, the backward
// opens only dY − A′ — and reconstructs to the exact ring product up to
// the truncation carries. Asked for no input gradient, the forward
// deals no pair and Backward returns an empty one, the weight gradient
// still cached.
func TestInputGradUnderForwardMask(t *testing.T) {
	env := newSecureEnv(t)
	rng := mathrand.New(mathrand.NewPCG(91, 92))

	t.Run("dense", func(t *testing.T) {
		w, x, dy := randomMat(rng, 17, 5, 0.4), randomMat(rng, 3, 17, 0.5), randomMat(rng, 3, 5, 0.25)
		bw, bx, bdy := shareMat(t, env, w), shareMat(t, env, x), shareMat(t, env, dy)
		for _, p := range []pass{trainingInputGrad, training} {
			inputGrad := p == trainingInputGrad
			session := fmt.Sprintf("igd/%d", p)
			type result struct {
				dx, dW sharing.Bundle
				pair   bool
			}
			outs := runSecure(t, env, func(i int) (result, error) {
				d, err := NewSecureDense(bw[i])
				if err != nil {
					return result{}, err
				}
				// The owner service deals: the pair travels in its reply.
				ts := OwnerSource{Ctx: env.ctxs[i]}
				if _, err := d.forward(env.ctxs[i], ts, session+"/f", bx[i], p); err != nil {
					return result{}, err
				}
				pair := !d.mask.back.A.Primary.IsZeroShape()
				dx, err := d.Backward(env.ctxs[i], ts, session+"/b", bdy[i])
				return result{dx: dx, dW: d.dW, pair: pair}, err
			})
			var dxs [sharing.NumParties]sharing.Bundle
			for i, o := range outs {
				if o.pair != inputGrad || o.dx.Primary.IsZeroShape() == inputGrad || o.dW.Primary.IsZeroShape() {
					t.Fatalf("party %d, input gradient wanted %t: pair dealt %t, dx %dx%d, dW %dx%d",
						i+1, inputGrad, o.pair, o.dx.Rows(), o.dx.Cols(), o.dW.Rows(), o.dW.Cols())
				}
				dxs[i] = o.dx
			}
			if inputGrad {
				wantWithinCarries(t, open(t, dxs), exactInputGrad(t, env, dy, w), 1, "dense dx")
			}
		}
	})

	t.Run("conv", func(t *testing.T) {
		shape := tensor.ConvShape{InChannels: 1, Height: 6, Width: 6, Kernel: 3, Stride: 1, Pad: 1}
		const outChannels, images = 2, 2
		positions := shape.OutHeight() * shape.OutWidth()
		w, x := randomMat(rng, shape.PatchSize(), outChannels, 0.4), randomMat(rng, images, shape.InSize(), 0.5)
		dy := randomMat(rng, images, positions*outChannels, 0.25)
		bw, bx, bdy := shareMat(t, env, w), shareMat(t, env, x), shareMat(t, env, dy)
		dxs := runSecure(t, env, func(i int) (sharing.Bundle, error) {
			c, err := NewSecureConv(shape, outChannels, bw[i])
			if err != nil {
				return sharing.Bundle{}, err
			}
			if _, err := c.forward(env.ctxs[i], env.views[i], "igc/f", bx[i], trainingInputGrad); err != nil {
				return sharing.Bundle{}, err
			}
			return c.Backward(env.ctxs[i], env.views[i], "igc/b", bdy[i])
		})
		lowered, err := dy.Reshape(images*positions, outChannels)
		if err != nil {
			t.Fatal(err)
		}
		want, err := tensor.Col2ImBatch(shape, exactInputGrad(t, env, lowered, w), images)
		if err != nil {
			t.Fatal(err)
		}
		// Col2Im sums up to Kernel² lowered elements into one pixel.
		wantWithinCarries(t, open(t, dxs), want, int64(shape.Kernel*shape.Kernel), "conv dx")
	})
}
