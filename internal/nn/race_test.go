package nn

// End-to-end race coverage for the parallel tensor kernels: a full
// secure training step runs three party goroutines over the channel
// transport while its products — shaped at ≥ 2¹⁴ element-ops, the
// kernels' fan-out threshold — fan out to their own worker goroutines
// at GOMAXPROCS=4. The test is designed to run under
// `go test -race ./internal/nn` and additionally pins the determinism
// contract at system level: the secure step with parallel kernels must
// reproduce the GOMAXPROCS=1 step bit-for-bit.

import (
	mathrand "math/rand/v2"
	"runtime"
	"testing"

	"github.com/trustddl/trustddl/internal/sharing"
	"github.com/trustddl/trustddl/internal/tensor"
	"github.com/trustddl/trustddl/internal/transport"
)

// secureStepWeights runs one secure dense(64→64)→ReLU→dense(64→3)
// training step on 8 images in a fresh in-process deployment and
// returns the opened post-step weights; the forward, weight-gradient
// and input-gradient products of the first layer are 8·64·64 ≥ 2¹⁴
// element-ops each.
// Everything is seeded, so two invocations under identical kernel
// settings — or, per the parallel layer's contract, under different
// ones — must produce identical matrices.
func secureStepWeights(t *testing.T) (Mat, Mat) {
	t.Helper()
	env := newSecureEnv(t)
	rng := mathrand.New(mathrand.NewPCG(21, 22))
	w1 := tensor.MustNew[float64](64, 64)
	w2 := tensor.MustNew[float64](64, 3)
	for _, w := range []Mat64{w1, w2} {
		for i := range w.Data {
			w.Data[i] = rng.NormFloat64() * 0.2
		}
	}
	const lr = 0.1

	x := tensor.MustNew[float64](8, 64)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64() * 0.5
	}
	oneHot, err := OneHot([]int{2, 0, 1, 1, 0, 2, 2, 1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	bw1, bw2 := shareMat(t, env, w1), shareMat(t, env, w2)
	bx, by := shareMat(t, env, x), shareMat(t, env, oneHot)

	type result struct{ w1, w2 sharing.Bundle }
	outs := runSecure(t, env, func(i int) (result, error) {
		d1, err := NewSecureDense(bw1[i])
		if err != nil {
			return result{}, err
		}
		d2, err := NewSecureDense(bw2[i])
		if err != nil {
			return result{}, err
		}
		net := &SecureNetwork{Layers: []SecureLayer{d1, NewSecureReLU(), d2}, OwnerActor: transport.ModelOwner}
		if err := net.TrainBatch(env.ctxs[i], env.views[i], "racestep", bx[i], by[i], lr); err != nil {
			return result{}, err
		}
		return result{w1: d1.W, w2: d2.W}, nil
	})
	var w1s, w2s [sharing.NumParties]sharing.Bundle
	for i := 0; i < sharing.NumParties; i++ {
		w1s[i], w2s[i] = outs[i].w1, outs[i].w2
	}
	return open(t, w1s), open(t, w2s)
}

func TestSecureTrainingStepParallelKernels(t *testing.T) {
	forceChunking(t)
	parW1, parW2 := secureStepWeights(t)

	runtime.GOMAXPROCS(1)
	serW1, serW2 := secureStepWeights(t)

	if !parW1.Equal(serW1) || !parW2.Equal(serW2) {
		t.Fatal("secure training step with parallel kernels differs from serial-kernel step")
	}
}

// TestSecureConvParallelKernels drives the conv layer's secure forward
// and backward — the Im2Col/Col2Im paths — under parallel kernels with
// the three parties racing, and checks the same bit-identity contract.
// Four images through the paper's 5×5 conv lower to 4·196·25 ≥ 2¹⁴
// element-ops.
func TestSecureConvParallelKernels(t *testing.T) {
	forceChunking(t)

	step := func(t *testing.T) (Mat, Mat) {
		t.Helper()
		env := newSecureEnv(t)
		rng := mathrand.New(mathrand.NewPCG(31, 32))
		shape := tensor.ConvShape{InChannels: 1, Height: 28, Width: 28, Kernel: 5, Stride: 2, Pad: 2}
		conv, err := NewConv(shape, 2, rng)
		if err != nil {
			t.Fatal(err)
		}
		x := tensor.MustNew[float64](4, 784)
		for i := range x.Data {
			x.Data[i] = rng.Float64()
		}
		bw := shareMat(t, env, conv.W)
		bx := shareMat(t, env, x)

		type result struct{ y, dx sharing.Bundle }
		outs := runSecure(t, env, func(i int) (result, error) {
			sc, err := NewSecureConv(shape, 2, bw[i])
			if err != nil {
				return result{}, err
			}
			y, err := sc.forward(env.ctxs[i], env.views[i], "raceconv", bx[i], trainingInputGrad)
			if err != nil {
				return result{}, err
			}
			dx, err := sc.Backward(env.ctxs[i], env.views[i], "raceconv-b", y)
			if err != nil {
				return result{}, err
			}
			return result{y: y, dx: dx}, nil
		})
		var ys, dxs [sharing.NumParties]sharing.Bundle
		for i := 0; i < sharing.NumParties; i++ {
			ys[i], dxs[i] = outs[i].y, outs[i].dx
		}
		return open(t, ys), open(t, dxs)
	}

	parY, parDX := step(t)
	runtime.GOMAXPROCS(1)
	serY, serDX := step(t)
	if !parY.Equal(serY) || !parDX.Equal(serDX) {
		t.Fatal("secure conv forward/backward with parallel kernels differs from serial-kernel run")
	}
}
