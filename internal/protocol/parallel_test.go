package protocol

import (
	"runtime"
	"testing"

	"github.com/trustddl/trustddl/internal/sharing"
	"github.com/trustddl/trustddl/internal/tensor"
)

// TestSecMatMulBTParallelKernelsMatchSerial pins the cross-layer
// determinism contract: the Byzantine-tolerant multiplication protocols
// perform their local linear algebra (masking, Beaver combination,
// truncation) through the tensor kernels, so running them with parallel
// kernels must yield bit-identical share bundles and the same decided
// value as a GOMAXPROCS=1 run of the identical seeded deployment. The
// 128×130 operands put every product and element-wise step at ≥ 2¹⁴
// element-ops, so at GOMAXPROCS=4 the kernels fan out.
func TestSecMatMulBTParallelKernelsMatchSerial(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })

	const m, n, p = 128, 130, 9
	run := func(t *testing.T) (Mat, Mat) {
		t.Helper()
		env := newPartyEnv(t, true)
		x := tensor.MustNew[float64](m, n)
		y := tensor.MustNew[float64](n, p)
		for i := range x.Data {
			x.Data[i] = float64(i%13) - 6
		}
		for i := range y.Data {
			y.Data[i] = float64(i%11)/4 - 1
		}
		bx, by := shareFloats(t, env, x), shareFloats(t, env, y)
		mmTriples, err := env.dealer.MatMulTriple(m, n, p)
		if err != nil {
			t.Fatal(err)
		}
		hadTriples, err := env.dealer.HadamardTriple(m, n)
		if err != nil {
			t.Fatal(err)
		}
		x2, _ := tensor.FromSlice(m, n, x.Data)
		bx2 := shareFloats(t, env, x2)
		mm := runAll(t, env, func(ctx *Ctx) (sharing.Bundle, error) {
			return SecMatMulBT(ctx, "par-mm", bx[ctx.Index-1], by[ctx.Index-1], mmTriples[ctx.Index-1])
		})
		had := runAll(t, env, func(ctx *Ctx) (sharing.Bundle, error) {
			return SecMulBT(ctx, "par-had", bx[ctx.Index-1], bx2[ctx.Index-1], hadTriples[ctx.Index-1])
		})
		return decideBundles(t, mm, nil), decideBundles(t, had, nil)
	}

	parMM, parHad := run(t)
	runtime.GOMAXPROCS(1)
	serMM, serHad := run(t)

	if !parMM.Equal(serMM) {
		t.Fatal("SecMatMulBT with parallel kernels differs from serial-kernel run")
	}
	if !parHad.Equal(serHad) {
		t.Fatal("SecMulBT with parallel kernels differs from serial-kernel run")
	}
}
