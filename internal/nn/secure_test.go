package nn

import (
	"math"
	mathrand "math/rand/v2"
	"sync"
	"testing"
	"time"

	"github.com/trustddl/trustddl/internal/fixed"
	"github.com/trustddl/trustddl/internal/party"
	"github.com/trustddl/trustddl/internal/protocol"
	"github.com/trustddl/trustddl/internal/sharing"
	"github.com/trustddl/trustddl/internal/tensor"
	"github.com/trustddl/trustddl/internal/transport"
)

// secureEnv is a complete in-process TrustDDL deployment for nn tests:
// three party contexts, an offline triple dealer, and a model-owner
// service running the softmax delegation.
type secureEnv struct {
	params  fixed.Params
	dealer  *sharing.Dealer
	pre     *sharing.PreDealer
	ctxs    [sharing.NumParties]*protocol.Ctx
	views   [sharing.NumParties]*sharing.PreView
	svc     *protocol.OwnerService
	svcDone chan error
	net     *transport.ChanNetwork
}

func newSecureEnv(t *testing.T) *secureEnv {
	t.Helper()
	env := &secureEnv{
		params:  fixed.Default(),
		net:     transport.NewChanNetwork(),
		svcDone: make(chan error, 1),
	}
	env.dealer = sharing.NewDealer(sharing.NewSeededSource(2024), env.params)
	env.pre = sharing.NewPreDealer(env.dealer)
	for i := 1; i <= sharing.NumParties; i++ {
		ep, err := env.net.Endpoint(i)
		if err != nil {
			t.Fatal(err)
		}
		ctx, err := protocol.NewCtx(party.NewRouter(ep, 2*time.Second), i, env.params, true)
		if err != nil {
			t.Fatal(err)
		}
		ctx.SetKeys(transport.ModelOwner, env.dealer.Keys(i))
		env.ctxs[i-1] = ctx
		view, err := env.pre.View(i)
		if err != nil {
			t.Fatal(err)
		}
		env.views[i-1] = view
	}
	ownerEP, err := env.net.Endpoint(transport.ModelOwner)
	if err != nil {
		t.Fatal(err)
	}
	env.svc = protocol.NewOwnerService(ownerEP, env.dealer)
	env.svc.RegisterUnary(SoftmaxName, SoftmaxDelegate(env.params))
	go func() { env.svcDone <- env.svc.Run() }()
	t.Cleanup(func() {
		doEP, err := env.net.Endpoint(transport.DataOwner)
		if err == nil {
			_ = protocol.Shutdown(doEP, transport.ModelOwner)
		}
		select {
		case err := <-env.svcDone:
			if err != nil {
				t.Errorf("owner service: %v", err)
			}
		case <-time.After(3 * time.Second):
			t.Error("owner service did not stop")
		}
		_ = env.net.Close()
	})
	return env
}

// runSecure executes fn concurrently on the three parties.
func runSecure[T any](t *testing.T, env *secureEnv, fn func(i int) (T, error)) [sharing.NumParties]T {
	t.Helper()
	var (
		wg   sync.WaitGroup
		out  [sharing.NumParties]T
		errs [sharing.NumParties]error
	)
	for i := 0; i < sharing.NumParties; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i], errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("party %d: %v", i+1, err)
		}
	}
	return out
}

// open reconstructs a bundle triple.
func open(t *testing.T, bundles [sharing.NumParties]sharing.Bundle) Mat {
	t.Helper()
	sets, err := sharing.CollectSets(bundles)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := sharing.ReconstructSix(sets)
	if err != nil {
		t.Fatal(err)
	}
	v, _, err := rec.DecideRows()
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func maxAbsDiffFloat(t *testing.T, params fixed.Params, got Mat, want Mat64) float64 {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("shape %dx%d vs %dx%d", got.Rows, got.Cols, want.Rows, want.Cols)
	}
	var worst float64
	for i := range want.Data {
		d := math.Abs(params.ToFloat(got.Data[i]) - want.Data[i])
		if d > worst {
			worst = d
		}
	}
	return worst
}

// tinyWeights builds a small two-layer MLP in both engines.
func tinyWeights(rng *mathrand.Rand) (w1, w2 Mat64) {
	w1 = tensor.MustNew[float64](6, 5)
	w2 = tensor.MustNew[float64](5, 3)
	for i := range w1.Data {
		w1.Data[i] = rng.NormFloat64() * 0.4
	}
	for i := range w2.Data {
		w2.Data[i] = rng.NormFloat64() * 0.4
	}
	return w1, w2
}

func shareMat(t *testing.T, env *secureEnv, m Mat64) [sharing.NumParties]sharing.Bundle {
	t.Helper()
	bs, err := env.dealer.ShareFloats(m)
	if err != nil {
		t.Fatal(err)
	}
	return bs
}

func TestSecureForwardMatchesPlain(t *testing.T) {
	env := newSecureEnv(t)
	rng := mathrand.New(mathrand.NewPCG(3, 4))
	w1, w2 := tinyWeights(rng)

	plain := &Network{Layers: []Layer{&Dense{W: w1.Clone()}, NewReLU(), &Dense{W: w2.Clone()}}}
	x := tensor.MustNew[float64](2, 6)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	wantLogits, err := plain.Logits(x)
	if err != nil {
		t.Fatal(err)
	}

	bw1, bw2 := shareMat(t, env, w1), shareMat(t, env, w2)
	bx := shareMat(t, env, x)
	outs := runSecure(t, env, func(i int) (sharing.Bundle, error) {
		d1, err := NewSecureDense(bw1[i])
		if err != nil {
			return sharing.Bundle{}, err
		}
		d2, err := NewSecureDense(bw2[i])
		if err != nil {
			return sharing.Bundle{}, err
		}
		net := &SecureNetwork{Layers: []SecureLayer{d1, NewSecureReLU(), d2}, OwnerActor: transport.ModelOwner}
		return net.Logits(env.ctxs[i], env.views[i], "fwd1", bx[i])
	})
	got := open(t, outs)
	if d := maxAbsDiffFloat(t, env.params, got, wantLogits); d > 1e-3 {
		t.Fatalf("secure logits deviate from plaintext by %v", d)
	}
}

func TestSecureConvForwardMatchesPlain(t *testing.T) {
	env := newSecureEnv(t)
	rng := mathrand.New(mathrand.NewPCG(5, 6))
	shape := tensor.ConvShape{InChannels: 1, Height: 6, Width: 6, Kernel: 3, Stride: 2, Pad: 1}
	conv, err := NewConv(shape, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.MustNew[float64](2, 36)
	for i := range x.Data {
		x.Data[i] = rng.Float64()
	}
	want, err := conv.Forward(x)
	if err != nil {
		t.Fatal(err)
	}

	bw := shareMat(t, env, conv.W)
	bx := shareMat(t, env, x)
	outs := runSecure(t, env, func(i int) (sharing.Bundle, error) {
		sc, err := NewSecureConv(shape, 2, bw[i])
		if err != nil {
			return sharing.Bundle{}, err
		}
		return sc.Forward(env.ctxs[i], env.views[i], "conv1", bx[i])
	})
	got := open(t, outs)
	if d := maxAbsDiffFloat(t, env.params, got, want); d > 1e-3 {
		t.Fatalf("secure conv deviates from plaintext by %v", d)
	}
}

func TestSecureTrainingStepMatchesPlain(t *testing.T) {
	env := newSecureEnv(t)
	rng := mathrand.New(mathrand.NewPCG(8, 9))
	w1, w2 := tinyWeights(rng)
	const lr = 0.1

	plain := &Network{Layers: []Layer{&Dense{W: w1.Clone()}, NewReLU(), &Dense{W: w2.Clone()}}}
	x := tensor.MustNew[float64](2, 6)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64() * 0.5
	}
	labels := []int{2, 0}
	if _, err := plain.TrainBatch(x, labels, lr); err != nil {
		t.Fatal(err)
	}

	oneHot, err := OneHot(labels, 3)
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
		if err := net.TrainBatch(env.ctxs[i], env.views[i], "step1", bx[i], by[i], lr); err != nil {
			return result{}, err
		}
		return result{w1: d1.W, w2: d2.W}, nil
	})

	var w1s, w2s [sharing.NumParties]sharing.Bundle
	for i := 0; i < sharing.NumParties; i++ {
		w1s[i], w2s[i] = outs[i].w1, outs[i].w2
	}
	gotW1, gotW2 := open(t, w1s), open(t, w2s)
	wantW1 := plain.Layers[0].(*Dense).W
	wantW2 := plain.Layers[2].(*Dense).W
	if d := maxAbsDiffFloat(t, env.params, gotW1, wantW1); d > 1e-3 {
		t.Fatalf("layer 1 weights deviate by %v after one secure step", d)
	}
	if d := maxAbsDiffFloat(t, env.params, gotW2, wantW2); d > 1e-3 {
		t.Fatalf("layer 2 weights deviate by %v after one secure step", d)
	}
}

func TestSecureTrainingWithByzantineParty(t *testing.T) {
	// One party corrupts every exchanged share vector (hash-consistent,
	// Case 3); the honest parties' secure step must still track the
	// plaintext step.
	env := newSecureEnv(t)
	env.ctxs[1].Adversary = liarAdversary{}
	rng := mathrand.New(mathrand.NewPCG(10, 11))
	w1, w2 := tinyWeights(rng)
	const lr = 0.1

	plain := &Network{Layers: []Layer{&Dense{W: w1.Clone()}, NewReLU(), &Dense{W: w2.Clone()}}}
	x := tensor.MustNew[float64](1, 6)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64() * 0.5
	}
	labels := []int{1}
	if _, err := plain.TrainBatch(x, labels, lr); err != nil {
		t.Fatal(err)
	}

	oneHot, err := OneHot(labels, 3)
	if err != nil {
		t.Fatal(err)
	}
	bw1, bw2 := shareMat(t, env, w1), shareMat(t, env, w2)
	bx, by := shareMat(t, env, x), shareMat(t, env, oneHot)

	type result struct{ w1 sharing.Bundle }
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
		if err := net.TrainBatch(env.ctxs[i], env.views[i], "byzstep", bx[i], by[i], lr); err != nil {
			return result{}, err
		}
		return result{w1: d1.W}, nil
	})

	// Validate via the two honest parties plus the corrupt one flagged.
	var w1s [sharing.NumParties]sharing.Bundle
	for i := 0; i < sharing.NumParties; i++ {
		w1s[i] = outs[i].w1
	}
	sets, err := sharing.CollectSets(w1s)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := sharing.ReconstructSix(sets)
	if err != nil {
		t.Fatal(err)
	}
	rec.FlagParty(2)
	gotW1, _, err := rec.DecideRows()
	if err != nil {
		t.Fatal(err)
	}
	wantW1 := plain.Layers[0].(*Dense).W
	if d := maxAbsDiffFloat(t, env.params, gotW1, wantW1); d > 1e-3 {
		t.Fatalf("honest weights deviate by %v under a Byzantine party", d)
	}
}

// liarAdversary is a Case-3 corruption for the secure training test.
type liarAdversary struct{}

func (liarAdversary) CorruptPreCommit(_, _ string, bs []sharing.Bundle) []sharing.Bundle {
	for i := range bs {
		for j := range bs[i].Primary.Data {
			bs[i].Primary.Data[j] += 1 << 36
		}
	}
	return bs
}

func (liarAdversary) CorruptPostCommit(_ int, _, _ string, bs []sharing.Bundle) []sharing.Bundle {
	return bs
}

func TestSecurePaperNetForward(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale forward pass in -short mode")
	}
	env := newSecureEnv(t)
	w, err := InitPaperWeights(12)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewPlainPaperNet(w)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.MustNew[float64](1, 784)
	rng := mathrand.New(mathrand.NewPCG(1, 2))
	for i := range x.Data {
		x.Data[i] = rng.Float64()
	}
	want, err := plain.Logits(x)
	if err != nil {
		t.Fatal(err)
	}

	bconv, bfc1, bfc2 := shareMat(t, env, w.Conv), shareMat(t, env, w.FC1), shareMat(t, env, w.FC2)
	bx := shareMat(t, env, x)
	outs := runSecure(t, env, func(i int) (sharing.Bundle, error) {
		net, err := NewSecurePaperNet(bconv[i], bfc1[i], bfc2[i])
		if err != nil {
			return sharing.Bundle{}, err
		}
		return net.Logits(env.ctxs[i], env.views[i], "paper", bx[i])
	})
	got := open(t, outs)
	if d := maxAbsDiffFloat(t, env.params, got, want); d > 5e-3 {
		t.Fatalf("secure paper-net logits deviate from plaintext by %v", d)
	}
}

func TestZeroBundle(t *testing.T) {
	z := zeroBundle(2, 3)
	if err := z.Validate(); err != nil {
		t.Fatal(err)
	}
	if z.Primary.Sum() != 0 || z.Hat.Sum() != 0 || z.Second.Sum() != 0 {
		t.Fatal("zero bundle not zero")
	}
}

func TestTransposeBundle(t *testing.T) {
	b := zeroBundle(2, 3)
	b.Primary.Set(0, 2, 5)
	bt, err := transposeBundle(b)
	if err != nil {
		t.Fatal(err)
	}
	if bt.Primary.Rows != 3 || bt.Primary.At(2, 0) != 5 {
		t.Fatal("bundle transpose wrong")
	}
}

func TestIm2ColBatchAdjoint(t *testing.T) {
	shape := tensor.ConvShape{InChannels: 1, Height: 4, Width: 4, Kernel: 2, Stride: 2}
	x := tensor.MustNew[int64](3, 16)
	for i := range x.Data {
		x.Data[i] = int64(i%7 - 3)
	}
	cols, err := tensor.Im2ColBatch(shape, x)
	if err != nil {
		t.Fatal(err)
	}
	back, err := tensor.Col2ImBatch(shape, cols, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Stride 2 kernel 2 on 4×4 is a partition: col2im(im2col(x)) == x.
	if !back.Equal(x) {
		t.Fatal("batch im2col/col2im round trip failed for partitioning conv")
	}
	if _, err := tensor.Im2ColBatch(shape, tensor.MustNew[int64](1, 9)); err == nil {
		t.Fatal("bad width accepted")
	}
	if _, err := tensor.Col2ImBatch(shape, tensor.MustNew[int64](2, 2), 1); err == nil {
		t.Fatal("bad cols shape accepted")
	}
}
