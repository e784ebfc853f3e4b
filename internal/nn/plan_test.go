package nn

import (
	"reflect"
	"testing"

	"github.com/trustddl/trustddl/internal/protocol"
	"github.com/trustddl/trustddl/internal/sharing"
	"github.com/trustddl/trustddl/internal/tensor"
	"github.com/trustddl/trustddl/internal/transport"
)

// recordingSource wraps a TripleSource and records every request in
// call order, as TripleRequest values comparable against a plan.
type recordingSource struct {
	inner TripleSource
	reqs  []protocol.TripleRequest
}

func (r *recordingSource) MatMulTriple(session, mask string, m, n, p int) (sharing.TripleBundle, error) {
	r.reqs = append(r.reqs, protocol.TripleRequest{Kind: protocol.ReqMatMul, Session: session, M: m, N: n, P: p, Mask: mask})
	return r.inner.MatMulTriple(session, mask, m, n, p)
}

func (r *recordingSource) HadamardTriple(session string, rows, cols int) (sharing.TripleBundle, error) {
	r.reqs = append(r.reqs, protocol.TripleRequest{Kind: protocol.ReqHadamard, Session: session, M: rows, N: cols})
	return r.inner.HadamardTriple(session, rows, cols)
}

func (r *recordingSource) AuxPositive(session string, rows, cols int) (sharing.Bundle, error) {
	r.reqs = append(r.reqs, protocol.TripleRequest{Kind: protocol.ReqAux, Session: session, M: rows, N: cols})
	return r.inner.AuxPositive(session, rows, cols)
}

// planTestNet builds, per party, a network exercising every plannable
// layer kind: Conv → ReLU → MaxPool → Dense → ReLU → AvgPool → Dense.
func planTestNet(t *testing.T, env *secureEnv) ([sharing.NumParties]*SecureNetwork, int, int) {
	t.Helper()
	convShape := tensor.ConvShape{InChannels: 1, Height: 6, Width: 6, Kernel: 3, Stride: 1, Pad: 1}
	const outChannels = 2
	rng := testRNG()
	wc := tensor.MustNew[float64](convShape.PatchSize(), outChannels)
	w1 := tensor.MustNew[float64](18, 8)
	w2 := tensor.MustNew[float64](2, 3)
	for _, w := range []*Mat64{&wc, &w1, &w2} {
		for i := range w.Data {
			w.Data[i] = rng.NormFloat64() * 0.3
		}
	}
	bwc, bw1, bw2 := shareMat(t, env, wc), shareMat(t, env, w1), shareMat(t, env, w2)

	var nets [sharing.NumParties]*SecureNetwork
	for i := 0; i < sharing.NumParties; i++ {
		conv, err := NewSecureConv(convShape, outChannels, bwc[i])
		if err != nil {
			t.Fatal(err)
		}
		maxPool, err := NewSecureMaxPool(PoolShape{Channels: outChannels, Height: 6, Width: 6, Window: 2})
		if err != nil {
			t.Fatal(err)
		}
		d1, err := NewSecureDense(bw1[i])
		if err != nil {
			t.Fatal(err)
		}
		avgPool, err := NewSecureAvgPool(PoolShape{Channels: 2, Height: 2, Width: 2, Window: 2})
		if err != nil {
			t.Fatal(err)
		}
		d2, err := NewSecureDense(bw2[i])
		if err != nil {
			t.Fatal(err)
		}
		nets[i] = &SecureNetwork{
			Layers:     []SecureLayer{conv, NewSecureReLU(), maxPool, d1, NewSecureReLU(), avgPool, d2},
			OwnerActor: transport.ModelOwner,
		}
	}
	return nets, 2, 36 // batch, input width
}

// TestPlanMatchesRecordedRequests is the plan's ground truth: the
// enumerated requests must match, exactly and in order, what the layer
// walk actually asks a TripleSource for.
func TestPlanMatchesRecordedRequests(t *testing.T) {
	env := newSecureEnv(t)
	nets, batch, width := planTestNet(t, env)

	// An inference session carries a mask epoch, so its parameterised
	// layers name their weight masks; a training session does not.
	fwd := WithMaskEpoch("fwd", 3)
	logitsPlan, err := nets[0].LogitsPlan(fwd, batch, width)
	if err != nil {
		t.Fatal(err)
	}
	if got := logitsPlan[0].Mask; got != "me=3/l0" {
		t.Fatalf("first layer's request names mask %q, want %q", got, "me=3/l0")
	}
	trainPlan, err := nets[0].TrainPlan("train", batch, width)
	if err != nil {
		t.Fatal(err)
	}
	if len(logitsPlan) == 0 || len(trainPlan) <= len(logitsPlan) {
		t.Fatalf("implausible plan sizes: logits %d, train %d", len(logitsPlan), len(trainPlan))
	}

	x := tensor.MustNew[float64](batch, width)
	rng := testRNG()
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	oneHot, err := OneHot([]int{1, 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	bx, by := shareMat(t, env, x), shareMat(t, env, oneHot)

	recorders := [sharing.NumParties]*recordingSource{}
	for i := range recorders {
		recorders[i] = &recordingSource{inner: env.views[i]}
	}
	runSecure(t, env, func(i int) (struct{}, error) {
		_, err := nets[i].Logits(env.ctxs[i], recorders[i], fwd, bx[i])
		return struct{}{}, err
	})
	for i, rec := range recorders {
		if !reflect.DeepEqual(rec.reqs, logitsPlan) {
			t.Fatalf("party %d logits requests diverge from plan:\ngot  %v\nwant %v", i+1, rec.reqs, logitsPlan)
		}
		rec.reqs = nil
	}

	runSecure(t, env, func(i int) (struct{}, error) {
		err := nets[i].TrainBatch(env.ctxs[i], recorders[i], "train", bx[i], by[i], 0.1)
		return struct{}{}, err
	})
	for i, rec := range recorders {
		if !reflect.DeepEqual(rec.reqs, trainPlan) {
			t.Fatalf("party %d train requests diverge from plan:\ngot  %v\nwant %v", i+1, rec.reqs, trainPlan)
		}
	}
}

func TestPlanRejectsMismatchedWidth(t *testing.T) {
	env := newSecureEnv(t)
	nets, batch, width := planTestNet(t, env)
	if _, err := nets[0].LogitsPlan("fwd", batch, width+1); err == nil {
		t.Fatal("plan accepted an input width the network would reject")
	}
	if _, err := nets[0].LogitsPlan("fwd", 0, width); err == nil {
		t.Fatal("plan accepted an empty batch")
	}
}
