package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"github.com/trustddl/trustddl/internal/byzantine"
	"github.com/trustddl/trustddl/internal/commit"
	"github.com/trustddl/trustddl/internal/fixed"
	"github.com/trustddl/trustddl/internal/mnist"
	"github.com/trustddl/trustddl/internal/nn"
	"github.com/trustddl/trustddl/internal/party"
	"github.com/trustddl/trustddl/internal/protocol"
	"github.com/trustddl/trustddl/internal/serve"
	"github.com/trustddl/trustddl/internal/sharing"
	"github.com/trustddl/trustddl/internal/tensor"
	"github.com/trustddl/trustddl/internal/transport"
)

// Layer probes: each layer's public functions called alone, at the
// exact shapes one pass of the workload gives them. They cost nothing
// inside the program and show what a layer's call is worth before the
// waiting, scheduling and contention of a real pass are added.

// probeResult is one probed call: median wall time and mean
// allocations.
type probeResult struct {
	us     float64
	allocs float64
	calls  int
}

// probe calls f for at least budget (and at least three times) and
// reports the median call time and the mean allocations per call.
func probe(budget time.Duration, f func() error) (probeResult, error) {
	if err := f(); err != nil { // warm: pools, lazy initialisation
		return probeResult{}, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var us []float64
	for start := time.Now(); time.Since(start) < budget || len(us) < 3; {
		t0 := time.Now()
		if err := f(); err != nil {
			return probeResult{}, err
		}
		us = append(us, float64(time.Since(t0))/float64(time.Microsecond))
	}
	runtime.ReadMemStats(&m1)
	return probeResult{
		us:     median(us),
		allocs: float64(m1.Mallocs-m0.Mallocs) / float64(len(us)),
		calls:  len(us),
	}, nil
}

// numProbes is how many probes share a traced run's probe budget.
const numProbes = 15

// runProbes measures every layer probe at workload w's pass shapes.
func runProbes(w workload, in inputs, budget time.Duration) ([]metric, error) {
	each := budget / numProbes
	params := fixed.Default()
	rng := sharing.NewSeededSource(in.seed)
	dealer := sharing.NewDealer(sharing.NewSeededSource(in.seed+1), params)
	random := func(rows, cols int) protocol.Mat {
		m := tensor.MustNew[int64](rows, cols)
		for i := range m.Data {
			m.Data[i] = int64(rng.Uint64() >> 24) // a plausible fixed-point magnitude
		}
		return m
	}

	B := w.batch
	conv := nn.PaperConvShape()
	positions := conv.OutHeight() * conv.OutWidth()
	var out []metric
	add := func(name string, value float64, unit string, calls int) {
		out = append(out, metric{Name: name, Value: value, Unit: unit, N: calls})
	}
	timed := func(name string, f func() error) (probeResult, error) {
		r, err := probe(each, f)
		if err != nil {
			return r, fmt.Errorf("%s: %w", name, err)
		}
		add(name, r.us, "us", r.calls)
		return r, nil
	}

	// tensor: the three ring kernels that dominate a pass.
	x, wConv, convOut := random(B, mnist.NumPixels), random(conv.PatchSize(), nn.PaperOutChannels), tensor.MustNew[int64](B*positions, nn.PaperOutChannels)
	if _, err := timed("tensor.conv_us", func() error { return tensor.Conv2DBatchInto(conv, x, wConv, convOut) }); err != nil {
		return nil, err
	}
	act, wFC1, fc1Out := random(B, nn.PaperConvOut), random(nn.PaperConvOut, nn.PaperHidden), tensor.MustNew[int64](B, nn.PaperHidden)
	if _, err := timed("tensor.matmul_fc1_us", func() error { return act.MatMulInto(wFC1, fc1Out) }); err != nil {
		return nil, err
	}
	actT, dy, wGrad := random(nn.PaperConvOut, B), random(B, nn.PaperHidden), tensor.MustNew[int64](nn.PaperConvOut, nn.PaperHidden)
	if _, err := timed("tensor.matmul_wgrad_us", func() error { return actT.MatMulInto(dy, wGrad) }); err != nil {
		return nil, err
	}

	// sharing: dealing the pass's whole triple plan, sharing its input,
	// and the six-way reconstruction with its decision rule.
	orders, err := passOrders(w, in, dealer)
	if err != nil {
		return nil, err
	}
	deal, err := probe(each, func() error { _, err := dealer.DealBatch(orders); return err })
	if err != nil {
		return nil, fmt.Errorf("sharing.deal: %w", err)
	}
	add("sharing.deal_ms_per_pass", deal.us/1000, "ms", deal.calls)
	add("sharing.deal_allocs_per_pass", deal.allocs, "count", deal.calls)
	if _, err := timed("sharing.share_input_us", func() error { _, err := dealer.Share(x); return err }); err != nil {
		return nil, err
	}

	// The fc1 opening: every party opens [e] (B×980) and [f] (980×100)
	// together; this is the largest opening of a pass.
	eShares, err := dealer.Share(act)
	if err != nil {
		return nil, err
	}
	fShares, err := dealer.Share(wFC1)
	if err != nil {
		return nil, err
	}
	reconstruct := func(e, f [sharing.NumParties]sharing.Bundle) func() error {
		return func() error {
			for _, per := range [][sharing.NumParties]sharing.Bundle{e, f} {
				sets, err := sharing.CollectSets(per)
				if err != nil {
					return err
				}
				rec, err := sharing.ReconstructSix(sets)
				if err != nil {
					return err
				}
				if _, _, err := rec.DecideRows(); err != nil {
					return err
				}
			}
			return nil
		}
	}
	if _, err := timed("sharing.reconstruct_us", reconstruct(eShares, fShares)); err != nil {
		return nil, err
	}
	// One party's sets corrupted the way infer_byz_b4's liar does it:
	// the decision rule now has to out-vote a consistent deviation.
	eBad, fBad := eShares, fShares
	lied := byzantine.ConsistentLiar{}.CorruptPreCommit("", "", []sharing.Bundle{eShares[byzParty-1].Clone(), fShares[byzParty-1].Clone()})
	eBad[byzParty-1], fBad[byzParty-1] = lied[0], lied[1]
	if _, err := timed("sharing.reconstruct_corrupt_us", reconstruct(eBad, fBad)); err != nil {
		return nil, err
	}

	// commit: SHA-256 over one party's fc1 opening.
	opening := []sharing.Bundle{eShares[0], fShares[0]}
	var flat []protocol.Mat
	for _, b := range opening {
		flat = append(flat, b.Primary, b.Hat, b.Second)
	}
	hashed := 0
	for _, m := range flat {
		hashed += 8 * m.Size()
	}
	hash, err := timed("commit.hash_us", func() error { _ = commit.Matrices(flat...); return nil })
	if err != nil {
		return nil, err
	}
	add("commit.hash_mb_s", float64(hashed)/(1<<20)/(hash.us/1e6), "MB/s", hash.calls)

	// transport: the codec on that opening, then the framed payload
	// ping-ponged between two endpoints of each transport.
	var payload []byte
	if _, err := timed("transport.codec_us", func() error {
		payload = transport.EncodeBundles(opening...)
		_, err := transport.DecodeBundles(payload, len(opening))
		return err
	}); err != nil {
		return nil, err
	}
	tcp, err := transport.NewLoopbackTCPNetwork()
	if err != nil {
		return nil, err
	}
	for name, net := range map[string]transport.Network{"transport.chan_frame_us": transport.NewChanNetwork(), "transport.tcp_frame_us": tcp} {
		r, err := pingPong(net, payload, each)
		if cerr := net.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		add(name, r.us/2, "us", r.calls) // one frame, one way
	}

	// protocol: SecMatMul-BT at the fc1 shape and SecComp-BT at the
	// ReLU-after-conv shape, three parties over channels, triples dealt
	// beforehand.
	h, err := newHarness(params)
	if err != nil {
		return nil, err
	}
	defer h.close()
	mmTriple, err := dealer.MatMulTriple(B, nn.PaperConvOut, nn.PaperHidden)
	if err != nil {
		return nil, err
	}
	if _, err := timed("protocol.secmatmul_fc1_us", func() error {
		return h.all(func(i int, ctx *protocol.Ctx, session string) error {
			_, err := protocol.SecMatMulBT(ctx, session, eShares[i], fShares[i], mmTriple[i])
			return err
		})
	}); err != nil {
		return nil, err
	}
	zero, err := dealer.Share(tensor.MustNew[int64](B, nn.PaperConvOut))
	if err != nil {
		return nil, err
	}
	aux, err := dealer.AuxPositive(B, nn.PaperConvOut)
	if err != nil {
		return nil, err
	}
	hadTriple, err := dealer.HadamardTriple(B, nn.PaperConvOut)
	if err != nil {
		return nil, err
	}
	if _, err := timed("protocol.seccomp_us", func() error {
		return h.all(func(i int, ctx *protocol.Ctx, session string) error {
			_, err := protocol.SecCompBT(ctx, session, eShares[i], zero[i], aux[i], hadTriple[i])
			return err
		})
	}); err != nil {
		return nil, err
	}

	// nn: the softmax the owner evaluates on a pass's logits.
	softmax := nn.SoftmaxDelegate(params)
	logits := random(B, nn.PaperClasses)
	if _, err := timed("nn.softmax_delegate_us", func() error { _, err := softmax(logits); return err }); err != nil {
		return nil, err
	}

	// serve: one request through the gateway's handler with the secure
	// pass replaced by an instant stub and the batching delay off, so
	// what is left is JSON decoding, admission, dispatch and the reply.
	gw := serve.New(instant{}, serve.Config{MaxBatch: w.batch, MaxDelay: -1})
	defer gw.Close()
	handler := gw.Handler()
	body, err := json.Marshal(serve.Request{Pixels: in.images[0].Pixels[:]})
	if err != nil {
		return nil, err
	}
	if _, err := timed("serve.http_codec_us", func() error {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/infer", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			return statusError(rec.Code)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// passOrders is the dealer's work list for one pass of w: the triple
// plan the network itself reports for the batch size, a training step's
// for the training workload and a forward pass's otherwise.
func passOrders(w workload, in inputs, dealer *sharing.Dealer) ([]sharing.BatchOrder, error) {
	var bundles []sharing.Bundle
	for _, m := range []nn.Mat64{in.weights.Conv, in.weights.FC1, in.weights.FC2} {
		shares, err := dealer.ShareFloats(m)
		if err != nil {
			return nil, err
		}
		bundles = append(bundles, shares[0])
	}
	net, err := nn.PaperArch().BuildSecure(bundles, transport.ModelOwner)
	if err != nil {
		return nil, err
	}
	plan, err := net.LogitsPlan("probe", w.batch, mnist.NumPixels)
	if w.kind == kindTrain {
		plan, err = net.TrainPlan("probe", w.batch, mnist.NumPixels)
	}
	if err != nil {
		return nil, err
	}
	orders := make([]sharing.BatchOrder, len(plan))
	for i, r := range plan {
		switch r.Kind {
		case protocol.ReqHadamard:
			orders[i] = sharing.BatchOrder{Kind: sharing.TripleHadamard, M: r.M, N: r.N}
		case protocol.ReqAux:
			orders[i] = sharing.BatchOrder{Aux: true, M: r.M, N: r.N}
		case protocol.ReqMatMul:
			orders[i] = sharing.BatchOrder{Kind: sharing.TripleMatMul, M: r.M, N: r.N, P: r.P}
		default:
			return nil, fmt.Errorf("triple plan: unknown request kind %d", r.Kind)
		}
	}
	return orders, nil
}

// pingPong times a round trip of payload between actors 1 and 2.
func pingPong(net transport.Network, payload []byte, budget time.Duration) (probeResult, error) {
	a, err := net.Endpoint(1)
	if err != nil {
		return probeResult{}, err
	}
	b, err := net.Endpoint(2)
	if err != nil {
		return probeResult{}, err
	}
	const wait = 5 * time.Second
	echoDone := make(chan error, 1)
	go func() {
		for {
			msg, err := b.Recv(0)
			if err == nil {
				err = b.Send(transport.Message{To: 1, Session: msg.Session, Step: "pong", Payload: msg.Payload})
				msg.Release()
			}
			if err != nil {
				echoDone <- err
				return
			}
		}
	}()
	r, err := probe(budget, func() error {
		if err := a.Send(transport.Message{To: 2, Session: "probe", Step: "ping", Payload: payload}); err != nil {
			return err
		}
		msg, err := a.Recv(wait)
		if err != nil {
			return err
		}
		if len(msg.Payload) != len(payload) {
			return fmt.Errorf("echo carried %d bytes, sent %d", len(msg.Payload), len(payload))
		}
		msg.Release()
		return nil
	})
	// Closing the echo side ends its goroutine; any other error is real.
	_ = b.Close()
	if eerr := <-echoDone; err == nil && !errors.Is(eerr, transport.ErrClosed) {
		err = fmt.Errorf("echo: %w", eerr)
	}
	return r, err
}

// harness is three computing-party contexts over one channel network:
// what a protocol call needs and nothing else of the deployment.
type harness struct {
	net  *transport.ChanNetwork
	ctxs [sharing.NumParties]*protocol.Ctx
	call int
}

func newHarness(params fixed.Params) (*harness, error) {
	h := &harness{net: transport.NewChanNetwork()}
	for i := 1; i <= sharing.NumParties; i++ {
		ep, err := h.net.Endpoint(i)
		if err != nil {
			h.close()
			return nil, err
		}
		ctx, err := protocol.NewCtx(party.NewRouter(ep, 0), i, params, true)
		if err != nil {
			h.close()
			return nil, err
		}
		h.ctxs[i-1] = ctx
	}
	return h, nil
}

func (h *harness) close() { _ = h.net.Close() }

// all runs fn on the three parties at once under a fresh session name
// and returns when all have returned.
func (h *harness) all(fn func(i int, ctx *protocol.Ctx, session string) error) error {
	h.call++
	session := fmt.Sprintf("probe/%d", h.call)
	var wg sync.WaitGroup
	var errs [sharing.NumParties]error
	for i := range h.ctxs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i, h.ctxs[i], session)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// instant is a serve.Inferencer that answers at once.
type instant struct{}

func (instant) InferBatch(_ context.Context, images []mnist.Image) ([]int, error) {
	return make([]int, len(images)), nil
}
