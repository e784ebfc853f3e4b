package protocol

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/trustddl/trustddl/internal/sharing"
	"github.com/trustddl/trustddl/internal/tensor"
	"github.com/trustddl/trustddl/internal/transport"
)

// ownerEnv wires three party contexts plus a running owner service.
type ownerEnv struct {
	*partyEnv

	svc     *OwnerService
	ownerEP transport.Endpoint
	done    chan error
}

func newOwnerEnv(t *testing.T) *ownerEnv { return newOwnerEnvTuned(t, nil) }

// newOwnerEnvTuned lets a test adjust service knobs (timeouts, TTLs)
// before the Run loop starts, so the fields need no synchronization.
func newOwnerEnvTuned(t *testing.T, tune func(*OwnerService)) *ownerEnv {
	t.Helper()
	env := newPartyEnv(t, true)
	ep, err := env.net.Endpoint(transport.ModelOwner)
	if err != nil {
		t.Fatal(err)
	}
	svc := NewOwnerService(ep, env.dealer)
	svc.GatherTimeout = 300 * time.Millisecond
	if tune != nil {
		tune(svc)
	}
	oe := &ownerEnv{partyEnv: env, svc: svc, ownerEP: ep, done: make(chan error, 1)}
	go func() { oe.done <- svc.Run() }()
	t.Cleanup(func() {
		shutter, err := env.net.Endpoint(transport.DataOwner)
		if err == nil {
			_ = Shutdown(shutter, transport.ModelOwner)
		}
		select {
		case err := <-oe.done:
			if err != nil {
				t.Errorf("owner service: %v", err)
			}
		case <-time.After(2 * time.Second):
			t.Error("owner service did not stop")
		}
	})
	return oe
}

func TestOwnerDealsTriples(t *testing.T) {
	env := newOwnerEnv(t)
	x, _ := tensor.FromSlice(2, 2, []float64{1, 2, 3, 4})
	y, _ := tensor.FromSlice(2, 2, []float64{5, 6, 7, 8})
	bx, by := shareFloats(t, env.partyEnv, x), shareFloats(t, env.partyEnv, y)
	outs := runAll(t, env.partyEnv, func(ctx *Ctx) (sharing.Bundle, error) {
		triple, err := RequestTriple(ctx, TripleRequest{Kind: ReqHadamard, Session: "op7", M: 2, N: 2})
		if err != nil {
			return sharing.Bundle{}, err
		}
		return SecMulBT(ctx, "op7", bx[ctx.Index-1], by[ctx.Index-1], triple)
	})
	want, _ := x.Hadamard(y)
	floatsClose(t, env.params, decideBundles(t, outs, nil), want, 8)
	if st := env.svc.Stats(); st.TriplesDealt != 1 {
		t.Fatalf("triples dealt = %d, want 1 (one per shared session)", st.TriplesDealt)
	}
}

func TestOwnerDealsMatMulTripleAndAux(t *testing.T) {
	env := newOwnerEnv(t)
	x, _ := tensor.FromSlice(1, 2, []float64{3, -1})
	y, _ := tensor.FromSlice(2, 1, []float64{2, 4})
	bx, by := shareFloats(t, env.partyEnv, x), shareFloats(t, env.partyEnv, y)
	outs := runAll(t, env.partyEnv, func(ctx *Ctx) (sharing.Bundle, error) {
		triple, err := RequestTriple(ctx, TripleRequest{Kind: ReqMatMul, Session: "mm9", M: 1, N: 2, P: 1})
		if err != nil {
			return sharing.Bundle{}, err
		}
		return SecMatMulBT(ctx, "mm9", bx[ctx.Index-1], by[ctx.Index-1], triple)
	})
	want, _ := x.MatMul(y)
	floatsClose(t, env.params, decideBundles(t, outs, nil), want, 16)

	// Comparison item path.
	signs := runAll(t, env.partyEnv, func(ctx *Ctx) (Mat, error) {
		triple, err := RequestTriple(ctx, TripleRequest{Kind: ReqAux, Session: "cmp9", M: 1, N: 2})
		if err != nil {
			return Mat{}, err
		}
		return SecCompBT(ctx, "cmp9", bx[ctx.Index-1], bx[ctx.Index-1], triple.B, triple)
	})
	for p := 0; p < sharing.NumParties; p++ {
		for i := range signs[p].Data {
			if signs[p].Data[i] != 0 {
				t.Fatalf("x vs x sign element %d = %d, want 0", i, signs[p].Data[i])
			}
		}
	}
}

func TestOwnerDelegatedUnary(t *testing.T) {
	env := newOwnerEnv(t)
	// Register a toy delegated function: negate every element.
	env.svc.RegisterUnary("neg", func(m Mat) (Mat, error) {
		return m.Neg(), nil
	})
	x, _ := tensor.FromSlice(1, 3, []float64{1, -2, 3})
	bx := shareFloats(t, env.partyEnv, x)
	outs := runAll(t, env.partyEnv, func(ctx *Ctx) (sharing.Bundle, error) {
		return CallOwner(ctx, transport.ModelOwner, "neg", "neg1", bx[ctx.Index-1])
	})
	want := x.Neg()
	floatsClose(t, env.params, decideBundles(t, outs, nil), want, 2)
	if st := env.svc.Stats(); st.Calls != 1 {
		t.Fatalf("delegated calls = %d, want 1", st.Calls)
	}
}

func TestOwnerSink(t *testing.T) {
	env := newOwnerEnv(t)
	got := make(chan Mat, 1)
	env.svc.RegisterSink("result", func(_ string, value Mat, _ sharing.Decision) {
		got <- value
	})
	x, _ := tensor.FromSlice(1, 2, []float64{9, -9})
	bx := shareFloats(t, env.partyEnv, x)
	runAll(t, env.partyEnv, func(ctx *Ctx) (struct{}, error) {
		return struct{}{}, SendToSink(ctx, transport.ModelOwner, "result", "r1", bx[ctx.Index-1])
	})
	select {
	case v := <-got:
		floatsClose(t, env.params, v, x, 2)
	case <-time.After(2 * time.Second):
		t.Fatal("sink never fired")
	}
}

func TestOwnerGatherToleratesSilentParty(t *testing.T) {
	// Only P1 and P2 contribute; the owner must proceed after the
	// gather timeout with P3 flagged (guaranteed output delivery).
	env := newOwnerEnv(t)
	got := make(chan Mat, 1)
	env.svc.RegisterSink("partial", func(_ string, value Mat, _ sharing.Decision) {
		got <- value
	})
	x, _ := tensor.FromSlice(1, 2, []float64{4, 5})
	bx := shareFloats(t, env.partyEnv, x)
	for i := 0; i < 2; i++ {
		if err := SendToSink(env.ctxs[i], transport.ModelOwner, "partial", "p1", bx[i]); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case v := <-got:
		floatsClose(t, env.params, v, x, 2)
	case <-time.After(3 * time.Second):
		t.Fatal("owner never completed the partial gather")
	}
	if st := env.svc.Stats(); st.Suspicions[3] == 0 {
		t.Fatal("owner did not suspect the silent P3")
	}
}

func TestOwnerSuspectsCorruptingParty(t *testing.T) {
	env := newOwnerEnv(t)
	got := make(chan Mat, 1)
	env.svc.RegisterSink("chk", func(_ string, value Mat, _ sharing.Decision) {
		got <- value
	})
	x, _ := tensor.FromSlice(1, 2, []float64{6, 7})
	bx := shareFloats(t, env.partyEnv, x)
	const byz = 2
	bad := bx[byz-1].Clone()
	for i := range bad.Primary.Data {
		bad.Primary.Data[i] += 1 << 40
	}
	bx[byz-1] = bad
	runAll(t, env.partyEnv, func(ctx *Ctx) (struct{}, error) {
		return struct{}{}, SendToSink(ctx, transport.ModelOwner, "chk", "c1", bx[ctx.Index-1])
	})
	select {
	case v := <-got:
		floatsClose(t, env.params, v, x, 2)
	case <-time.After(2 * time.Second):
		t.Fatal("sink never fired")
	}
	if st := env.svc.Stats(); st.Suspicions[byz] == 0 {
		t.Fatalf("owner did not suspect the corrupting P%d (stats %+v)", byz, env.svc.Stats())
	}
}

func TestOwnerIgnoresGarbage(t *testing.T) {
	env := newOwnerEnv(t)
	// Garbage requests from a party must not kill the service.
	ctx := env.ctxs[0]
	if err := ctx.Router.Send(transport.ModelOwner, "g", "triple-had", []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := ctx.Router.Send(transport.ModelOwner, "g", "nonsense-step", nil); err != nil {
		t.Fatal(err)
	}
	if err := ctx.Router.Send(transport.ModelOwner, "g", "fn/softmax", []byte{0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	// A well-formed deal in the retired per-kind format, a 1×2·2×1
	// product's dims as LE u32s under "triple-mat": the owner has no
	// second deal path, so it deals nothing and answers nothing.
	oldMat := []byte{1, 0, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0}
	if err := ctx.Router.Send(transport.ModelOwner, "old1", "triple-mat", oldMat); err != nil {
		t.Fatal(err)
	}
	// The service must still answer a well-formed request afterwards.
	outs := runAll(t, env.partyEnv, func(ctx *Ctx) (sharing.TripleBundle, error) {
		return RequestTriple(ctx, TripleRequest{Kind: ReqHadamard, Session: "ok1", M: 1, N: 1})
	})
	if outs[0].A.Primary.Size() != 1 {
		t.Fatal("triple after garbage has wrong shape")
	}
	if st := env.svc.Stats(); st.TriplesDealt != 1 {
		t.Fatalf("triples dealt = %d, want 1 (the batch's only)", st.TriplesDealt)
	}
	// The owner serves P1's messages in order, so a reply to any of
	// them would have arrived before the batch's.
	for {
		msg, err := ctx.Router.Next(10 * time.Millisecond)
		if err != nil {
			break
		}
		t.Errorf("owner answered %q/%q", msg.Session, msg.Step)
	}
}

// TestOwnerBatchDealMatchesIndividual has P1 fetch a triple inside a
// two-item plan segment while P2 and P3 request the same key alone,
// each as a batch of one; the three shares must belong to one
// consistent triple (exercised by opening a SecMulBT product built
// from them).
func TestOwnerBatchDealMatchesIndividual(t *testing.T) {
	env := newOwnerEnv(t)
	x, _ := tensor.FromSlice(2, 2, []float64{1.5, -2, 0.25, 3})
	y, _ := tensor.FromSlice(2, 2, []float64{2, 4, -8, 0.5})
	bx, by := shareFloats(t, env.partyEnv, x), shareFloats(t, env.partyEnv, y)
	req := TripleRequest{Kind: ReqHadamard, Session: "bi1", M: 2, N: 2}
	outs := runAll(t, env.partyEnv, func(ctx *Ctx) (sharing.Bundle, error) {
		var (
			triple sharing.TripleBundle
			err    error
		)
		if ctx.Index == 1 {
			segment := []TripleRequest{req, {Kind: ReqAux, Session: "bi1/next", M: 1, N: 1}}
			if err := sendBatch(ctx, "bi1#pf0", segment); err != nil {
				return sharing.Bundle{}, err
			}
			msg, items, err := recvBatch(ctx, "bi1#pf0", len(segment))
			if err != nil {
				return sharing.Bundle{}, err
			}
			triple, err = decodeTriple(items[0], req, env.dealer.Keys(ctx.Index))
			msg.Release()
		} else {
			triple, err = RequestTriple(ctx, req)
		}
		if err != nil {
			return sharing.Bundle{}, err
		}
		return SecMulBT(ctx, "bi1", bx[ctx.Index-1], by[ctx.Index-1], triple)
	})
	want, _ := x.Hadamard(y)
	floatsClose(t, env.params, decideBundles(t, outs, nil), want, 8)
	if st := env.svc.Stats(); st.TriplesDealt != 2 {
		t.Fatalf("triples dealt = %d, want 2 — a segment's item and a batch of one for the same key must share the entry", st.TriplesDealt)
	}
}

// TestOwnerIgnoresMalformedBatch throws Byzantine batch payloads at
// the owner — garbage bytes, zero and overflowing dims, an unknown
// kind — and checks the service neither crashes nor stops serving
// well-formed requests.
func TestOwnerIgnoresMalformedBatch(t *testing.T) {
	env := newOwnerEnv(t)
	ctx := env.ctxs[0]
	le := func(v uint32) []byte { return []byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)} }
	item := func(kind byte, dims ...uint32) []byte {
		buf := append(le(1), kind, 1, 0, 'x') // count=1, kind, session "x"
		for _, d := range dims {
			buf = append(buf, le(d)...)
		}
		return buf
	}
	poison := [][]byte{
		nil,                         // empty
		{0xff, 0xee},                // truncated header
		le(1 << 20),                 // absurd item count, no body
		item(1, 0, 7),               // zero dim
		item(1, 1<<25, 7),           // dim past the 1<<24 cap
		item(9, 2, 2),               // unknown kind
		append(item(1, 2, 2), 0xAB), // trailing byte
		item(2, 2, 2),               // matmul kind with hadamard arity
	}
	for i, p := range poison {
		if err := ctx.Router.Send(transport.ModelOwner, fmt.Sprintf("byz%d", i), stepTripleBatch, p); err != nil {
			t.Fatal(err)
		}
	}
	// All honest parties must still be served, via both wire paths.
	outs := runAll(t, env.partyEnv, func(ctx *Ctx) (sharing.TripleBundle, error) {
		reqs := []TripleRequest{{Kind: ReqMatMul, Session: "mb-ok", M: 1, N: 2, P: 3}}
		payload, err := EncodeTripleBatch(reqs)
		if err != nil {
			return sharing.TripleBundle{}, err
		}
		if err := ctx.Router.Send(transport.ModelOwner, "mb-ok#env", stepTripleBatch, payload); err != nil {
			return sharing.TripleBundle{}, err
		}
		msg, err := ctx.Router.Expect(transport.ModelOwner, "mb-ok#env", stepTripleBatch+respSuffix)
		if err != nil {
			return sharing.TripleBundle{}, err
		}
		items, err := decodeBatchPayloads(msg.Payload)
		if err != nil {
			return sharing.TripleBundle{}, err
		}
		return decodeTriple(items[0], reqs[0], env.dealer.Keys(ctx.Index))
	})
	for p := 0; p < sharing.NumParties; p++ {
		if outs[p].C.Primary.Rows != 1 || outs[p].C.Primary.Cols != 3 {
			t.Fatalf("party %d triple after poison has shape %dx%d, want 1x3",
				p+1, outs[p].C.Primary.Rows, outs[p].C.Primary.Cols)
		}
	}
	if st := env.svc.Stats(); st.TriplesDealt != 1 {
		t.Fatalf("triples dealt = %d, want 1 — poisoned requests must not mint entries", st.TriplesDealt)
	}
}

// TestOwnerExpiresStaleTriples checks the TTL reaper: an entry only
// one party ever collects must leave the owner's map instead of
// leaking, and a later request for the same key re-deals.
func TestOwnerExpiresStaleTriples(t *testing.T) {
	env := newOwnerEnvTuned(t, func(svc *OwnerService) {
		svc.GatherTimeout = 100 * time.Millisecond
		svc.TripleTTL = 50 * time.Millisecond
	})
	if _, err := RequestTriple(env.ctxs[0], TripleRequest{Kind: ReqHadamard, Session: "ttl1", M: 1, N: 1}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		env.svc.mu.Lock()
		n := len(env.svc.triples)
		env.svc.mu.Unlock()
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stale triple never expired (%d entries left)", n)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The key is free again: a fresh request re-deals.
	if _, err := RequestTriple(env.ctxs[0], TripleRequest{Kind: ReqHadamard, Session: "ttl1", M: 1, N: 1}); err != nil {
		t.Fatal(err)
	}
	if st := env.svc.Stats(); st.TriplesDealt != 2 {
		t.Fatalf("triples dealt = %d, want 2 (expired entry must be re-dealt)", st.TriplesDealt)
	}
}

// TestOwnerRegisterDuringTraffic registers functions and sinks while
// delegated calls are in flight; with -race this pins down the fns /
// sinks map guards.
func TestOwnerRegisterDuringTraffic(t *testing.T) {
	env := newOwnerEnv(t)
	env.svc.RegisterUnary("id", func(m Mat) (Mat, error) { return m, nil })
	x, _ := tensor.FromSlice(1, 2, []float64{1, 2})
	bx := shareFloats(t, env.partyEnv, x)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			env.svc.RegisterUnary(fmt.Sprintf("fn%d", i), func(m Mat) (Mat, error) { return m, nil })
			env.svc.RegisterSink(fmt.Sprintf("sink%d", i), func(string, Mat, sharing.Decision) {})
			time.Sleep(time.Millisecond)
		}
	}()
	for round := 0; round < 3; round++ {
		session := fmt.Sprintf("rr%d", round)
		outs := runAll(t, env.partyEnv, func(ctx *Ctx) (sharing.Bundle, error) {
			return CallOwner(ctx, transport.ModelOwner, "id", session, bx[ctx.Index-1])
		})
		floatsClose(t, env.params, decideBundles(t, outs, nil), x, 2)
	}
	close(stop)
	wg.Wait()
}

// TestOwnerFnGatherToleratesSilentParty exercises the gather-expiry
// path for delegated functions (the sink variant is covered above):
// with P3 silent, the owner must evaluate from the two received
// bundles after the timeout, answer the contributors, and suspect P3.
func TestOwnerFnGatherToleratesSilentParty(t *testing.T) {
	env := newOwnerEnvTuned(t, func(svc *OwnerService) {
		svc.GatherTimeout = 100 * time.Millisecond
	})
	env.svc.RegisterUnary("echo", func(m Mat) (Mat, error) { return m, nil })
	x, _ := tensor.FromSlice(1, 2, []float64{4, 5})
	bx := shareFloats(t, env.partyEnv, x)
	var (
		wg   sync.WaitGroup
		outs [2]sharing.Bundle
		errs [2]error
	)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i], errs[i] = CallOwner(env.ctxs[i], transport.ModelOwner, "echo", "fx1", bx[i])
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("party %d delegated call failed despite guaranteed output delivery: %v", i+1, err)
		}
	}
	if st := env.svc.Stats(); st.Suspicions[3] == 0 {
		t.Fatalf("owner did not suspect the silent P3 (stats %+v)", st)
	}
}
