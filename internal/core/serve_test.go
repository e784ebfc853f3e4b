package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/trustddl/trustddl/internal/byzantine"
	"github.com/trustddl/trustddl/internal/fixed"

	"github.com/trustddl/trustddl/internal/mnist"
	"github.com/trustddl/trustddl/internal/nn"
	"github.com/trustddl/trustddl/internal/party"
	"github.com/trustddl/trustddl/internal/protocol"
	"github.com/trustddl/trustddl/internal/sharing"
	"github.com/trustddl/trustddl/internal/transport"
)

// startServedParties launches the three computing parties as ServeParty
// loops over the given network, as cmd/trustddl-party would in separate
// processes.
func startServedParties(t *testing.T, netw transport.Network, commitment bool) {
	t.Helper()
	// Generous timers: the race detector slows secure training well
	// past the 2 s default, and honest runs never wait on them.
	startServedPartiesTimed(t, netw, commitment, 60*time.Second)
}

// startServedPartiesTimed is startServedParties with the given receive
// timer. It returns kill, which closes party p's endpoint as a crash
// would and returns what ended p's loop; the parties not killed stop at
// cleanup, which reports what ended theirs.
func startServedPartiesTimed(t *testing.T, netw transport.Network, commitment bool, timeout time.Duration) (kill func(p int) error) {
	t.Helper()
	var (
		eps  [sharing.NumParties]transport.Endpoint
		done [sharing.NumParties]chan error
	)
	for i := 1; i <= sharing.NumParties; i++ {
		ep, err := netw.Endpoint(i)
		if err != nil {
			t.Fatal(err)
		}
		ctx, err := protocol.NewCtx(party.NewRouter(ep, timeout), i, fixed.Default(), commitment)
		if err != nil {
			t.Fatal(err)
		}
		eps[i-1], done[i-1] = ep, make(chan error, 1)
		go func() { done[i-1] <- ServeParty(ctx, nn.OwnerSource{Ctx: ctx}, ServeOptions{}) }()
	}
	var killed [sharing.NumParties]bool
	wait := func(p int) error {
		select {
		case err := <-done[p-1]:
			return err
		case <-time.After(5 * time.Second):
			return fmt.Errorf("served party %d did not stop", p)
		}
	}
	t.Cleanup(func() {
		for p := 1; p <= sharing.NumParties; p++ {
			if !killed[p-1] {
				// Each served party stops on its shutdown command; any
				// endpoint may deliver it.
				_ = eps[p-1].Send(transport.Message{To: p, Step: StepShutdown})
			}
		}
		for p := 1; p <= sharing.NumParties; p++ {
			if killed[p-1] {
				continue
			}
			if err := wait(p); err != nil {
				t.Errorf("served party: %v", err)
			}
		}
	})
	return func(p int) error {
		killed[p-1] = true
		_ = eps[p-1].Close()
		return wait(p)
	}
}

func TestServedPartiesTrainAndInfer(t *testing.T) {
	netw := transport.NewChanNetwork()
	startServedParties(t, netw, true)
	c, err := New(Config{
		Mode:          Malicious,
		Seed:          71,
		Net:           netw,
		Timeout:       60 * time.Second,
		RemoteParties: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := c.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
		_ = netw.Close()
	})

	w := paperWeights(t)
	run, err := c.NewRun(w)
	if err != nil {
		t.Fatal(err)
	}
	imgs := mnist.Synthetic(73, 3).Images

	// Inference must match the plaintext model.
	plain, err := nn.NewPlainPaperNet(w)
	if err != nil {
		t.Fatal(err)
	}
	got, err := run.Infer(imgs[0])
	if err != nil {
		t.Fatal(err)
	}
	x, _, err := batchMatrices(imgs[:1])
	if err != nil {
		t.Fatal(err)
	}
	want, err := plain.Predict(x)
	if err != nil {
		t.Fatal(err)
	}
	if got != want[0] {
		t.Fatalf("served inference %d, plaintext %d", got, want[0])
	}

	// A training step must complete (ack'd) and weights be recoverable.
	if err := run.TrainBatch(imgs[:2], 0.05); err != nil {
		t.Fatal(err)
	}
	trained, err := run.Weights()
	if err != nil {
		t.Fatal(err)
	}
	if trained.FC1.Equal(w.FC1) {
		t.Fatal("training step over served parties did not change the weights")
	}
}

// interceptedActor is a channel network on which one actor sends
// through the given interceptor.
type interceptedActor struct {
	*transport.ChanNetwork
	actor int
	fn    transport.SendInterceptor
}

func (n interceptedActor) Endpoint(actor int) (transport.Endpoint, error) {
	ep, err := n.ChanNetwork.Endpoint(actor)
	if err != nil || actor != n.actor {
		return ep, err
	}
	return transport.Intercepted(ep, n.fn), nil
}

// lateCommand makes the data owner, while late is on, deliver an
// inference pass's input share to party to after its peers have begun
// the pass.
func lateCommand(late *byzantine.Gate, to int, delay time.Duration) transport.SendInterceptor {
	return func(msg transport.Message) *transport.Message {
		if late.On() && msg.To == to && msg.Step == "x" && strings.HasPrefix(msg.Session, "infer/") {
			msg.DelayBy = delay
		}
		return &msg
	}
}

// TestServedPartyKeepsEarlyPeerTraffic: party 2 receives a pass's
// input share 300 ms after its peers, which have begun the pass and
// sent it their first round by then. Party 2 keeps that traffic for the
// pass instead of dropping it, so the pass answers without waiting out
// a receive timer, with the label of an undelayed pass, and nobody is
// charged with anything.
func TestServedPartyKeepsEarlyPeerTraffic(t *testing.T) {
	const timeout = 5 * time.Second
	var late byzantine.Gate
	netw := interceptedActor{ChanNetwork: transport.NewChanNetwork(), actor: transport.DataOwner, fn: lateCommand(&late, transport.Party2, 300*time.Millisecond)}
	t.Cleanup(func() { _ = netw.Close() })
	startServedPartiesTimed(t, netw, true, timeout)
	c := newTestCluster(t, Config{Mode: Malicious, Seed: 5, Net: netw, Timeout: timeout, RemoteParties: true})
	run, err := c.NewRun(paperWeights(t))
	if err != nil {
		t.Fatal(err)
	}
	img := mnist.Synthetic(5, 1).Images[0]
	want, err := run.Infer(img)
	if err != nil {
		t.Fatal(err)
	}

	late.Set(true)
	start := time.Now()
	got, err := run.Infer(img)
	took := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("label %d with a late input share, %d without", got, want)
	}
	limit := time.Second
	if raceEnabled {
		limit = 3 * time.Second
	}
	if took > limit {
		t.Errorf("the pass took %v with a 300 ms late input share, want under %v", took, limit)
	}
	if ev := c.Suspicions().Evidence; len(ev) != 0 {
		t.Errorf("evidence recorded against honest parties: %+v", ev)
	}
}

// TestStalledPartySkipsAbandonedPasses: party 1 stalls every send for
// longer than the receive timer while passes with a 200 ms deadline
// fail around it, then catches up on their commands. Each command
// carries its pass's deadline, so party 1 drops the ones already past
// it instead of running them against peers that moved on (waiting out
// its receive timers, flagging both peers and ending its loop on "no
// unflagged reconstruction pair"). The next pass answers without
// waiting out a receive timer, and party 1's loop is still serving
// when it is killed. Hosted parties and parties served next to a
// RemoteParties cluster follow the one rule.
func TestStalledPartySkipsAbandonedPasses(t *testing.T) {
	for _, remote := range []bool{false, true} {
		name := "hosted"
		if remote {
			name = "remote"
		}
		t.Run(name, func(t *testing.T) { testStalledPartySkipsAbandonedPasses(t, remote) })
	}
}

func testStalledPartySkipsAbandonedPasses(t *testing.T, remote bool) {
	const timeout = 2 * time.Second
	var stall byzantine.Gate
	stallP1 := byzantine.StallWhile(&stall, "")
	cfg := Config{Mode: Malicious, Seed: 17, Timeout: timeout}
	var kill func(p int) error
	if remote {
		netw := interceptedActor{ChanNetwork: transport.NewChanNetwork(), actor: transport.Party1, fn: stallP1}
		t.Cleanup(func() { _ = netw.Close() })
		kill = startServedPartiesTimed(t, netw, true, timeout)
		cfg.Net, cfg.RemoteParties = netw, true
	} else {
		cfg.Interceptors = map[int]transport.SendInterceptor{transport.Party1: stallP1}
	}
	c := newTestCluster(t, cfg)
	if !remote {
		kill = c.Kill
	}
	run, err := c.NewRun(paperWeights(t))
	if err != nil {
		t.Fatal(err)
	}
	img := mnist.Synthetic(17, 1).Images[0]
	want, err := run.Infer(img)
	if err != nil {
		t.Fatal(err)
	}

	// The stall outlasts the receive timer, so a party that waited on
	// it instead of on the pass deadline would flag the stalled peer.
	stall.Set(true)
	defer stall.Set(false) // a failed check must not leave party 1 stalled for the cleanup
	for begin := time.Now(); time.Since(begin) < timeout*3/2; {
		ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		_, err := run.InferBatch(ctx, []mnist.Image{img})
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("pass with party 1 stalled returned %v, want a deadline error", err)
		}
	}
	stall.Set(false)

	// One receive timer is what a party that ran the abandoned passes
	// would spend on the first of them alone.
	limit := timeout
	if raceEnabled {
		limit = 3 * timeout
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	start := time.Now()
	got, err := run.InferBatch(ctx, []mnist.Image{img})
	took := time.Since(start)
	if err != nil {
		t.Fatalf("pass after the stall: %v", err)
	}
	if got[0] != want {
		t.Fatalf("label %d after the stall, %d before", got[0], want)
	}
	if took > limit {
		t.Errorf("the pass after the stall took %v, want under %v", took, limit)
	}
	if err := kill(transport.Party1); err != nil {
		t.Errorf("party 1 stopped on a fault: %v", err)
	}
}

func TestDecodeLR(t *testing.T) {
	tests := []struct {
		give    string
		want    float64
		wantErr bool
	}{
		{give: sessionWithLR("train/7", 0.05), want: 0.05},
		{give: sessionWithLR("train/8", 1), want: 1},
		{give: "train/9", wantErr: true},
		{give: "train/10?lr=x", wantErr: true},
		{give: "train/11?lr=0", wantErr: true},
	}
	for _, tt := range tests {
		got, err := decodeLR(tt.give)
		if gotErr := err != nil; gotErr != tt.wantErr {
			t.Errorf("decodeLR(%q) err=%v wantErr=%v", tt.give, err, tt.wantErr)
			continue
		}
		if !tt.wantErr && got != tt.want {
			t.Errorf("decodeLR(%q) = %v, want %v", tt.give, got, tt.want)
		}
	}
}

func TestServeShutdownSenderValidated(t *testing.T) {
	netw := transport.NewChanNetwork()
	defer netw.Close()
	ep, err := netw.Endpoint(transport.Party1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := protocol.NewCtx(party.NewRouter(ep, 5*time.Second), 1, fixed.Default(), true)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- ServeParty(ctx, nn.OwnerSource{Ctx: ctx}, ServeOptions{}) }()

	// A peer computing party claiming shutdown authority is ignored: the
	// transport stamps From with the sending endpoint's identity, so this
	// models an authenticated P2 overreaching, not a spoofed owner.
	p2, err := netw.Endpoint(transport.Party2)
	if err != nil {
		t.Fatal(err)
	}
	if err := p2.Send(transport.Message{To: transport.Party1, Step: StepShutdown}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		t.Fatalf("server stopped on a peer's shutdown command (err=%v)", err)
	case <-time.After(200 * time.Millisecond):
	}

	// The data owner's shutdown is honoured.
	do, err := netw.Endpoint(transport.DataOwner)
	if err != nil {
		t.Fatal(err)
	}
	if err := do.Send(transport.Message{To: transport.Party1, Step: StepShutdown}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("owner shutdown returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server ignored the owner's shutdown command")
	}
}
