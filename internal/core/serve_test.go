package core

import (
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

func startServedPartiesTimed(t *testing.T, netw transport.Network, commitment bool, timeout time.Duration) {
	t.Helper()
	done := make(chan error, sharing.NumParties)
	stops := make([]*protocol.Ctx, 0, sharing.NumParties)
	for i := 1; i <= sharing.NumParties; i++ {
		ep, err := netw.Endpoint(i)
		if err != nil {
			t.Fatal(err)
		}
		ctx, err := protocol.NewCtx(party.NewRouter(ep, timeout), i, fixed.Default(), commitment)
		if err != nil {
			t.Fatal(err)
		}
		stops = append(stops, ctx)
		go func(ctx *protocol.Ctx) {
			done <- ServeParty(ctx, nn.OwnerSource{Ctx: ctx}, ServeOptions{})
		}(ctx)
	}
	t.Cleanup(func() {
		for _, ctx := range stops {
			// Each served party stops on its shutdown command; any
			// endpoint may deliver it.
			_ = ctx.Router.Send(ctx.Index, "", StepShutdown, nil)
		}
		for range stops {
			select {
			case err := <-done:
				if err != nil {
					t.Errorf("served party: %v", err)
				}
			case <-time.After(5 * time.Second):
				t.Error("served party did not stop")
				return
			}
		}
	})
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

// lateCommand is a channel network whose data owner, while late is on,
// delivers an inference pass's input share to one party after its
// peers have begun the pass.
type lateCommand struct {
	*transport.ChanNetwork
	late  *byzantine.Gate
	to    int
	delay time.Duration
}

func (n lateCommand) Endpoint(actor int) (transport.Endpoint, error) {
	ep, err := n.ChanNetwork.Endpoint(actor)
	if err != nil || actor != transport.DataOwner {
		return ep, err
	}
	return transport.Intercepted(ep, func(msg transport.Message) *transport.Message {
		if n.late.On() && msg.To == n.to && msg.Step == "x" && strings.HasPrefix(msg.Session, "infer/") {
			msg.DelayBy = n.delay
		}
		return &msg
	}), nil
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
	netw := lateCommand{ChanNetwork: transport.NewChanNetwork(), late: &late, to: transport.Party2, delay: 300 * time.Millisecond}
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
