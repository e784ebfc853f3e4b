package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/trustddl/trustddl/internal/byzantine"
	"github.com/trustddl/trustddl/internal/core"
	"github.com/trustddl/trustddl/internal/mnist"
	"github.com/trustddl/trustddl/internal/nn"
	"github.com/trustddl/trustddl/internal/obs"
	"github.com/trustddl/trustddl/internal/protocol"
	"github.com/trustddl/trustddl/internal/serve"
	"github.com/trustddl/trustddl/internal/transport"
)

// Workload kinds.
const (
	kindTrain = "train" // closed loop over Run.TrainBatch
	kindInfer = "infer" // closed loop over Run.InferBatch
	kindServe = "serve" // open loop through the gateway handler
)

// workload is one set of inputs the benchmark runs. Why each exists is
// recorded in BENCHMARK.json and README.md.
type workload struct {
	name  string
	kind  string
	batch int  // images per pass (closed loops); gateway MaxBatch (serve)
	lan   bool // loopback TCP with 1 ms one-way latency instead of channels
	byz   bool // party 2 is a byzantine.ConsistentLiar
}

var workloads = []workload{
	{name: "train_chan_b8", kind: kindTrain, batch: 8},
	{name: "infer_lan_b1", kind: kindInfer, batch: 1, lan: true},
	{name: "infer_byz_b4", kind: kindInfer, batch: 4, byz: true},
	{name: "serve_open_b8", kind: kindServe, batch: 8},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

const (
	// poolImages is the size of the seeded image pool every workload
	// draws from; heldOut of them are kept out of training for the
	// accuracy check.
	poolImages = 512
	heldOut    = 64
	// A run of S seconds classifies images from the first
	// min(poolImages, refPerSecond·S) of the pool (never fewer than
	// minRefImages), so that short runs do not spend longer on the
	// honest reference pass than on the measurement. At the contract's
	// run length that is about half the pool.
	refPerSecond = 10
	minRefImages = 32
	// byzParty is the party infer_byz_b4 corrupts.
	byzParty = 2
	// lanLatency is the one-way delay of infer_lan_b1's links (a
	// same-datacentre round trip of 2 ms).
	lanLatency = time.Millisecond
	trainLR    = 0.05
)

// inputs is everything generated from the seed; the program under test
// sees nothing else.
type inputs struct {
	seed    uint64
	images  []mnist.Image
	weights nn.PaperWeights
}

func makeInputs(seed uint64) (inputs, error) {
	w, err := nn.InitPaperWeights(seed)
	if err != nil {
		return inputs{}, fmt.Errorf("init weights: %w", err)
	}
	return inputs{seed: seed, images: mnist.Synthetic(seed, poolImages).Images, weights: w}, nil
}

// deployment is one built system under test: the five actors of a
// cluster, a provisioned model, and for the serve workload the gateway
// in front of it.
type deployment struct {
	net     transport.Network // non-nil when the benchmark owns the transport
	cluster *core.Cluster
	run     *core.Run
	gateway *serve.Gateway
	// passes wraps run for the gateway of the serve workload.
	passes *passRecorder

	provision time.Duration // the Cluster.NewRun part of total, for core.provision_ms
	total     time.Duration
}

// deploy builds the configuration a user gets from trustddl.New with a
// zero Config — Malicious mode, online dealing, default prefetch depth
// and opening — plus what the workload names: its transport and its
// adversary. reg is nil on timed runs; spans is nil unless tracing.
func deploy(w workload, in inputs, reg *obs.Registry, spans *spanLog) (*deployment, error) {
	start := time.Now()
	d := &deployment{}
	cfg := core.Config{
		Mode:    core.Malicious,
		Triples: core.OnlineDealing,
		Seed:    in.seed,
		Obs:     reg,
	}
	if w.lan {
		tcp, err := transport.NewLoopbackTCPNetwork()
		if err != nil {
			return nil, fmt.Errorf("loopback network: %w", err)
		}
		d.net = transport.WithLatency(tcp, lanLatency)
		cfg.Net = d.net
	}
	if w.byz {
		cfg.Adversaries = map[int]protocol.Adversary{byzParty: byzantine.ConsistentLiar{}}
	}
	span := spans.begin("core.New", 0, 0)
	cluster, err := core.New(cfg)
	span.end()
	if err != nil {
		d.close()
		return nil, fmt.Errorf("core.New: %w", err)
	}
	d.cluster = cluster
	provisionStart := time.Now()

	span = spans.begin("Cluster.NewRun", 0, 0)
	run, err := cluster.NewRun(in.weights)
	span.end()
	if err != nil {
		d.close()
		return nil, fmt.Errorf("Cluster.NewRun: %w", err)
	}
	d.run = run
	d.provision = time.Since(provisionStart)

	if w.kind == kindServe {
		d.passes = newPassRecorder(cluster, run, w.batch, spans, in.images)
		d.gateway = serve.New(d.passes, serve.Config{MaxBatch: w.batch, Obs: reg})
	}
	d.total = time.Since(start)
	return d, nil
}

func (d *deployment) close() error {
	var errs []error
	if d.gateway != nil {
		d.gateway.Close()
	}
	if d.cluster != nil {
		errs = append(errs, d.cluster.Close())
	}
	if d.net != nil {
		errs = append(errs, d.net.Close())
	}
	return errors.Join(errs...)
}

// referenceLabels classifies the first n pool images once on an honest
// in-process cluster with the same seed and weights. Committees are
// bit-identical on inference, so every reply of every inference
// workload — other transport, batch size or a Byzantine party included
// — must equal these. The inference workloads draw their inputs from
// exactly these n images.
func referenceLabels(in inputs, n int) ([]int, error) {
	d, err := deploy(workload{kind: kindInfer}, in, nil, nil)
	if err != nil {
		return nil, fmt.Errorf("reference cluster: %w", err)
	}
	labels := make([]int, 0, n)
	const batch = 64
	for at := 0; at < n; at += batch {
		got, err := d.run.InferBatch(context.Background(), in.images[at:min(at+batch, n)])
		if err != nil {
			_ = d.close()
			return nil, fmt.Errorf("reference pass: %w", err)
		}
		labels = append(labels, got...)
	}
	if err := d.close(); err != nil {
		return nil, fmt.Errorf("reference cluster close: %w", err)
	}
	return labels, nil
}
