// Package baselines implements protocol-level simulators of the three
// frameworks TrustDDL is compared against in Table II:
//
//   - SecureNN (Wagh et al., PETS'19): 2-of-2 additive sharing between
//     two computing parties with a third assist party supplying Beaver
//     triples — honest-but-curious only.
//   - Falcon (Wagh et al.): replicated 2-out-of-3 secret sharing with
//     local multiplication plus a one-matrix resharing round —
//     honest-but-curious and a malicious variant with redundant
//     resharing and digest checks.
//   - SafeML (Mirabi et al., ICDMW'23): the authors' prior crash-fault
//     framework, whose communication profile the paper's own numbers
//     show to coincide with TrustDDL's honest-but-curious mode
//     (identical inference traffic in Table II); reproduced here as the
//     redundant three-set pipeline without the commitment phase.
//
// The simulators run the real Table I workload and move real bytes over
// the metered transport, so the Table II comparison measures genuine
// protocol structure rather than constants (see DESIGN.md §4).
package baselines

import (
	"github.com/trustddl/trustddl/internal/mnist"
	"github.com/trustddl/trustddl/internal/nn"
	"github.com/trustddl/trustddl/internal/transport"
)

// Framework is one Table II system under test: it can run a
// single-image training iteration and a single-image inference over
// the Table I network, and reports the traffic it generated. Every
// simulator's local matrix work runs on package tensor's kernels, so
// the tensor.SetParallelism knob (the -parallelism flag of
// trustddl-bench) scales all Table II rows uniformly without changing
// any measured byte count.
type Framework interface {
	// Name is the framework label of Table II.
	Name() string
	// AdversaryModel is the threat-model label of Table II.
	AdversaryModel() string
	// Setup distributes the model weights, before the measured phases;
	// calling it again deals them afresh.
	Setup(w nn.PaperWeights) error
	// TrainStep runs one single-image training iteration.
	TrainStep(img mnist.Image, lr float64) error
	// Infer classifies one image.
	Infer(img mnist.Image) (int, error)
	// Stats snapshots the transport counters.
	Stats() transport.Stats
	// ResetStats zeroes the transport counters.
	ResetStats()
	// Close releases the framework's resources.
	Close() error
}
