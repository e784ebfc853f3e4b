package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/trustddl/trustddl/internal/mnist"
	"github.com/trustddl/trustddl/internal/nn"
	"github.com/trustddl/trustddl/internal/party"
	"github.com/trustddl/trustddl/internal/protocol"
	"github.com/trustddl/trustddl/internal/sharing"
	"github.com/trustddl/trustddl/internal/suspicion"
	"github.com/trustddl/trustddl/internal/tensor"
	"github.com/trustddl/trustddl/internal/transport"
)

// Run is one model lifetime on a cluster: a network described by an
// nn.Arch, secret-shared across the parties, usable for training
// steps, accuracy evaluation, inference and weight recovery.
type Run struct {
	c    *Cluster
	arch nn.Arch

	// maskEpoch labels this run's inference sessions
	// (nn.WithMaskEpoch): while it stands, every party's layers reuse
	// the weight masks opened under it. The pass driver is the one
	// place that knows when a party's weights or cached masks may have
	// changed or been lost, so it renews the epoch there: at
	// provisioning (a fresh run, a rejoin, a resume), before every
	// training step, and after any inference pass that failed, was
	// abandoned by its deadline, or was decided without all three
	// parties. The next pass then names masks the owner has never
	// seen and is dealt full triples. Epochs come from one counter
	// per cluster, so two runs never share one.
	maskEpoch atomic.Uint64
}

// renewMaskEpoch makes the next inference pass of r a cold one.
func (r *Run) renewMaskEpoch() { r.maskEpoch.Store(r.c.maskEpochs.Add(1)) }

// NewRun distributes the paper's Table I network (§III-A: the model
// owner creates and distributes parameter shares).
func (c *Cluster) NewRun(w nn.PaperWeights) (*Run, error) {
	return c.NewRunArch(nn.PaperArch(), []nn.Mat64{w.Conv, w.FC1, w.FC2})
}

// NewRunArch distributes an arbitrary architecture: the spec itself
// (public) and one weight bundle per parameterized layer. The input
// width must match the workload images and the output width the label
// arity.
func (c *Cluster) NewRunArch(arch nn.Arch, weights []nn.Mat64) (*Run, error) {
	return c.provision(arch, weights, nil, 0)
}

// provision distributes (or re-distributes, after a fault) a model to
// all computing parties: both owners' dealing keys (every share either
// owner deals expands with them), the public architecture spec, fresh
// weight shares, and — when resuming a checkpointed session — the optimizer
// momentum coefficient and velocity shares, carried in the init session
// label and extra v/<i> bundles. Re-provisioning mid-session discards
// every party's in-flight state, which is exactly what restore-and-
// replay recovery needs: after a partial batch failure the parties'
// shares may be mutually inconsistent, and only a full re-deal from the
// last checkpoint restores a coherent sharing.
func (c *Cluster) provision(arch nn.Arch, weights, velocities []nn.Mat64, momentum float64) (*Run, error) {
	outWidth, err := arch.Validate(mnist.NumPixels)
	if err != nil {
		return nil, err
	}
	if outWidth != mnist.NumClasses {
		return nil, fmt.Errorf("core: architecture outputs %d classes, want %d", outWidth, mnist.NumClasses)
	}
	// The parties build their networks after this returns, and a party
	// that cannot would leave the run without it: refuse here what they
	// would refuse.
	if _, err := arch.BuildPlain(weights); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if len(velocities) != 0 && len(velocities) != len(weights) {
		return nil, fmt.Errorf("core: %d velocity matrices for %d weight matrices", len(velocities), len(weights))
	}
	for i, v := range velocities {
		if v.Rows != weights[i].Rows || v.Cols != weights[i].Cols {
			return nil, fmt.Errorf("core: velocity %d is %dx%d, weights %dx%d", i, v.Rows, v.Cols, weights[i].Rows, weights[i].Cols)
		}
	}
	session := sessionWithInitOpts(c.nextSession("init"), momentum, len(velocities) > 0)
	if err := protocol.DistributeKeys(c.ownerEP, session, c.modelDlr); err != nil {
		return nil, fmt.Errorf("core: distribute model-owner keys: %w", err)
	}
	if err := protocol.DistributeKeys(c.dataEP, session, c.dataDealer); err != nil {
		return nil, fmt.Errorf("core: distribute data-owner keys: %w", err)
	}
	// The architecture is public: broadcast the spec itself.
	archPayload := nn.EncodeArch(arch)
	for p := 1; p <= sharing.NumParties; p++ {
		err := c.ownerEP.Send(transport.Message{To: p, Session: session, Step: "arch", Payload: archPayload})
		if err != nil {
			return nil, err
		}
	}
	for wi, m := range weights {
		items, err := c.modelDlr.DealFloats(m)
		if err != nil {
			return nil, fmt.Errorf("core: share weights %d: %w", wi, err)
		}
		if err := protocol.DistributeShares(c.ownerEP, session, fmt.Sprintf("w/%d", wi), items); err != nil {
			return nil, fmt.Errorf("core: distribute weights %d: %w", wi, err)
		}
	}
	for vi, m := range velocities {
		items, err := c.modelDlr.DealFloats(m)
		if err != nil {
			return nil, fmt.Errorf("core: share velocity %d: %w", vi, err)
		}
		if err := protocol.DistributeShares(c.ownerEP, session, fmt.Sprintf("v/%d", vi), items); err != nil {
			return nil, fmt.Errorf("core: distribute velocity %d: %w", vi, err)
		}
	}

	run := &Run{c: c, arch: arch}
	run.renewMaskEpoch()
	return run, nil
}

// Arch returns the architecture this run executes.
func (r *Run) Arch() nn.Arch { return r.arch }

// batchMatrices flattens images into the input matrix and one-hot
// label matrix of a batch.
func batchMatrices(images []mnist.Image) (nn.Mat64, nn.Mat64, error) {
	if len(images) == 0 {
		return nn.Mat64{}, nn.Mat64{}, fmt.Errorf("core: empty batch")
	}
	x := tensor.MustNew[float64](len(images), mnist.NumPixels)
	labels := make([]int, len(images))
	for i, img := range images {
		copy(x.Data[i*mnist.NumPixels:(i+1)*mnist.NumPixels], img.Pixels[:])
		labels[i] = img.Label
	}
	oneHot, err := nn.OneHot(labels, mnist.NumClasses)
	if err != nil {
		return nn.Mat64{}, nn.Mat64{}, err
	}
	return x, oneHot, nil
}

// distribute deals a float matrix at the data owner and sends each
// party its keyed item.
func (c *Cluster) distribute(session, step string, m nn.Mat64) error {
	items, err := c.dataDealer.DealFloats(m)
	if err != nil {
		return fmt.Errorf("core: share %s: %w", step, err)
	}
	return protocol.DistributeShares(c.dataEP, session, step, items)
}

// TrainBatch performs one secure SGD step over the given images
// (Fig. 2 training; Table II uses a single-image batch).
func (r *Run) TrainBatch(images []mnist.Image, lr float64) error {
	if lr <= 0 {
		return fmt.Errorf("core: non-positive learning rate %v", lr)
	}
	if reg := r.c.cfg.Obs; reg != nil {
		start := time.Now()
		defer func() {
			reg.Counter("core.train.batches").Inc()
			reg.Histogram("core.train.batch").Observe(time.Since(start))
		}()
	}
	x, oneHot, err := batchMatrices(images)
	if err != nil {
		return err
	}
	// The step moves the weights (and a failed one may move them on
	// some parties only): no mask opened so far may be used again.
	r.renewMaskEpoch()
	// The learning rate travels in the session label so the parties
	// need no side channel. No mask epoch does: a training
	// step's forward pass takes single-use triples.
	session := sessionWithLR(r.c.nextSession("train"), lr)
	if err := r.c.distribute(session, "x", x); err != nil {
		return err
	}
	if err := r.c.distribute(session, "y", oneHot); err != nil {
		return err
	}
	// The parties acknowledge step completion. One silent party is
	// survivable — the two live parties carried the step to completion
	// without it (guaranteed output delivery), so the session keeps
	// training while the third crashes and rejoins.
	msgs, gerr := r.c.patientGather(context.Background(), []int{1, 2, 3}, session, "ack")
	if gerr != nil {
		if !isGatherTimeout(gerr) || len(msgs) < sharing.NumParties-1 {
			return gerr
		}
		for p := 1; p <= sharing.NumParties; p++ {
			if _, ok := msgs[p]; !ok {
				r.c.ledger.Record(p, suspicion.KindMissingDelivery, session, "ack")
			}
		}
	}
	return nil
}

// logitsFor runs the secure forward pass for a batch and reveals the
// logits at the data owner via the six-way decision rule; it returns
// once the data owner has decided. A context deadline caps every
// receive wait in the pass (party gathers, owner responses, the data
// owner's reveal), so a stalled or crashed peer fails the pass in
// bounded time.
func (r *Run) logitsFor(ctx context.Context, images []mnist.Image) (protocol.Mat, error) {
	if reg := r.c.cfg.Obs; reg != nil {
		start := time.Now()
		defer func() {
			reg.Counter("core.infer.ops").Inc()
			reg.Histogram("core.infer").Observe(time.Since(start))
		}()
	}
	if err := ctx.Err(); err != nil {
		return protocol.Mat{}, err
	}
	x, _, err := batchMatrices(images)
	if err != nil {
		return protocol.Mat{}, err
	}
	// The mask epoch travels in the session label, like the learning
	// rate of a training step. A pass that does not complete on all
	// three parties may leave them with different masks cached, so it
	// ends the epoch.
	session := nn.WithMaskEpoch(r.c.nextSession("infer"), r.maskEpoch.Load())
	// The deadline caps the data owner's waits here and travels to each
	// party in the pass's command (stepWithDeadline). The serving layer
	// runs one pass at a time per cluster, so the data owner keeps one.
	deadline, _ := ctx.Deadline()
	r.c.dataRouter.SetDeadline(deadline)
	defer r.c.dataRouter.SetDeadline(time.Time{})
	complete := false
	defer func() {
		if !complete {
			r.renewMaskEpoch()
		}
	}()
	if err := r.c.distribute(session, stepWithDeadline("x", deadline), x); err != nil {
		return protocol.Mat{}, err
	}
	logits, delivered, err := r.c.decideAtDataOwner(ctx, session, "logits")
	complete = err == nil && delivered == sharing.NumParties
	return logits, err
}

// decideAtDataOwner gathers one bundle per party at the data owner and
// applies the reconstruction decision rule, zero-filling and flagging
// parties that fail to deliver; it also reports how many delivered.
func (c *Cluster) decideAtDataOwner(ctx context.Context, session, step string) (protocol.Mat, int, error) {
	parties := []int{1, 2, 3}
	msgs, gerr := c.patientGather(ctx, parties, session, step)
	if gerr != nil && !isGatherTimeout(gerr) {
		// A non-timeout gather failure (closed transport, forged frame
		// the transport rejected) is a real fault even when enough
		// parties delivered: the decision rule only papers over missing
		// messages, not a broken channel.
		return protocol.Mat{}, 0, fmt.Errorf("core: gather %q: %w", step, gerr)
	}
	var per [sharing.NumParties]sharing.Bundle
	var missing []int
	var shape sharing.Bundle
	for _, p := range parties {
		msg, ok := msgs[p]
		if !ok {
			missing = append(missing, p)
			continue
		}
		b, err := transport.DecodeBundle(msg.Payload)
		if err != nil {
			missing = append(missing, p)
			continue
		}
		per[p-1] = b
		shape = b
	}
	if len(missing) > 1 {
		return protocol.Mat{}, 0, fmt.Errorf("core: %d parties failed to deliver %q (%v)", len(missing), step, gerr)
	}
	for _, p := range missing {
		per[p-1] = sharing.Bundle{
			Primary: zeroMat(shape.Primary),
			Hat:     zeroMat(shape.Hat),
			Second:  zeroMat(shape.Second),
		}
	}
	sets, err := sharing.CollectSets(per)
	if err != nil {
		return protocol.Mat{}, 0, err
	}
	rec, err := sharing.ReconstructSix(sets)
	if err != nil {
		return protocol.Mat{}, 0, err
	}
	for _, p := range missing {
		rec.FlagParty(p)
	}
	// Row-wise decision: the revealed matrix is (or may be) a batch of
	// independent per-image results, and the per-row rule keeps each
	// row's reveal independent of the other rows' truncation carries.
	value, _, err := rec.DecideRows()
	if err == nil {
		suspect := rec.Suspect(c.dataTolerance())
		suspectMissing := false
		c.mu.Lock()
		if suspect != 0 {
			c.dataSuspicions[suspect]++
		}
		for _, p := range missing {
			c.dataSuspicions[p]++
			if p == suspect {
				suspectMissing = true
			}
		}
		c.mu.Unlock()
		for _, p := range missing {
			c.ledger.Record(p, suspicion.KindMissingDelivery, session, step)
		}
		// A missing party's zero-filled placeholder trivially deviates;
		// only a present-but-deviating party earns attributable evidence.
		if suspect != 0 && !suspectMissing {
			c.ledger.Record(suspect, suspicion.KindDecisionDeviation, session, step)
		}
	}
	return value, len(parties) - len(missing), err
}

// isGatherTimeout reports whether a Gather error only says some peers'
// messages never arrived (survivable: the decision rule zero-fills
// them), as opposed to a transport-level failure.
func isGatherTimeout(err error) bool {
	var te *party.TimeoutError
	return errors.As(err, &te) || errors.Is(err, transport.ErrTimeout)
}

// patientGather collects one message per party at the data owner,
// re-polling past the router's per-message timer until every party
// delivered or the patience window closes. During a crash window an
// honest party legitimately spends a full receive timer flagging the
// dead peer (and another waiting out the owner's gather expiry) before
// it can respond, so a single router timer at the data owner would
// misread the two live parties as silent too. Late arrivals land in the
// router's pending queue, where the re-poll picks them up. A nil error
// means everyone delivered; a timeout error with a partial map leaves
// the missing parties to the caller's decision rule.
//
// The re-poll loop stops as soon as ctx ends, and the router's pass
// deadline (set by the pass driver) caps the inner per-message waits,
// so the data owner abandons the reveal within the request deadline. A
// deadline-abandoned gather returns a non-timeout error — the caller
// must fail the pass, not zero-fill and frame the silent parties.
func (c *Cluster) patientGather(ctx context.Context, parties []int, session, step string) (map[int]transport.Message, error) {
	deadline := time.Now().Add(c.gatherPatience())
	msgs := make(map[int]transport.Message, len(parties))
	var firstErr error
	for {
		var missing []int
		for _, p := range parties {
			if _, ok := msgs[p]; !ok {
				missing = append(missing, p)
			}
		}
		if len(missing) == 0 {
			return msgs, nil
		}
		if err := ctx.Err(); err != nil {
			return msgs, err
		}
		got, gerr := c.dataRouter.Gather(missing, session, step)
		for p, m := range got {
			msgs[p] = m
		}
		if gerr != nil && !isGatherTimeout(gerr) {
			return msgs, gerr
		}
		if gerr != nil && firstErr == nil {
			firstErr = gerr
		}
		if len(msgs) == len(parties) {
			return msgs, nil
		}
		if !time.Now().Before(deadline) {
			return msgs, firstErr
		}
	}
}

// gatherPatience bounds how long the data owner waits out a silent
// party: the live parties need one receive timer to flag the dead peer,
// up to one more for the model owner's gather expiry on a delegated
// step, plus compute slack.
func (c *Cluster) gatherPatience() time.Duration {
	t := c.cfg.Timeout
	if t <= 0 {
		t = party.DefaultTimeout
	}
	return 3*t + time.Second
}

// dataTolerance resolves the data owner's reveal tolerance: the
// configured cluster-wide override, or the logits default.
func (c *Cluster) dataTolerance() float64 {
	if c.cfg.SuspicionTolerance > 0 {
		return c.cfg.SuspicionTolerance
	}
	return dataOwnerSuspicionTolerance
}

// dataOwnerSuspicionTolerance is the max raw-ring deviation an honest
// logits reconstruction may show (fixed-point truncation slack across
// the network depth).
const dataOwnerSuspicionTolerance = 64

func zeroMat(m protocol.Mat) protocol.Mat {
	return tensor.Matrix[int64]{Rows: m.Rows, Cols: m.Cols, Data: make([]int64, m.Size())}
}

// Infer classifies one image, returning the predicted label revealed
// to the data owner (the paper's inference task).
func (r *Run) Infer(img mnist.Image) (int, error) {
	logits, err := r.logitsFor(context.Background(), []mnist.Image{img})
	if err != nil {
		return 0, err
	}
	return argmaxRow(logits, 0), nil
}

// InferBatch classifies a batch of images through ONE secure forward
// pass: the batch travels as the leading dimension of a single
// contiguous share tensor, so every protocol round (triple deal,
// commitment, exchange, reveal) is paid once per batch instead of
// once per image. Labels are returned in input order. The context's
// deadline bounds the whole pass: every receive wait in the committee
// is capped by it, so a stalled or Byzantine party fails the pass
// within the deadline (error wrapping context.DeadlineExceeded)
// instead of wedging the caller.
func (r *Run) InferBatch(ctx context.Context, images []mnist.Image) ([]int, error) {
	logits, err := r.logitsFor(ctx, images)
	if err != nil {
		return nil, err
	}
	labels := make([]int, logits.Rows)
	for row := range labels {
		labels[row] = argmaxRow(logits, row)
	}
	return labels, nil
}

// LogitsBatch runs the batched secure forward pass and returns the raw
// fixed-point logits revealed to the data owner (one row per image).
// It exposes the ring values so equivalence tests can pin the batched
// path bit-for-bit against sequential single-image passes; Infer and
// InferBatch are argmax views of the same reveal.
func (r *Run) LogitsBatch(images []mnist.Image) (protocol.Mat, error) {
	return r.logitsFor(context.Background(), images)
}

// Evaluate computes test accuracy over up to limit samples (0 = all),
// batching forward passes for throughput.
func (r *Run) Evaluate(ds mnist.Dataset, limit, batch int) (float64, error) {
	n := ds.Len()
	if limit > 0 && limit < n {
		n = limit
	}
	if n == 0 {
		return 0, fmt.Errorf("core: empty evaluation set")
	}
	if batch <= 0 {
		batch = 32
	}
	correct := 0
	for at := 0; at < n; at += batch {
		end := at + batch
		if end > n {
			end = n
		}
		logits, err := r.logitsFor(context.Background(), ds.Images[at:end])
		if err != nil {
			return 0, err
		}
		for row := 0; row < logits.Rows; row++ {
			if argmaxRow(logits, row) == ds.Images[at+row].Label {
				correct++
			}
		}
	}
	return float64(correct) / float64(n), nil
}

func argmaxRow(m protocol.Mat, row int) int {
	best, bestIdx := m.At(row, 0), 0
	for c := 1; c < m.Cols; c++ {
		if v := m.At(row, c); v > best {
			best, bestIdx = v, c
		}
	}
	return bestIdx
}

// WeightMatrices reveals the current model parameters to the model
// owner and returns them as plaintext matrices, one per parameterized
// layer (the paper's training output).
func (r *Run) WeightMatrices() ([]nn.Mat64, error) {
	weights, _, err := r.CaptureCheckpoint(false)
	return weights, err
}

// CaptureCheckpoint reveals the current model to the model owner
// through the six-way decision rule: the weight matrices and — when
// withState — the optimizer velocity matrices alongside them. Because
// the owner's gather zero-fills and flags a silent party, a checkpoint
// can be captured even while one party is crashed or Byzantine; the
// decided plaintext then re-seeds all three parties on restore.
func (r *Run) CaptureCheckpoint(withState bool) (weights, velocities []nn.Mat64, err error) {
	session := r.c.nextSession("reveal")
	step := stepRevealWeights
	if withState {
		step = stepRevealCkpt
	}
	for p := 1; p <= sharing.NumParties; p++ {
		if err := r.c.dataRouter.Send(p, session, step, nil); err != nil {
			return nil, nil, err
		}
	}
	// A crashed party's reveal only resolves once the owner's gather
	// timeout zero-fills it; wait comfortably past that point.
	timeout := r.c.cfg.Timeout
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	timeout = 2*timeout + time.Second
	weights = make([]nn.Mat64, r.arch.NumWeightMatrices())
	for wi := range weights {
		m, err := r.c.takeRevealed(fmt.Sprintf("%s/w%d", session, wi), timeout)
		if err != nil {
			return nil, nil, err
		}
		weights[wi] = r.decodeFloats(m)
	}
	if withState {
		velocities = make([]nn.Mat64, r.arch.NumWeightMatrices())
		for vi := range velocities {
			m, err := r.c.takeRevealed(fmt.Sprintf("%s/v%d", session, vi), timeout)
			if err != nil {
				return nil, nil, err
			}
			velocities[vi] = r.decodeFloats(m)
		}
	}
	return weights, velocities, nil
}

// Weights is the Table I convenience form of WeightMatrices.
func (r *Run) Weights() (nn.PaperWeights, error) {
	ms, err := r.WeightMatrices()
	if err != nil {
		return nn.PaperWeights{}, err
	}
	if len(ms) != 3 {
		return nn.PaperWeights{}, fmt.Errorf("core: run has %d weight matrices, not the Table I network", len(ms))
	}
	return nn.PaperWeights{Conv: ms[0], FC1: ms[1], FC2: ms[2]}, nil
}

func (r *Run) decodeFloats(m protocol.Mat) nn.Mat64 {
	out := tensor.Matrix[float64]{Rows: m.Rows, Cols: m.Cols, Data: make([]float64, m.Size())}
	for i, v := range m.Data {
		out.Data[i] = r.c.cfg.Params.ToFloat(v)
	}
	return out
}

// TrainConfig parameterizes the Fig. 2 experiment driver.
type TrainConfig struct {
	// Epochs is the number of passes over the training set (paper: 5).
	Epochs int
	// Batch is the SGD batch size.
	Batch int
	// LR is the learning rate.
	LR float64
	// Momentum enables classical momentum SGD (0 = plain SGD, the
	// paper's configuration).
	Momentum float64
	// EvalLimit caps test samples per accuracy point (0 = all).
	EvalLimit int
	// OnEpoch, when non-nil, observes each epoch's accuracy.
	OnEpoch func(epoch int, accuracy float64)
}

// EpochResult is one Fig. 2 data point.
type EpochResult struct {
	Epoch    int
	Accuracy float64
}

// Train runs the full Fig. 2 secure-training experiment: epochs of
// secure SGD with per-epoch test accuracy measured through the secure
// inference path.
func (c *Cluster) Train(w nn.PaperWeights, train, test mnist.Dataset, tc TrainConfig) ([]EpochResult, *Run, error) {
	if tc.Epochs <= 0 || tc.Batch <= 0 || tc.LR <= 0 {
		return nil, nil, fmt.Errorf("core: invalid train config %+v", tc)
	}
	run, err := c.provision(nn.PaperArch(), []nn.Mat64{w.Conv, w.FC1, w.FC2}, nil, tc.Momentum)
	if err != nil {
		return nil, nil, err
	}
	results := make([]EpochResult, 0, tc.Epochs)
	for epoch := 1; epoch <= tc.Epochs; epoch++ {
		for at := 0; at < train.Len(); at += tc.Batch {
			end := at + tc.Batch
			if end > train.Len() {
				end = train.Len()
			}
			if err := run.TrainBatch(train.Images[at:end], tc.LR); err != nil {
				return nil, nil, fmt.Errorf("core: epoch %d batch at %d: %w", epoch, at, err)
			}
		}
		acc, err := run.Evaluate(test, tc.EvalLimit, 32)
		if err != nil {
			return nil, nil, fmt.Errorf("core: epoch %d evaluation: %w", epoch, err)
		}
		results = append(results, EpochResult{Epoch: epoch, Accuracy: acc})
		if tc.OnEpoch != nil {
			tc.OnEpoch(epoch, acc)
		}
	}
	return results, run, nil
}
