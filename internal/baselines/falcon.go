package baselines

import (
	"fmt"
	"sync"
	"time"

	"github.com/trustddl/trustddl/internal/fixed"
	"github.com/trustddl/trustddl/internal/mnist"
	"github.com/trustddl/trustddl/internal/nn"
	"github.com/trustddl/trustddl/internal/party"
	"github.com/trustddl/trustddl/internal/sharing"
	"github.com/trustddl/trustddl/internal/tensor"
	"github.com/trustddl/trustddl/internal/transport"
)

// falconLayer is one stage of the RSS network.
type falconLayer interface {
	forward(ctx *rssCtx, session string, x rssShare) (rssShare, error)
	// backward caches the weight gradient and returns the input
	// gradient, or an empty one unless inputGrad asks for it.
	backward(ctx *rssCtx, session string, dy rssShare, inputGrad bool) (rssShare, error)
	update(ctx *rssCtx, session string, lr float64) error
}

// falconDense is a fully connected layer over replicated shares.
type falconDense struct {
	w     rssShare
	x, dW rssShare
}

func (d *falconDense) forward(ctx *rssCtx, session string, x rssShare) (rssShare, error) {
	d.x = x
	return rssMul(ctx, session, x, d.w, true /* matmul */, false /* raw */)
}

func (d *falconDense) backward(ctx *rssCtx, session string, dy rssShare, inputGrad bool) (rssShare, error) {
	dW, err := rssMul(ctx, session+"/dw", d.x.transpose(), dy, true, false)
	if err != nil {
		return rssShare{}, err
	}
	d.dW = dW
	if !inputGrad {
		return rssShare{}, nil
	}
	return rssMul(ctx, session+"/dx", dy, d.w.transpose(), true, false)
}

func (d *falconDense) update(ctx *rssCtx, session string, lr float64) error {
	if d.dW.Cur.IsZeroShape() {
		return nil
	}
	step, err := rssScaleTrunc(ctx, session, d.dW, ctx.Params.FromFloat(lr))
	if err != nil {
		return err
	}
	w, err := d.w.sub(step)
	if err != nil {
		return err
	}
	d.w = w
	return nil
}

// falconReLU reveals the sign of t⊙x (t positive, owner-dealt) and
// masks locally.
type falconReLU struct {
	owner int
	mask  Mat
}

func (r *falconReLU) forward(ctx *rssCtx, session string, x rssShare) (rssShare, error) {
	aux, err := requestRSSAux(ctx, r.owner, session+"/aux", x.Cur.Rows, x.Cur.Cols)
	if err != nil {
		return rssShare{}, err
	}
	prod, err := rssMul(ctx, session+"/m", aux, x, false, true /* raw: sign only */)
	if err != nil {
		return rssShare{}, err
	}
	opened, err := rssOpen(ctx, session+"/o", prod)
	if err != nil {
		return rssShare{}, err
	}
	r.mask = opened.Map(func(v int64) int64 {
		if v > 0 {
			return 1
		}
		return 0
	})
	return x.maskPublic(r.mask)
}

func (r *falconReLU) backward(_ *rssCtx, _ string, dy rssShare, _ bool) (rssShare, error) {
	if r.mask.IsZeroShape() {
		return rssShare{}, fmt.Errorf("baselines: falcon relu backward before forward")
	}
	return dy.maskPublic(r.mask)
}

func (r *falconReLU) update(*rssCtx, string, float64) error { return nil }

// falconConv is the lowered convolution over replicated shares.
type falconConv struct {
	shape       tensor.ConvShape
	outChannels int
	w           rssShare
	cols, dW    rssShare
}

func (c *falconConv) forward(ctx *rssCtx, session string, x rssShare) (rssShare, error) {
	batch := x.Cur.Rows
	curCols, err := tensor.Im2ColBatch(c.shape, x.Cur)
	if err != nil {
		return rssShare{}, err
	}
	nextCols, err := tensor.Im2ColBatch(c.shape, x.Next)
	if err != nil {
		return rssShare{}, err
	}
	c.cols = rssShare{Cur: curCols, Next: nextCols}
	positions := c.shape.OutHeight() * c.shape.OutWidth()
	y, err := rssMul(ctx, session, c.cols, c.w, true, false)
	if err != nil {
		return rssShare{}, err
	}
	cur, err := y.Cur.Reshape(batch, positions*c.outChannels)
	if err != nil {
		return rssShare{}, err
	}
	next, err := y.Next.Reshape(batch, positions*c.outChannels)
	if err != nil {
		return rssShare{}, err
	}
	return rssShare{Cur: cur, Next: next}, nil
}

func (c *falconConv) backward(ctx *rssCtx, session string, dy rssShare, inputGrad bool) (rssShare, error) {
	if c.cols.Cur.IsZeroShape() {
		return rssShare{}, fmt.Errorf("baselines: falcon conv backward before forward")
	}
	batch := dy.Cur.Rows
	positions := c.shape.OutHeight() * c.shape.OutWidth()
	dYCur, err := dy.Cur.Reshape(batch*positions, c.outChannels)
	if err != nil {
		return rssShare{}, err
	}
	dYNext, err := dy.Next.Reshape(batch*positions, c.outChannels)
	if err != nil {
		return rssShare{}, err
	}
	dY := rssShare{Cur: dYCur, Next: dYNext}
	dW, err := rssMul(ctx, session+"/dw", c.cols.transpose(), dY, true, false)
	if err != nil {
		return rssShare{}, err
	}
	c.dW = dW
	if !inputGrad {
		return rssShare{}, nil
	}
	dCols, err := rssMul(ctx, session+"/dx", dY, c.w.transpose(), true, false)
	if err != nil {
		return rssShare{}, err
	}
	cur, err := tensor.Col2ImBatch(c.shape, dCols.Cur, batch)
	if err != nil {
		return rssShare{}, err
	}
	next, err := tensor.Col2ImBatch(c.shape, dCols.Next, batch)
	if err != nil {
		return rssShare{}, err
	}
	return rssShare{Cur: cur, Next: next}, nil
}

func (c *falconConv) update(ctx *rssCtx, session string, lr float64) error {
	if c.dW.Cur.IsZeroShape() {
		return nil
	}
	step, err := rssScaleTrunc(ctx, session, c.dW, ctx.Params.FromFloat(lr))
	if err != nil {
		return err
	}
	w, err := c.w.sub(step)
	if err != nil {
		return err
	}
	c.w = w
	return nil
}

// requestRSSAux fetches a replicated sharing of a positive auxiliary
// matrix from the owner.
func requestRSSAux(ctx *rssCtx, owner int, session string, rows, cols int) (rssShare, error) {
	if err := ctx.Router.Send(owner, session, plainAux, encodeDims(rows, cols)); err != nil {
		return rssShare{}, err
	}
	msg, err := ctx.Router.Expect(owner, session, plainAux+plainResp)
	if err != nil {
		return rssShare{}, err
	}
	ms, err := transport.DecodeMatrices(msg.Payload)
	if err != nil || len(ms) != 2 {
		return rssShare{}, fmt.Errorf("baselines: rss aux reply malformed")
	}
	return rssShare{Cur: ms[0], Next: ms[1]}, nil
}

// callRSSOwner evaluates a delegated function over an RSS-shared value
// (parties contribute their Cur components; the response is replicated).
func callRSSOwner(ctx *rssCtx, owner int, name, session string, s rssShare) (rssShare, error) {
	step := plainFn + name
	if err := ctx.Router.Send(owner, session, step, transport.EncodeMatrices(s.Cur)); err != nil {
		return rssShare{}, err
	}
	msg, err := ctx.Router.Expect(owner, session, step+plainResp)
	if err != nil {
		return rssShare{}, err
	}
	ms, err := transport.DecodeMatrices(msg.Payload)
	if err != nil || len(ms) != 2 {
		return rssShare{}, fmt.Errorf("baselines: rss fn reply malformed")
	}
	return rssShare{Cur: ms[0], Next: ms[1]}, nil
}

// falconNetwork is one party's Table I instance over replicated shares.
type falconNetwork struct {
	layers []falconLayer
	owner  int
}

func (n *falconNetwork) logits(ctx *rssCtx, session string, x rssShare) (rssShare, error) {
	var err error
	for i, l := range n.layers {
		x, err = l.forward(ctx, fmt.Sprintf("%s/l%d", session, i), x)
		if err != nil {
			return rssShare{}, fmt.Errorf("baselines: falcon layer %d: %w", i, err)
		}
	}
	return x, nil
}

func (n *falconNetwork) trainBatch(ctx *rssCtx, session string, x, oneHot rssShare, lr float64) error {
	batch := x.Cur.Rows
	logits, err := n.logits(ctx, session, x)
	if err != nil {
		return err
	}
	probs, err := callRSSOwner(ctx, n.owner, "softmax", session+"/sm", logits)
	if err != nil {
		return err
	}
	diff, err := probs.sub(oneHot)
	if err != nil {
		return err
	}
	grad, err := rssScaleTrunc(ctx, session+"/g", diff, ctx.Params.FromFloat(1.0/float64(batch)))
	if err != nil {
		return err
	}
	// The first layer's input gradient is read by nobody.
	for i := len(n.layers) - 1; i >= 0; i-- {
		grad, err = n.layers[i].backward(ctx, fmt.Sprintf("%s/b%d", session, i), grad, i > 0)
		if err != nil {
			return fmt.Errorf("baselines: falcon layer %d backward: %w", i, err)
		}
	}
	for i, l := range n.layers {
		if err := l.update(ctx, fmt.Sprintf("%s/u%d", session, i), lr); err != nil {
			return fmt.Errorf("baselines: falcon layer %d update: %w", i, err)
		}
	}
	return nil
}

// Falcon simulates the Falcon framework over the replicated-sharing
// substrate, in honest-but-curious or malicious (detect-and-abort)
// configuration.
type Falcon struct {
	malicious bool
	netw      *transport.ChanNetwork
	params    fixed.Params
	src       *sharing.SeededSource

	ctxs [3]*rssCtx
	nets [3]*falconNetwork

	owner   *plainServer
	ownerEP transport.Endpoint
	dataR   *party.Router

	logitsMu sync.Mutex
	logits   map[string]Mat
	logitsCv *sync.Cond

	opCount int
}

var _ Framework = (*Falcon)(nil)

var falconParties = []int{transport.Party1, transport.Party2, transport.Party3}

// NewFalcon wires a Falcon deployment; malicious selects the
// detect-and-abort variant.
func NewFalcon(seed uint64, malicious bool) (*Falcon, error) {
	f := &Falcon{
		malicious: malicious,
		netw:      transport.NewChanNetwork(),
		params:    fixed.Default(),
		src:       sharing.NewSeededSource(seed ^ 0xfa1c04),
		logits:    make(map[string]Mat),
	}
	f.logitsCv = sync.NewCond(&f.logitsMu)

	// Pairwise zero-sharing keys: key i is shared by parties i and
	// next(i). Two SeededSource instances per key, one per holder,
	// drawing identical streams.
	keySeed := func(i int) uint64 { return seed*7919 + uint64(i)*104729 }
	for _, p := range falconParties {
		ep, err := f.netw.Endpoint(p)
		if err != nil {
			return nil, err
		}
		f.ctxs[p-1] = &rssCtx{
			Router:    party.NewRouter(ep, 10*time.Second),
			Index:     p,
			Params:    f.params,
			Malicious: malicious,
			zeroOwn:   sharing.NewSeededSource(keySeed(p)),
			zeroPrev:  sharing.NewSeededSource(keySeed(rssPrev(p))),
		}
	}

	ownerEP, err := f.netw.Endpoint(transport.ModelOwner)
	if err != nil {
		return nil, err
	}
	f.ownerEP = ownerEP
	f.owner = newPlainServer(ownerEP, sharing.NewSeededSource(seed+5), f.params, falconParties)
	f.owner.replicated = true
	f.owner.fns["softmax"] = plainSoftmax(f.params)
	f.owner.sinks["logits"] = func(session string, value Mat) {
		f.logitsMu.Lock()
		defer f.logitsMu.Unlock()
		f.logits[session] = value
		f.logitsCv.Broadcast()
	}
	f.owner.start()

	dataEP, err := f.netw.Endpoint(transport.DataOwner)
	if err != nil {
		return nil, err
	}
	f.dataR = party.NewRouter(dataEP, 10*time.Second)
	return f, nil
}

// Name implements Framework.
func (f *Falcon) Name() string { return "Falcon" }

// AdversaryModel implements Framework.
func (f *Falcon) AdversaryModel() string {
	if f.malicious {
		return "Malicious"
	}
	return "Honest-but-Curious"
}

// Stats implements Framework.
func (f *Falcon) Stats() transport.Stats { return f.netw.Stats() }

// ResetStats implements Framework.
func (f *Falcon) ResetStats() { f.netw.ResetStats() }

// Close implements Framework.
func (f *Falcon) Close() error {
	err := f.owner.stop()
	_ = f.netw.Close()
	return err
}

func (f *Falcon) session(kind string) string {
	f.opCount++
	return fmt.Sprintf("falcon/%s/%d", kind, f.opCount)
}

// shareRSS creates replicated shares of a float matrix and sends the
// pair to each party from the given endpoint.
func (f *Falcon) shareRSS(from transport.Endpoint, session, step string, m nn.Mat64) error {
	enc := tensor.Matrix[int64]{Rows: m.Rows, Cols: m.Cols, Data: make([]int64, m.Size())}
	for i, v := range m.Data {
		enc.Data[i] = f.params.FromFloat(v)
	}
	shares, err := rssShareSecret(f.src, enc)
	if err != nil {
		return err
	}
	for i, p := range falconParties {
		err := from.Send(transport.Message{
			To:      p,
			Session: session,
			Step:    step,
			Payload: transport.EncodeMatrices(shares[i].Cur, shares[i].Next),
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func recvRSS(ctx *rssCtx, from int, session, step string) (rssShare, error) {
	msg, err := ctx.Router.Expect(from, session, step)
	if err != nil {
		return rssShare{}, err
	}
	ms, err := transport.DecodeMatrices(msg.Payload)
	if err != nil || len(ms) != 2 {
		return rssShare{}, fmt.Errorf("baselines: rss share malformed")
	}
	return rssShare{Cur: ms[0], Next: ms[1]}, nil
}

func (f *Falcon) runParties(fn func(i int) error) error {
	var wg sync.WaitGroup
	var errs [3]error
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("baselines: falcon party %d: %w", i+1, err)
		}
	}
	return nil
}

// Setup implements Framework.
func (f *Falcon) Setup(w nn.PaperWeights) error {
	session := f.session("init")
	for _, wm := range []struct {
		name string
		m    nn.Mat64
	}{{"conv", w.Conv}, {"fc1", w.FC1}, {"fc2", w.FC2}} {
		if err := f.shareRSS(f.ownerEP, session, "w/"+wm.name, wm.m); err != nil {
			return err
		}
	}
	return f.runParties(func(i int) error {
		ctx := f.ctxs[i]
		conv, err := recvRSS(ctx, transport.ModelOwner, session, "w/conv")
		if err != nil {
			return err
		}
		fc1, err := recvRSS(ctx, transport.ModelOwner, session, "w/fc1")
		if err != nil {
			return err
		}
		fc2, err := recvRSS(ctx, transport.ModelOwner, session, "w/fc2")
		if err != nil {
			return err
		}
		f.nets[i] = &falconNetwork{
			owner: transport.ModelOwner,
			layers: []falconLayer{
				&falconConv{shape: nn.PaperConvShape(), outChannels: nn.PaperOutChannels, w: conv},
				&falconReLU{owner: transport.ModelOwner},
				&falconDense{w: fc1},
				&falconReLU{owner: transport.ModelOwner},
				&falconDense{w: fc2},
			},
		}
		return nil
	})
}

// TrainStep implements Framework.
func (f *Falcon) TrainStep(img mnist.Image, lr float64) error {
	if f.nets[0] == nil {
		return fmt.Errorf("baselines: falcon Setup not called")
	}
	session := f.session("train")
	x := tensor.MustNew[float64](1, mnist.NumPixels)
	copy(x.Data, img.Pixels[:])
	if err := f.shareRSS(routerSender{r: f.dataR}, session, "x", x); err != nil {
		return err
	}
	oneHot, err := nn.OneHot([]int{img.Label}, mnist.NumClasses)
	if err != nil {
		return err
	}
	if err := f.shareRSS(routerSender{r: f.dataR}, session, "y", oneHot); err != nil {
		return err
	}
	return f.runParties(func(i int) error {
		ctx := f.ctxs[i]
		bx, err := recvRSS(ctx, transport.DataOwner, session, "x")
		if err != nil {
			return err
		}
		by, err := recvRSS(ctx, transport.DataOwner, session, "y")
		if err != nil {
			return err
		}
		return f.nets[i].trainBatch(ctx, session, bx, by, lr)
	})
}

// Infer implements Framework.
func (f *Falcon) Infer(img mnist.Image) (int, error) {
	if f.nets[0] == nil {
		return 0, fmt.Errorf("baselines: falcon Setup not called")
	}
	session := f.session("infer")
	x := tensor.MustNew[float64](1, mnist.NumPixels)
	copy(x.Data, img.Pixels[:])
	if err := f.shareRSS(routerSender{r: f.dataR}, session, "x", x); err != nil {
		return 0, err
	}
	err := f.runParties(func(i int) error {
		ctx := f.ctxs[i]
		bx, err := recvRSS(ctx, transport.DataOwner, session, "x")
		if err != nil {
			return err
		}
		logits, err := f.nets[i].logits(ctx, session, bx)
		if err != nil {
			return err
		}
		return ctx.Router.Send(transport.ModelOwner, session, plainSink+"logits", transport.EncodeMatrices(logits.Cur))
	})
	if err != nil {
		return 0, err
	}
	logits, err := f.awaitLogits(session, 10*time.Second)
	if err != nil {
		return 0, err
	}
	return argmaxRowInt(logits), nil
}

func (f *Falcon) awaitLogits(session string, timeout time.Duration) (Mat, error) {
	expired := false
	timer := time.AfterFunc(timeout, func() {
		f.logitsMu.Lock()
		expired = true
		f.logitsCv.Broadcast()
		f.logitsMu.Unlock()
	})
	defer timer.Stop()
	f.logitsMu.Lock()
	defer f.logitsMu.Unlock()
	for {
		if m, ok := f.logits[session]; ok {
			delete(f.logits, session)
			return m, nil
		}
		if expired {
			return Mat{}, fmt.Errorf("baselines: falcon logits for %q never arrived", session)
		}
		f.logitsCv.Wait()
	}
}
