package baselines

import (
	"fmt"

	"github.com/trustddl/trustddl/internal/protocol"
	"github.com/trustddl/trustddl/internal/tensor"
	"github.com/trustddl/trustddl/internal/transport"
)

// assistClient is a computing party's handle on the assist party's
// plain-share randomness (SecureNN's third-server role).
type assistClient struct {
	ctx    *protocol.HbCCtx
	assist int
}

func (a assistClient) request(session, step string, dims ...int) ([]Mat, error) {
	if err := a.ctx.Router.Send(a.assist, session, step, encodeDims(dims...)); err != nil {
		return nil, err
	}
	msg, err := a.ctx.Router.Expect(a.assist, session, step+plainResp)
	if err != nil {
		return nil, err
	}
	return transport.DecodeMatrices(msg.Payload)
}

func (a assistClient) matMulTriple(session string, m, n, p int) (protocol.HbCTriple, error) {
	ms, err := a.request(session, plainTripleMat, m, n, p)
	if err != nil {
		return protocol.HbCTriple{}, err
	}
	if len(ms) != 3 {
		return protocol.HbCTriple{}, fmt.Errorf("baselines: triple reply has %d matrices", len(ms))
	}
	return protocol.HbCTriple{A: ms[0], B: ms[1], C: ms[2]}, nil
}

func (a assistClient) hadamardTriple(session string, rows, cols int) (protocol.HbCTriple, error) {
	ms, err := a.request(session, plainTripleHad, rows, cols)
	if err != nil {
		return protocol.HbCTriple{}, err
	}
	if len(ms) != 3 {
		return protocol.HbCTriple{}, fmt.Errorf("baselines: triple reply has %d matrices", len(ms))
	}
	return protocol.HbCTriple{A: ms[0], B: ms[1], C: ms[2]}, nil
}

func (a assistClient) aux(session string, rows, cols int) (Mat, error) {
	ms, err := a.request(session, plainAux, rows, cols)
	if err != nil {
		return Mat{}, err
	}
	if len(ms) != 1 {
		return Mat{}, fmt.Errorf("baselines: aux reply has %d matrices", len(ms))
	}
	return ms[0], nil
}

// callPlainOwner evaluates a delegated function over a plain-shared
// argument at the given owner actor.
func callPlainOwner(ctx *protocol.HbCCtx, owner int, name, session string, share Mat) (Mat, error) {
	step := plainFn + name
	if err := ctx.Router.Send(owner, session, step, transport.EncodeMatrices(share)); err != nil {
		return Mat{}, err
	}
	msg, err := ctx.Router.Expect(owner, session, step+plainResp)
	if err != nil {
		return Mat{}, err
	}
	ms, err := transport.DecodeMatrices(msg.Payload)
	if err != nil {
		return Mat{}, err
	}
	if len(ms) != 1 {
		return Mat{}, fmt.Errorf("baselines: fn reply has %d matrices", len(ms))
	}
	return ms[0], nil
}

// sendPlainSink reveals a plain-shared value at the owner.
func sendPlainSink(ctx *protocol.HbCCtx, owner int, name, session string, share Mat) error {
	return ctx.Router.Send(owner, session, plainSink+name, transport.EncodeMatrices(share))
}

// hbcLayer is one stage of the 2-party HbC network.
type hbcLayer interface {
	forward(ctx *protocol.HbCCtx, ac assistClient, session string, x Mat) (Mat, error)
	// backward caches the weight gradient and returns the input
	// gradient, or an empty one unless inputGrad asks for it.
	backward(ctx *protocol.HbCCtx, ac assistClient, session string, dy Mat, inputGrad bool) (Mat, error)
	update(ctx *protocol.HbCCtx, lr float64) error
}

// hbcDense is a fully connected layer over plain additive shares.
type hbcDense struct {
	w       Mat
	in, out int
	x, dW   Mat
}

func (d *hbcDense) forward(ctx *protocol.HbCCtx, ac assistClient, session string, x Mat) (Mat, error) {
	d.x = x
	triple, err := ac.matMulTriple(session+"/t", x.Rows, d.in, d.out)
	if err != nil {
		return Mat{}, err
	}
	return protocol.SecMatMul(ctx, session, x, d.w, triple, ctx.Parties[0])
}

func (d *hbcDense) backward(ctx *protocol.HbCCtx, ac assistClient, session string, dy Mat, inputGrad bool) (Mat, error) {
	tw, err := ac.matMulTriple(session+"/dw/t", d.in, dy.Rows, d.out)
	if err != nil {
		return Mat{}, err
	}
	dW, err := protocol.SecMatMul(ctx, session+"/dw", d.x.Transpose(), dy, tw, ctx.Parties[0])
	if err != nil {
		return Mat{}, err
	}
	d.dW = dW
	if !inputGrad {
		return Mat{}, nil
	}
	tx, err := ac.matMulTriple(session+"/dx/t", dy.Rows, d.out, d.in)
	if err != nil {
		return Mat{}, err
	}
	return protocol.SecMatMul(ctx, session+"/dx", dy, d.w.Transpose(), tx, ctx.Parties[0])
}

func (d *hbcDense) update(ctx *protocol.HbCCtx, lr float64) error {
	if d.dW.IsZeroShape() {
		return nil
	}
	step := d.dW.Scale(ctx.Params.FromFloat(lr)).Map(func(v int64) int64 { return v >> ctx.Params.FracBits })
	w, err := d.w.Sub(step)
	if err != nil {
		return err
	}
	d.w = w
	return nil
}

// hbcReLU reveals the activation sign via SecComp and masks locally.
type hbcReLU struct {
	mask Mat
}

func (r *hbcReLU) forward(ctx *protocol.HbCCtx, ac assistClient, session string, x Mat) (Mat, error) {
	aux, err := ac.aux(session+"/aux", x.Rows, x.Cols)
	if err != nil {
		return Mat{}, err
	}
	triple, err := ac.hadamardTriple(session+"/t", x.Rows, x.Cols)
	if err != nil {
		return Mat{}, err
	}
	zero := tensor.Matrix[int64]{Rows: x.Rows, Cols: x.Cols, Data: make([]int64, x.Size())}
	sign, err := protocol.SecComp(ctx, session, x, zero, aux, triple, ctx.Parties[0])
	if err != nil {
		return Mat{}, err
	}
	r.mask = sign.Map(func(v int64) int64 {
		if v > 0 {
			return 1
		}
		return 0
	})
	return x.Hadamard(r.mask)
}

func (r *hbcReLU) backward(_ *protocol.HbCCtx, _ assistClient, _ string, dy Mat, _ bool) (Mat, error) {
	if r.mask.IsZeroShape() {
		return Mat{}, fmt.Errorf("baselines: relu backward before forward")
	}
	return dy.Hadamard(r.mask)
}

func (r *hbcReLU) update(*protocol.HbCCtx, float64) error { return nil }

// hbcConv is the lowered convolution over plain shares.
type hbcConv struct {
	shape       tensor.ConvShape
	outChannels int
	w           Mat
	cols, dW    Mat
}

func (c *hbcConv) forward(ctx *protocol.HbCCtx, ac assistClient, session string, x Mat) (Mat, error) {
	batch := x.Rows
	cols, err := tensor.Im2ColBatch(c.shape, x)
	if err != nil {
		return Mat{}, err
	}
	c.cols = cols
	positions := c.shape.OutHeight() * c.shape.OutWidth()
	triple, err := ac.matMulTriple(session+"/t", batch*positions, c.shape.PatchSize(), c.outChannels)
	if err != nil {
		return Mat{}, err
	}
	y, err := protocol.SecMatMul(ctx, session, cols, c.w, triple, ctx.Parties[0])
	if err != nil {
		return Mat{}, err
	}
	return y.Reshape(batch, positions*c.outChannels)
}

func (c *hbcConv) backward(ctx *protocol.HbCCtx, ac assistClient, session string, dy Mat, inputGrad bool) (Mat, error) {
	if c.cols.IsZeroShape() {
		return Mat{}, fmt.Errorf("baselines: conv backward before forward")
	}
	batch := dy.Rows
	positions := c.shape.OutHeight() * c.shape.OutWidth()
	dY, err := dy.Reshape(batch*positions, c.outChannels)
	if err != nil {
		return Mat{}, err
	}
	tw, err := ac.matMulTriple(session+"/dw/t", c.shape.PatchSize(), batch*positions, c.outChannels)
	if err != nil {
		return Mat{}, err
	}
	dW, err := protocol.SecMatMul(ctx, session+"/dw", c.cols.Transpose(), dY, tw, ctx.Parties[0])
	if err != nil {
		return Mat{}, err
	}
	c.dW = dW
	if !inputGrad {
		return Mat{}, nil
	}
	tx, err := ac.matMulTriple(session+"/dx/t", batch*positions, c.outChannels, c.shape.PatchSize())
	if err != nil {
		return Mat{}, err
	}
	dCols, err := protocol.SecMatMul(ctx, session+"/dx", dY, c.w.Transpose(), tx, ctx.Parties[0])
	if err != nil {
		return Mat{}, err
	}
	return tensor.Col2ImBatch(c.shape, dCols, batch)
}

func (c *hbcConv) update(ctx *protocol.HbCCtx, lr float64) error {
	if c.dW.IsZeroShape() {
		return nil
	}
	step := c.dW.Scale(ctx.Params.FromFloat(lr)).Map(func(v int64) int64 { return v >> ctx.Params.FracBits })
	w, err := c.w.Sub(step)
	if err != nil {
		return err
	}
	c.w = w
	return nil
}

// hbcNetwork is one party's instance of the Table I network over plain
// 2-of-2 shares.
type hbcNetwork struct {
	layers []hbcLayer
	owner  int
}

func (n *hbcNetwork) logits(ctx *protocol.HbCCtx, ac assistClient, session string, x Mat) (Mat, error) {
	var err error
	for i, l := range n.layers {
		x, err = l.forward(ctx, ac, fmt.Sprintf("%s/l%d", session, i), x)
		if err != nil {
			return Mat{}, fmt.Errorf("baselines: layer %d: %w", i, err)
		}
	}
	return x, nil
}

func (n *hbcNetwork) trainBatch(ctx *protocol.HbCCtx, ac assistClient, session string, x, oneHot Mat, lr float64) error {
	batch := x.Rows
	logits, err := n.logits(ctx, ac, session, x)
	if err != nil {
		return err
	}
	probs, err := callPlainOwner(ctx, n.owner, "softmax", session+"/sm", logits)
	if err != nil {
		return err
	}
	diff, err := probs.Sub(oneHot)
	if err != nil {
		return err
	}
	grad := diff.Scale(ctx.Params.FromFloat(1.0 / float64(batch))).
		Map(func(v int64) int64 { return v >> ctx.Params.FracBits })
	// The first layer's input gradient is read by nobody.
	for i := len(n.layers) - 1; i >= 0; i-- {
		grad, err = n.layers[i].backward(ctx, ac, fmt.Sprintf("%s/b%d", session, i), grad, i > 0)
		if err != nil {
			return fmt.Errorf("baselines: layer %d backward: %w", i, err)
		}
	}
	for i, l := range n.layers {
		if err := l.update(ctx, lr); err != nil {
			return fmt.Errorf("baselines: layer %d update: %w", i, err)
		}
	}
	return nil
}
