package nn

import (
	"fmt"

	"github.com/trustddl/trustddl/internal/protocol"
)

// Triple plans: the secure network architecture is static, so the
// exact sequence of correlated-randomness requests a forward pass or
// training step will issue — kind, dims and session string — is known
// before the first protocol round. LogitsPlan and TrainPlan replay
// the layer walk of Logits/TrainBatch without touching shares,
// minting the same session strings the layers mint, and return the
// ordered request list that a protocol.PrefetchSource pipelines ahead
// of the consuming layers (the offline/online split of §III-A). A
// parameterised layer's inference request names its weight mask
// exactly as the layer will; whether the dealer answers with a full
// triple or with a pair against the retained mask is the dealer's to
// say. Its training request names none and carries the backward pair
// exactly when the step wants the layer's input gradient.

// LogitsPlan enumerates the triple requests one Logits call will
// issue, in consumption order, for a batch of the given size and
// flattened input width under the given session prefix.
func (n *SecureNetwork) LogitsPlan(session string, batch, inputWidth int) ([]protocol.TripleRequest, error) {
	var plan []protocol.TripleRequest
	_, err := n.forwardPlan(&plan, session, batch, inputWidth, false)
	return plan, err
}

// TrainPlan enumerates the triple requests one TrainBatch call will
// issue: the training forward pass, then each parameterised layer's
// weight-gradient triple in reverse layer order — the input gradients
// ride on the forward's deals. The delegated softmax is a gather step,
// not a triple, and does not appear.
func (n *SecureNetwork) TrainPlan(session string, batch, inputWidth int) ([]protocol.TripleRequest, error) {
	var plan []protocol.TripleRequest
	if _, err := n.forwardPlan(&plan, session, batch, inputWidth, true); err != nil {
		return nil, err
	}
	for i := len(n.Layers) - 1; i >= n.firstWeighted(); i-- {
		s := fmt.Sprintf("%s/b%d/dw/t", session, i)
		switch l := n.Layers[i].(type) {
		case *SecureDense:
			// dW = xᵀ·dy.
			plan = append(plan, protocol.TripleRequest{Kind: protocol.ReqMatMul, Session: s, M: l.in, N: batch, P: l.out})
		case *SecureConv:
			positions := l.Shape.OutHeight() * l.Shape.OutWidth()
			plan = append(plan, protocol.TripleRequest{Kind: protocol.ReqMatMul, Session: s, M: l.Shape.PatchSize(), N: batch * positions, P: l.OutChannels})
		case *SecureReLU, *SecureMaxPool, *SecureAvgPool:
			// Backward is local: masks and gradient routing were fixed
			// by the forward comparisons.
		default:
			return nil, fmt.Errorf("nn: cannot plan layer %d (%T)", i, n.Layers[i])
		}
	}
	return plan, nil
}

// forwardPlan appends the forward-pass requests and returns the output
// width, tracking the activation width through the layer stack the
// same way the shapes flow through Forward calls. With train, the
// parameterised layers' requests are those of a training step's
// forward (SecureNetwork.forward).
func (n *SecureNetwork) forwardPlan(plan *[]protocol.TripleRequest, session string, batch, width int, train bool) (int, error) {
	if batch <= 0 || width <= 0 {
		return 0, fmt.Errorf("nn: cannot plan %d×%d input", batch, width)
	}
	for i, layer := range n.Layers {
		s := fmt.Sprintf("%s/l%d", session, i)
		p := n.layerPass(i, train)
		mask, backPair := p.mask(s), p == trainingInputGrad
		switch l := layer.(type) {
		case *SecureDense:
			if width != l.in {
				return 0, fmt.Errorf("nn: plan layer %d: dense input width %d, want %d", i, width, l.in)
			}
			*plan = append(*plan, protocol.TripleRequest{Kind: protocol.ReqMatMul, Session: s + "/t", M: batch, N: l.in, P: l.out, Mask: mask, BackPair: backPair})
			width = l.out
		case *SecureReLU:
			*plan = append(*plan, protocol.TripleRequest{Kind: protocol.ReqAux, Session: s + "/aux", M: batch, N: width})
		case *SecureConv:
			if in := l.Shape.InSize(); width != in {
				return 0, fmt.Errorf("nn: plan layer %d: conv input width %d, want %d", i, width, in)
			}
			r := protocol.ConvRequest(s+"/t", mask, l.Shape, batch, l.OutChannels)
			r.BackPair = backPair
			*plan = append(*plan, r)
			width = l.OutSize()
		case *SecureMaxPool:
			if width != l.Shape.InSize() {
				return 0, fmt.Errorf("nn: plan layer %d: maxpool input width %d, want %d", i, width, l.Shape.InSize())
			}
			out := l.Shape.OutSize()
			slots := l.Shape.Window * l.Shape.Window
			for j := 1; j < slots; j++ {
				ss := fmt.Sprintf("%s/cmp%d", s, j)
				*plan = append(*plan, protocol.TripleRequest{Kind: protocol.ReqAux, Session: ss + "/aux", M: batch, N: out})
			}
			width = out
		case *SecureAvgPool:
			if width != l.Shape.InSize() {
				return 0, fmt.Errorf("nn: plan layer %d: avgpool input width %d, want %d", i, width, l.Shape.InSize())
			}
			width = l.Shape.OutSize() // averaging is local; no requests
		default:
			return 0, fmt.Errorf("nn: cannot plan layer %d (%T)", i, layer)
		}
	}
	return width, nil
}
