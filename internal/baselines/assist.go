package baselines

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/trustddl/trustddl/internal/fixed"
	"github.com/trustddl/trustddl/internal/nn"
	"github.com/trustddl/trustddl/internal/sharing"
	"github.com/trustddl/trustddl/internal/tensor"
	"github.com/trustddl/trustddl/internal/transport"
)

// Mat abbreviates the ring matrix type.
type Mat = tensor.Matrix[int64]

// Wire steps of the plain-share assist protocol (SecureNN's P2-style
// assist party and the owner-side softmax service).
const (
	plainTripleHad = "pbeaver-had"
	plainTripleMat = "pbeaver-mat"
	plainAux       = "paux"
	plainFn        = "pfn/"
	plainSink      = "psink/"
	plainShutdown  = "shutdown"
	plainResp      = "/resp"
)

func encodeDims(dims ...int) []byte {
	buf := make([]byte, 0, 4*len(dims))
	for _, d := range dims {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(d))
	}
	return buf
}

func decodeDims(buf []byte, want int) ([]int, error) {
	if len(buf) != 4*want {
		return nil, fmt.Errorf("baselines: dims payload %d bytes, want %d", len(buf), 4*want)
	}
	out := make([]int, want)
	for i := range out {
		v := binary.LittleEndian.Uint32(buf[4*i:])
		if v == 0 || v > (1<<24) {
			return nil, fmt.Errorf("baselines: implausible dimension %d", v)
		}
		out[i] = int(v)
	}
	return out, nil
}

// plainServer serves N-party plain-share requests: Beaver triples and
// auxiliary matrices (the assist-party role) plus delegated unary
// functions and sinks over reconstructed values (the owner role).
type plainServer struct {
	ep      transport.Endpoint
	src     sharing.Source
	params  fixed.Params
	parties []int

	fns   map[string]func(Mat) (Mat, error)
	sinks map[string]func(session string, value Mat)

	// replicated switches responses from plain additive shares to
	// replicated 2-out-of-3 pairs (the Falcon substrate).
	replicated bool

	mu      sync.Mutex
	dealt   map[string]*plainDealt
	gathers map[string]map[int]Mat
	done    chan error
}

type plainDealt struct {
	shares  map[int][]Mat // per party: the share matrices to deliver
	replied int
}

func newPlainServer(ep transport.Endpoint, src sharing.Source, params fixed.Params, parties []int) *plainServer {
	return &plainServer{
		ep:      ep,
		src:     src,
		params:  params,
		parties: parties,
		fns:     make(map[string]func(Mat) (Mat, error)),
		sinks:   make(map[string]func(string, Mat)),
		dealt:   make(map[string]*plainDealt),
		gathers: make(map[string]map[int]Mat),
		done:    make(chan error, 1),
	}
}

func (s *plainServer) start() {
	go func() { s.done <- s.run() }()
}

func (s *plainServer) stop() error {
	_ = s.ep.Send(transport.Message{To: s.ep.Self(), Step: plainShutdown})
	select {
	case err := <-s.done:
		return err
	case <-time.After(5 * time.Second):
		return fmt.Errorf("baselines: plain server did not stop")
	}
}

func (s *plainServer) run() error {
	for {
		msg, err := s.ep.Recv(0)
		if err != nil {
			if errors.Is(err, transport.ErrClosed) {
				return nil
			}
			return err
		}
		if msg.Step == plainShutdown {
			return nil
		}
		if err := s.dispatch(msg); err != nil {
			return fmt.Errorf("baselines: plain server %q/%q: %w", msg.Session, msg.Step, err)
		}
	}
}

func (s *plainServer) isParty(id int) bool {
	for _, p := range s.parties {
		if p == id {
			return true
		}
	}
	return false
}

func (s *plainServer) dispatch(msg transport.Message) error {
	if !s.isParty(msg.From) {
		return nil
	}
	switch {
	case msg.Step == plainTripleHad || msg.Step == plainTripleMat || msg.Step == plainAux:
		return s.serveDeal(msg)
	case len(msg.Step) > len(plainFn) && msg.Step[:len(plainFn)] == plainFn:
		return s.handleGather(msg)
	case len(msg.Step) > len(plainSink) && msg.Step[:len(plainSink)] == plainSink:
		return s.handleGather(msg)
	default:
		return nil
	}
}

func (s *plainServer) serveDeal(msg transport.Message) error {
	key := msg.Session + "|" + msg.Step
	s.mu.Lock()
	entry, ok := s.dealt[key]
	s.mu.Unlock()
	if !ok {
		shares, err := s.deal(msg.Step, msg.Payload)
		if err != nil {
			return err
		}
		entry = &plainDealt{shares: shares}
		s.mu.Lock()
		s.dealt[key] = entry
		s.mu.Unlock()
	}
	payload := transport.EncodeMatrices(entry.shares[msg.From]...)
	if err := s.ep.Send(transport.Message{To: msg.From, Session: msg.Session, Step: msg.Step + plainResp, Payload: payload}); err != nil {
		return err
	}
	s.mu.Lock()
	entry.replied++
	if entry.replied >= len(s.parties) {
		delete(s.dealt, key)
	}
	s.mu.Unlock()
	return nil
}

func (s *plainServer) deal(step string, payload []byte) (map[int][]Mat, error) {
	n := len(s.parties)
	shareOut := func(ms ...Mat) (map[int][]Mat, error) {
		out := make(map[int][]Mat, n)
		for _, m := range ms {
			shares, err := sharing.CreateShares(s.src, m, n)
			if err != nil {
				return nil, err
			}
			for i, p := range s.parties {
				out[p] = append(out[p], shares[i])
				if s.replicated {
					out[p] = append(out[p], shares[(i+1)%n])
				}
			}
		}
		return out, nil
	}
	uniform := func(rows, cols int) Mat {
		m := tensor.MustNew[int64](rows, cols)
		for i := range m.Data {
			m.Data[i] = int64(s.src.Uint64())
		}
		return m
	}
	switch step {
	case plainTripleHad:
		dims, err := decodeDims(payload, 2)
		if err != nil {
			return nil, err
		}
		a, b := uniform(dims[0], dims[1]), uniform(dims[0], dims[1])
		c, err := a.Hadamard(b)
		if err != nil {
			return nil, err
		}
		return shareOut(a, b, c)
	case plainTripleMat:
		dims, err := decodeDims(payload, 3)
		if err != nil {
			return nil, err
		}
		a, b := uniform(dims[0], dims[1]), uniform(dims[1], dims[2])
		c, err := a.MatMul(b)
		if err != nil {
			return nil, err
		}
		return shareOut(a, b, c)
	case plainAux:
		dims, err := decodeDims(payload, 2)
		if err != nil {
			return nil, err
		}
		t := tensor.MustNew[int64](dims[0], dims[1])
		for i := range t.Data {
			u := float64(s.src.Uint64()>>11) / (1 << 53)
			t.Data[i] = s.params.FromFloat(0.5 + 7.5*u)
		}
		return shareOut(t)
	default:
		return nil, fmt.Errorf("baselines: unknown deal step %q", step)
	}
}

func (s *plainServer) handleGather(msg transport.Message) error {
	ms, err := transport.DecodeMatrices(msg.Payload)
	if err != nil || len(ms) != 1 {
		return nil // malformed share: ignore (HbC model assumes honesty)
	}
	key := msg.Session + "|" + msg.Step
	s.mu.Lock()
	g, ok := s.gathers[key]
	if !ok {
		g = make(map[int]Mat, len(s.parties))
		s.gathers[key] = g
	}
	g[msg.From] = ms[0]
	complete := len(g) == len(s.parties)
	if complete {
		delete(s.gathers, key)
	}
	s.mu.Unlock()
	if !complete {
		return nil
	}

	// Reconstruct the value by summing the plain shares.
	var value Mat
	for _, p := range s.parties {
		share := g[p]
		if value.IsZeroShape() {
			value = share.Clone()
			continue
		}
		if err := value.AddInPlace(share); err != nil {
			return err
		}
	}
	switch {
	case len(msg.Step) > len(plainSink) && msg.Step[:len(plainSink)] == plainSink:
		if fn, ok := s.sinks[msg.Step[len(plainSink):]]; ok {
			fn(msg.Session, value)
		}
		return nil
	default:
		fn, ok := s.fns[msg.Step[len(plainFn):]]
		if !ok {
			return fmt.Errorf("baselines: no plain function %q", msg.Step)
		}
		out, err := fn(value)
		if err != nil {
			return err
		}
		shares, err := sharing.CreateShares(s.src, out, len(s.parties))
		if err != nil {
			return err
		}
		for i, p := range s.parties {
			reply := []Mat{shares[i]}
			if s.replicated {
				reply = append(reply, shares[(i+1)%len(s.parties)])
			}
			err := s.ep.Send(transport.Message{
				To:      p,
				Session: msg.Session,
				Step:    msg.Step + plainResp,
				Payload: transport.EncodeMatrices(reply...),
			})
			if err != nil {
				return err
			}
		}
		return nil
	}
}

// plainSoftmax is the owner-side softmax for plain-share frameworks.
func plainSoftmax(params fixed.Params) func(Mat) (Mat, error) {
	return func(logits Mat) (Mat, error) {
		f := tensor.Matrix[float64]{Rows: logits.Rows, Cols: logits.Cols, Data: make([]float64, logits.Size())}
		for i, v := range logits.Data {
			f.Data[i] = params.ToFloat(v)
		}
		p := nn.SoftmaxRows(f)
		out := tensor.Matrix[int64]{Rows: p.Rows, Cols: p.Cols, Data: make([]int64, p.Size())}
		for i, v := range p.Data {
			out.Data[i] = params.FromFloat(v)
		}
		return out, nil
	}
}
