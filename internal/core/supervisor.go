package core

import (
	"fmt"
	"sync"
	"time"

	"github.com/trustddl/trustddl/internal/nn"
	"github.com/trustddl/trustddl/internal/party"
	"github.com/trustddl/trustddl/internal/protocol"
	"github.com/trustddl/trustddl/internal/sharing"
	"github.com/trustddl/trustddl/internal/transport"
)

// PartySupervisor runs served computing parties (ServePartyOpts)
// in-process against a RemoteParties cluster's network and can kill and
// restart individual parties mid-session — the crash/restart fault mode
// of the chaos harness, and a faithful in-process stand-in for
// cmd/trustddl-party processes dying and coming back with -rejoin.
type PartySupervisor struct {
	c    *Cluster
	opts ServeOptions

	mu           sync.Mutex
	procs        map[int]*servedProc
	interceptors map[int]transport.SendInterceptor
	adversaries  map[int]protocol.Adversary
}

type servedProc struct {
	ep   transport.Endpoint
	done chan error
}

// NewPartySupervisor creates a supervisor over the cluster's transport.
// The cluster must be configured with RemoteParties; call Start for
// each party before driving work.
func NewPartySupervisor(c *Cluster, opts ServeOptions) *PartySupervisor {
	return &PartySupervisor{
		c:            c,
		opts:         opts,
		procs:        make(map[int]*servedProc),
		interceptors: make(map[int]transport.SendInterceptor),
		adversaries:  make(map[int]protocol.Adversary),
	}
}

// SetInterceptor installs a fault-injection wrapper around party p's
// outbound traffic (drops, delays, stalls). Takes effect at the next
// Start/Restart of p.
func (s *PartySupervisor) SetInterceptor(p int, fn transport.SendInterceptor) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.interceptors[p] = fn
}

// SetAdversary makes party p Byzantine at the protocol layer (share
// corruption). Takes effect at the next Start/Restart of p.
func (s *PartySupervisor) SetAdversary(p int, adv protocol.Adversary) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.adversaries[p] = adv
}

// Start attaches party p's endpoint and launches its serve loop.
func (s *PartySupervisor) Start(p int) error { return s.start(p, false) }

// Restart brings a killed party back as a rejoining member: its serve
// loop announces the restart to the model owner, which re-provisions it
// with the architecture and weight shares from the latest checkpoint.
func (s *PartySupervisor) Restart(p int) error { return s.start(p, true) }

func (s *PartySupervisor) start(p int, rejoin bool) error {
	if p < 1 || p > sharing.NumParties {
		return fmt.Errorf("core: supervisor: no party %d", p)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, running := s.procs[p]; running {
		return fmt.Errorf("core: supervisor: party %d already running", p)
	}
	ep, err := s.c.Network().Endpoint(p)
	if err != nil {
		return fmt.Errorf("core: supervisor attach party %d: %w", p, err)
	}
	if fn := s.interceptors[p]; fn != nil {
		ep = transport.Intercepted(ep, fn)
	}
	cfg := s.c.cfg
	ctx, err := protocol.NewCtx(party.NewRouter(ep, cfg.Timeout), p, cfg.Params, cfg.Mode == Malicious)
	if err != nil {
		_ = ep.Close()
		return err
	}
	ctx.Ledger = s.c.ledger
	ctx.SuspicionTolerance = cfg.SuspicionTolerance
	ctx.Router.OnSpoof = s.c.recordSpoof
	if adv := s.adversaries[p]; adv != nil {
		ctx.Adversary = adv
	}
	opts := s.opts
	opts.Rejoin = rejoin
	proc := &servedProc{ep: ep, done: make(chan error, 1)}
	s.procs[p] = proc
	go func() {
		proc.done <- ServePartyOpts(ctx, nn.OwnerSource{Ctx: ctx}, opts)
	}()
	return nil
}

// Kill crashes party p: its endpoint closes (unblocking any in-flight
// receive) and the serve loop exits. Peers experience exactly what a
// process crash looks like — silence until timeouts fire.
func (s *PartySupervisor) Kill(p int) error {
	s.mu.Lock()
	proc, ok := s.procs[p]
	if ok {
		delete(s.procs, p)
	}
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("core: supervisor: party %d not running", p)
	}
	_ = proc.ep.Close()
	select {
	case <-proc.done:
		return nil
	case <-time.After(10 * time.Second):
		return fmt.Errorf("core: supervisor: party %d did not stop", p)
	}
}

// StopAll kills every running party (teardown).
func (s *PartySupervisor) StopAll() {
	s.mu.Lock()
	parties := make([]int, 0, len(s.procs))
	for p := range s.procs {
		parties = append(parties, p)
	}
	s.mu.Unlock()
	for _, p := range parties {
		_ = s.Kill(p)
	}
}
