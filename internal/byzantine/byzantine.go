// Package byzantine provides reusable adversary strategies for fault
// injection: the share-corruption behaviours of the paper's security
// analysis (Cases 1–3, Appendix) as protocol.Adversary implementations,
// and message-level delay/drop behaviours as transport interceptors.
//
// These power the framework's robustness tests, the `examples/byzantine`
// walkthrough, and the malicious-adversary rows of the Table II
// benchmark.
package byzantine

import (
	"strings"
	"sync/atomic"
	"time"

	"github.com/trustddl/trustddl/internal/protocol"
	"github.com/trustddl/trustddl/internal/sharing"
	"github.com/trustddl/trustddl/internal/transport"
)

// honest provides pass-through defaults for embedding.
type honest struct{}

func (honest) CorruptPreCommit(_, _ string, bs []sharing.Bundle) []sharing.Bundle { return bs }

func (honest) CorruptPostCommit(_ int, _, _ string, bs []sharing.Bundle) []sharing.Bundle {
	return bs
}

// Honest is the no-op adversary (useful as an explicit default).
type Honest struct{ honest }

var _ protocol.Adversary = Honest{}

// ConsistentLiar implements Case 3: it corrupts its shares *before*
// the commitment phase, so hash checks pass and only the minimum-
// distance decision rule can neutralize it.
type ConsistentLiar struct {
	honest

	// Delta is added to every primary-share element (and subtracted
	// from every second-share element) of the opened bundles.
	Delta int64
}

var _ protocol.Adversary = ConsistentLiar{}

// CorruptPreCommit implements protocol.Adversary.
func (a ConsistentLiar) CorruptPreCommit(_, _ string, bs []sharing.Bundle) []sharing.Bundle {
	d := a.Delta
	if d == 0 {
		d = 1 << 38
	}
	for i := range bs {
		for j := range bs[i].Primary.Data {
			bs[i].Primary.Data[j] += d
		}
		for j := range bs[i].Second.Data {
			bs[i].Second.Data[j] -= d
		}
	}
	return bs
}

// CommitViolator implements Case 1: it commits to its honest shares
// but opens corrupted ones to everybody, so every honest party's hash
// check convicts it.
type CommitViolator struct {
	honest

	Delta int64
}

var _ protocol.Adversary = CommitViolator{}

// CorruptPostCommit implements protocol.Adversary.
func (a CommitViolator) CorruptPostCommit(_ int, _, _ string, bs []sharing.Bundle) []sharing.Bundle {
	return flip(bs, a.Delta)
}

// Equivocator implements Case 2: it opens corrupted shares only to
// Target, so the honest parties cannot reach consensus on the offender
// — yet each recovers independently.
type Equivocator struct {
	honest

	Target int
	Delta  int64
}

var _ protocol.Adversary = Equivocator{}

// CorruptPostCommit implements protocol.Adversary.
func (a Equivocator) CorruptPostCommit(to int, _, _ string, bs []sharing.Bundle) []sharing.Bundle {
	if to != a.Target {
		return bs
	}
	return flip(bs, a.Delta)
}

func flip(bs []sharing.Bundle, delta int64) []sharing.Bundle {
	if delta == 0 {
		delta = 1 << 39
	}
	for i := range bs {
		for j := range bs[i].Hat.Data {
			bs[i].Hat.Data[j] += delta
		}
		for j := range bs[i].Primary.Data {
			bs[i].Primary.Data[j] -= delta
		}
	}
	return bs
}

// DropOpenings returns a transport interceptor that silently discards
// every share-opening message, modelling a party that commits and then
// goes silent. Honest parties detect it via their receive timers.
func DropOpenings() transport.SendInterceptor {
	return func(msg transport.Message) *transport.Message {
		if strings.HasSuffix(msg.Step, "/open") {
			return nil
		}
		return &msg
	}
}

// DropAll returns an interceptor for a fully crashed party: nothing it
// sends reaches anyone (the crash-fault model of SafeML).
func DropAll() transport.SendInterceptor {
	return func(transport.Message) *transport.Message {
		return nil
	}
}

// Delay returns an interceptor that delays every matching message by d,
// modelling the "deliberately delays its messages" behaviour of
// §III-B. Steps is a suffix filter; empty means all messages.
//
// Delivery is asynchronous: the send returns immediately and the
// intercepted endpoint ships the message d later, so the delayed party
// models link latency, not a frozen writer — its unmatched messages
// (and messages to other peers) are not head-of-line blocked. Matching
// messages to the same destination keep their relative order; an
// unmatched message can overtake a delayed one, as on a real network.
func Delay(d time.Duration, stepSuffix string) transport.SendInterceptor {
	return func(msg transport.Message) *transport.Message {
		if stepSuffix == "" || strings.HasSuffix(msg.Step, stepSuffix) {
			msg.DelayBy = d
		}
		return &msg
	}
}

// SpoofFrom returns an interceptor for a sender-spoofing party: every
// matching outbound message claims to originate from actor `claim`
// instead of the real sender. On both transports the receiver (or the
// sending endpoint itself, in process) re-attributes the message to
// the pinned connection identity and flags it, so the router records a
// party.SpoofError against the real sender and the forgery convicts
// its author instead of the framed peer. On an unkeyed TCP mesh the
// pinned identity is only self-declared, so the conviction is advisory
// there; a keyed mesh makes it sound. Steps is a suffix filter; empty
// spoofs all messages.
func SpoofFrom(claim int, stepSuffix string) transport.SendInterceptor {
	return func(msg transport.Message) *transport.Message {
		if stepSuffix == "" || strings.HasSuffix(msg.Step, stepSuffix) {
			msg.From = claim
		}
		return &msg
	}
}

// StallWriter returns an interceptor for a stalled writer: matching
// sends block until release is closed, then go out (stale). Unlike
// Delay's fixed sleep, the blockage is indefinite from the protocol's
// point of view — honest parties' receive timers flag the stall, and
// closing release afterwards exercises late-frame handling (a drained
// round must not be corrupted by frames that finally flush).
func StallWriter(release <-chan struct{}, stepSuffix string) transport.SendInterceptor {
	return func(msg transport.Message) *transport.Message {
		if stepSuffix == "" || strings.HasSuffix(msg.Step, stepSuffix) {
			<-release
		}
		return &msg
	}
}

// Gate toggles a fault window at runtime, so chaos schedules can turn
// a behaviour on for a few batches and off again. The zero value is
// off (fault inactive).
type Gate struct{ on atomic.Bool }

// Set switches the fault window on or off.
func (g *Gate) Set(on bool) { g.on.Store(on) }

// On reports whether the fault window is active.
func (g *Gate) On() bool { return g.on.Load() }

// Adversary wraps adv so it only corrupts while the gate is on; outside
// the window the party behaves honestly.
func (g *Gate) Adversary(adv protocol.Adversary) protocol.Adversary {
	return gatedAdversary{gate: g, inner: adv}
}

type gatedAdversary struct {
	gate  *Gate
	inner protocol.Adversary
}

func (a gatedAdversary) CorruptPreCommit(session, step string, bs []sharing.Bundle) []sharing.Bundle {
	if !a.gate.On() {
		return bs
	}
	return a.inner.CorruptPreCommit(session, step, bs)
}

func (a gatedAdversary) CorruptPostCommit(to int, session, step string, bs []sharing.Bundle) []sharing.Bundle {
	if !a.gate.On() {
		return bs
	}
	return a.inner.CorruptPostCommit(to, session, step, bs)
}

// CrashRestart returns an interceptor modelling a crash-restart fault:
// while the gate is on the party is dark — everything it sends is
// dropped — and when the gate closes it resumes sending, as a process
// that died and came back. Use core.Cluster's Kill and Restart for a
// real kill/restart (process state lost, rejoin required); this
// interceptor models the lighter fault where only connectivity dies.
func CrashRestart(down *Gate) transport.SendInterceptor {
	return func(msg transport.Message) *transport.Message {
		if down.On() {
			return nil
		}
		return &msg
	}
}

// StallWhile returns an interceptor for a windowed stalled writer:
// matching sends block while the gate is on and flush once it closes.
// Unlike StallWriter's one-shot release channel, the window can be
// opened and closed repeatedly from a chaos schedule.
func StallWhile(g *Gate, stepSuffix string) transport.SendInterceptor {
	return func(msg transport.Message) *transport.Message {
		if stepSuffix == "" || strings.HasSuffix(msg.Step, stepSuffix) {
			for g.On() {
				time.Sleep(time.Millisecond)
			}
		}
		return &msg
	}
}

// CorruptPayload returns an interceptor that flips bits in every
// matching payload in transit — a lower-level corruption than the
// protocol adversaries, caught by the commitment check because the
// wire bytes no longer hash to the committed digest.
func CorruptPayload(stepSuffix string) transport.SendInterceptor {
	return func(msg transport.Message) *transport.Message {
		if stepSuffix != "" && !strings.HasSuffix(msg.Step, stepSuffix) {
			return &msg
		}
		if len(msg.Payload) > 16 {
			corrupted := append([]byte(nil), msg.Payload...)
			// Flip a byte inside the matrix body, past the headers.
			corrupted[len(corrupted)/2] ^= 0x5a
			msg.Payload = corrupted
		}
		return &msg
	}
}
