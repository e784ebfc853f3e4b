package transport

import (
	"fmt"
	"sync"

	"github.com/trustddl/trustddl/internal/obs"
)

// Stats aggregates traffic counters for one network, kept separately
// for the two directions. In a multi-process deployment each process
// meters only its own endpoints: what the local endpoints put on the
// wire (Messages/Bytes) and what they took off it
// (RecvMessages/RecvBytes). On a single-process network (channel or
// loopback TCP) the two directions therefore mirror each other.
type Stats struct {
	// Messages is the total number of messages sent by local endpoints.
	Messages int64
	// Bytes is the total sent wire volume (payload plus framing). The
	// Table II "Comm. (MB)" column is this counter.
	Bytes int64
	// RecvMessages is the total number of messages received by local
	// endpoints, metered where Recv hands a message to the application
	// (both transports), so it counts only what was actually received.
	RecvMessages int64
	// RecvBytes is the total received wire volume.
	RecvBytes int64
	// PerActor breaks the totals down by actor (index = actor ID;
	// index 0 unused): sends are attributed to the sending actor,
	// receives to the receiving actor.
	PerActor [NumActors + 1]ActorStats
}

// ActorStats counts one actor's traffic in both directions.
type ActorStats struct {
	Messages     int64
	Bytes        int64
	RecvMessages int64
	RecvBytes    int64
}

// MegaBytes converts the sent-byte total to the MB unit used by
// Table II.
func (s Stats) MegaBytes() float64 {
	return float64(s.Bytes) / (1024 * 1024)
}

// RecvMegaBytes converts the received-byte total to MB.
func (s Stats) RecvMegaBytes() float64 {
	return float64(s.RecvBytes) / (1024 * 1024)
}

// meterObs caches the registry counters the meter mirrors itself into,
// so the per-message cost of live metrics is a handful of atomic adds
// with no name lookups. The counters are bumped inside the same
// critical section that updates Stats, which keeps the two views
// bit-for-bit equal at every instant a snapshot can observe.
type meterObs struct {
	sentMsgs, sentBytes, recvMsgs, recvBytes *obs.Counter
	actor                                    [NumActors + 1]actorObs
}

type actorObs struct {
	sentMsgs, sentBytes, recvMsgs, recvBytes *obs.Counter
}

// meter is the concurrency-safe counter shared by a network's
// endpoints. Both directions are recorded only after the corresponding
// I/O succeeded, so a broken connection never inflates the counters.
type meter struct {
	mu    sync.Mutex
	stats Stats
	obs   *meterObs
}

// setObs mirrors the meter into reg's counters from now on (nil
// detaches). Traffic metered before the attach is not replayed into
// reg; attach before traffic flows for exact equivalence.
func (m *meter) setObs(reg *obs.Registry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if reg == nil {
		m.obs = nil
		return
	}
	mo := &meterObs{
		sentMsgs:  reg.Counter("transport.sent.messages"),
		sentBytes: reg.Counter("transport.sent.bytes"),
		recvMsgs:  reg.Counter("transport.recv.messages"),
		recvBytes: reg.Counter("transport.recv.bytes"),
	}
	for id := 1; id <= NumActors; id++ {
		prefix := fmt.Sprintf("transport.actor.%d", id)
		mo.actor[id] = actorObs{
			sentMsgs:  reg.Counter(prefix + ".sent.messages"),
			sentBytes: reg.Counter(prefix + ".sent.bytes"),
			recvMsgs:  reg.Counter(prefix + ".recv.messages"),
			recvBytes: reg.Counter(prefix + ".recv.bytes"),
		}
	}
	m.obs = mo
}

func (m *meter) recordSend(msg Message) { m.addSend(msg, 1) }

// addSend counts n sends of msg; n = -1 takes a counted send back.
func (m *meter) addSend(msg Message, n int64) {
	sz := n * int64(msg.wireSize())
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stats.Messages += n
	m.stats.Bytes += sz
	if m.obs != nil {
		m.obs.sentMsgs.Add(n)
		m.obs.sentBytes.Add(sz)
	}
	if msg.From >= 1 && msg.From <= NumActors {
		m.stats.PerActor[msg.From].Messages += n
		m.stats.PerActor[msg.From].Bytes += sz
		if m.obs != nil {
			m.obs.actor[msg.From].sentMsgs.Add(n)
			m.obs.actor[msg.From].sentBytes.Add(sz)
		}
	}
}

func (m *meter) recordRecv(msg Message) {
	sz := int64(msg.wireSize())
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stats.RecvMessages++
	m.stats.RecvBytes += sz
	if m.obs != nil {
		m.obs.recvMsgs.Inc()
		m.obs.recvBytes.Add(sz)
	}
	if msg.To >= 1 && msg.To <= NumActors {
		m.stats.PerActor[msg.To].RecvMessages++
		m.stats.PerActor[msg.To].RecvBytes += sz
		if m.obs != nil {
			m.obs.actor[msg.To].recvMsgs.Inc()
			m.obs.actor[msg.To].recvBytes.Add(sz)
		}
	}
}

func (m *meter) snapshot() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

func (m *meter) reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.obs != nil {
		// Rewind the mirrored counters by exactly what the stats drop,
		// so "obs view == meter view" holds across benchmark-style
		// offline/online resets too.
		m.obs.sentMsgs.Add(-m.stats.Messages)
		m.obs.sentBytes.Add(-m.stats.Bytes)
		m.obs.recvMsgs.Add(-m.stats.RecvMessages)
		m.obs.recvBytes.Add(-m.stats.RecvBytes)
		for id := 1; id <= NumActors; id++ {
			a := m.stats.PerActor[id]
			m.obs.actor[id].sentMsgs.Add(-a.Messages)
			m.obs.actor[id].sentBytes.Add(-a.Bytes)
			m.obs.actor[id].recvMsgs.Add(-a.RecvMessages)
			m.obs.actor[id].recvBytes.Add(-a.RecvBytes)
		}
	}
	m.stats = Stats{}
}

// ObsSetter is implemented by networks whose traffic meter can be
// mirrored into an obs registry.
type ObsSetter interface {
	SetObs(*obs.Registry)
}

// AttachObs attaches reg to n's traffic meter, unwrapping decorator
// networks (e.g. the latency wrapper). It reports whether a metering
// transport was found.
func AttachObs(n Network, reg *obs.Registry) bool {
	for n != nil {
		if s, ok := n.(ObsSetter); ok {
			s.SetObs(reg)
			return true
		}
		u, ok := n.(interface{ Unwrap() Network })
		if !ok {
			return false
		}
		n = u.Unwrap()
	}
	return false
}
