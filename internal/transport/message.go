// Package transport carries protocol messages between TrustDDL actors.
//
// The paper's prototype used the Ray framework for inter-party
// communication (§IV-A); this reproduction substitutes two pure-Go
// transports behind one interface: an in-process channel network (used
// by the benchmarks, where the four machines of the paper's testbed
// become goroutines) and a TCP network with length-prefixed framing for
// genuinely distributed deployments. Both meter the bytes they move so
// the Table II communication-cost column can be regenerated exactly.
package transport

import (
	"errors"
	"fmt"
	"time"
)

// Actor identifiers. Computing parties are 1..3 (matching the paper's
// P1..P3); the model owner and data owner are separate actors that
// parties exchange shares with (softmax delegation, share distribution).
const (
	Party1     = 1
	Party2     = 2
	Party3     = 3
	ModelOwner = 4
	DataOwner  = 5

	// NumActors is the total number of addressable actors.
	NumActors = 5
)

// ActorName returns a human-readable actor label.
func ActorName(id int) string {
	switch id {
	case Party1, Party2, Party3:
		return fmt.Sprintf("P%d", id)
	case ModelOwner:
		return "model-owner"
	case DataOwner:
		return "data-owner"
	default:
		return fmt.Sprintf("actor-%d", id)
	}
}

// Message is one protocol datagram. Session and Step name the protocol
// instance and round so receivers can demultiplex out-of-order arrivals
// (e.g. "fwd/3/fc1/mul" / "commit").
//
// Payload is read-only once sent, and one slice may go to several
// receivers (Broadcast's digest; an opening, encoded once and committed
// to by its hash). A SendInterceptor that rewrites a payload copies it.
type Message struct {
	From    int
	To      int
	Session string
	Step    string
	Payload []byte

	// Spoofed marks a message whose declared From disagreed with the
	// pinned identity of the endpoint or connection it came through.
	// From has been re-attributed to the pinned peer; ClaimedFrom keeps
	// the forged value so receivers can convict the real sender of the
	// spoofing attempt. The pinned identity is cryptographically proven
	// on a keyed TCP mesh and structural in process; on an unkeyed TCP
	// mesh it is only the (screened) handshake claim. Neither field
	// travels on the wire.
	Spoofed     bool
	ClaimedFrom int

	// DelayBy, when positive, asks the intercepted-endpoint wrapper to
	// deliver this message that much later without blocking subsequent
	// sends (per-destination ordering among delayed messages is kept).
	// Set by fault-injection interceptors; never travels on the wire.
	DelayBy time.Duration

	// poolBuf is the pooled frame buffer backing Payload on the TCP
	// read path; Release returns it. Nil on every other transport.
	poolBuf []byte
}

// Release returns the pooled frame buffer backing Payload (set by the
// TCP read path) and must only be called once the receiver is fully
// done with Payload and anything aliasing it. It is strictly opt-in: a
// receiver that never calls it loses nothing but the recycle. Because
// Message travels by value, Release must be called at most once across
// all copies of a message — the niling here only protects the copy it
// is called on. Calling it on messages from other transports, or
// repeatedly on the same copy, is a no-op.
func (m *Message) Release() {
	if m.poolBuf != nil {
		putBuf(m.poolBuf)
		m.poolBuf = nil
		m.Payload = nil
	}
}

// frameHeader is the exact framing cost per message on the TCP
// transport: u32 body length + u8 from + u8 to + two u16 label-length
// prefixes (see writeFrame). The byte meter uses the same figure on
// every transport so channel and TCP runs report comparable volume.
const frameHeader = 4 + 1 + 1 + 2 + 2

// wireSize is the exact number of bytes one frame occupies on the wire.
func (m Message) wireSize() int {
	return frameHeader + len(m.Session) + len(m.Step) + len(m.Payload)
}

// Errors shared by all transports.
var (
	// ErrTimeout reports that no matching message arrived in time; the
	// paper's parties use such timers to detect delayed or dropped
	// shares from a Byzantine party (§III-B).
	ErrTimeout = errors.New("transport: receive timed out")
	// ErrClosed reports use of a shut-down endpoint.
	ErrClosed = errors.New("transport: endpoint closed")
)

// Endpoint is one actor's attachment to the network.
type Endpoint interface {
	// Self returns the actor ID this endpoint belongs to.
	Self() int
	// Send delivers msg to msg.To. It must be safe for concurrent use.
	Send(msg Message) error
	// Recv blocks for the next inbound message, up to timeout
	// (timeout <= 0 means wait forever). Returns ErrTimeout on expiry.
	Recv(timeout time.Duration) (Message, error)
	// Close releases the endpoint; pending and future Recv calls fail
	// with ErrClosed.
	Close() error
}

// Network hands out endpoints and aggregates transfer statistics.
type Network interface {
	// Endpoint returns the attachment for the given actor. Each actor
	// must attach at most once.
	Endpoint(actor int) (Endpoint, error)
	// Stats returns a snapshot of the traffic counters.
	Stats() Stats
	// ResetStats zeroes the traffic counters (used between benchmark
	// phases so offline share distribution can be reported separately
	// from online protocol cost).
	ResetStats()
	// Close tears down the whole network.
	Close() error
}
