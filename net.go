package trustddl

import (
	"time"

	"github.com/trustddl/trustddl/internal/transport"
)

// Network is the transport abstraction a cluster runs over.
type Network = transport.Network

// Stats snapshots a network's traffic counters (the "Comm. (MB)"
// column of Table II is Stats().MegaBytes()).
type Stats = transport.Stats

// Actor identifiers on a network, matching the paper's Fig. 1.
const (
	Party1     = transport.Party1
	Party2     = transport.Party2
	Party3     = transport.Party3
	ModelOwner = transport.ModelOwner
	DataOwner  = transport.DataOwner
	// NumActors is the mesh size (three parties plus the two owners).
	NumActors = transport.NumActors
)

// NewChanNetwork creates the in-process transport (goroutine parties;
// the default when Config.Net is nil).
func NewChanNetwork() Network { return transport.NewChanNetwork() }

// NewTCPNetwork creates the distributed transport over an
// actor→address map; each process binds the actors it hosts and dials
// the rest on demand. Without a keyring the mesh runs identification-only
// handshakes — use NewTCPNetworkWithKeyring for authenticated
// deployments (see DESIGN.md §8).
func NewTCPNetwork(addrs map[int]string) Network {
	return transport.NewTCPNetwork(addrs, transport.TCPOptions{})
}

// Keyring holds the mesh's ed25519 identities: all five actors' public
// keys plus the private keys of the actors this process runs.
type Keyring = transport.Keyring

// KeyringFromHex builds a keyring from hex-encoded public keys for all
// five actors (the format printed by `trustddl-party -genkey`). Add
// this process's own seeds with Keyring.AddPrivateSeedHex.
func KeyringFromHex(pubs map[int]string) (*Keyring, error) {
	return transport.KeyringFromHex(pubs)
}

// GenerateSeedHex mints a fresh ed25519 identity, returning the private
// seed (keep secret) and the public key (publish to the mesh), both hex.
func GenerateSeedHex() (seedHex, pubHex string, err error) {
	return transport.GenerateSeedHex()
}

// NewTCPNetworkWithKeyring creates the distributed transport with
// mutually authenticated ed25519 handshakes: sender attribution (and
// Byzantine spoof conviction) then holds even against malicious
// insiders. The owners' driver typically holds the ModelOwner and
// DataOwner seeds in one process.
func NewTCPNetworkWithKeyring(addrs map[int]string, k *Keyring) Network {
	return transport.NewTCPNetwork(addrs, transport.TCPOptions{Keyring: k})
}

// NewLoopbackTCPNetwork binds all five actors to ephemeral loopback
// ports in this process — the single-machine distributed configuration.
func NewLoopbackTCPNetwork() (Network, error) { return transport.NewLoopbackTCPNetwork() }

// WithLatency wraps a network with a simulated one-way propagation
// delay (a WAN stand-in for sensitivity experiments; FIFO order per
// sender is preserved and pipelined sends overlap their latencies).
func WithLatency(n Network, d time.Duration) Network { return transport.WithLatency(n, d) }
