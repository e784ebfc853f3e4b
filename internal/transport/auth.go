package transport

import (
	"crypto/ed25519"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"time"
)

// Keyring holds the mesh's identity keys: one ed25519 public key per
// actor, plus the private keys of the actors hosted by this process.
// A TCPNetwork configured with a keyring (TCPOptions.Keyring; loopback
// networks generate one automatically) runs a mutual challenge–response
// handshake on every connection, so the pinned peer identity is a
// cryptographic fact rather than a self-declared byte: a Byzantine
// computing party cannot dial a listener claiming to be an owner, and a
// SpoofError conviction names the true key holder.
//
// Key distribution is deliberately simple: each actor generates a seed
// (`trustddl-party -genkey`), keeps it secret, and publishes the
// 32-byte public key; every process is configured with all five public
// keys and its own seed. A keyring is immutable once handed to a
// network and safe for concurrent use.
type Keyring struct {
	pubs  map[int]ed25519.PublicKey
	privs map[int]ed25519.PrivateKey
}

// NewKeyring creates a keyring from the public keys of all five actors.
// Private keys for locally hosted actors are added with AddPrivate or
// AddPrivateSeedHex.
func NewKeyring(pubs map[int]ed25519.PublicKey) (*Keyring, error) {
	k := &Keyring{
		pubs:  make(map[int]ed25519.PublicKey, NumActors),
		privs: make(map[int]ed25519.PrivateKey),
	}
	for id := 1; id <= NumActors; id++ {
		pub, ok := pubs[id]
		if !ok {
			return nil, fmt.Errorf("transport: keyring missing public key for %s", ActorName(id))
		}
		if len(pub) != ed25519.PublicKeySize {
			return nil, fmt.Errorf("transport: %s public key is %d bytes, want %d", ActorName(id), len(pub), ed25519.PublicKeySize)
		}
		k.pubs[id] = append(ed25519.PublicKey(nil), pub...)
	}
	return k, nil
}

// KeyringFromHex builds a keyring from hex-encoded public keys, as
// distributed between trustddl-party processes.
func KeyringFromHex(pubs map[int]string) (*Keyring, error) {
	decoded := make(map[int]ed25519.PublicKey, len(pubs))
	for id, h := range pubs {
		b, err := hex.DecodeString(h)
		if err != nil {
			return nil, fmt.Errorf("transport: %s public key: %w", ActorName(id), err)
		}
		decoded[id] = b
	}
	return NewKeyring(decoded)
}

// AddPrivate registers the private key of a locally hosted actor. The
// key must match the actor's public key already in the ring.
func (k *Keyring) AddPrivate(actor int, priv ed25519.PrivateKey) error {
	if len(priv) != ed25519.PrivateKeySize {
		return fmt.Errorf("transport: %s private key is %d bytes, want %d", ActorName(actor), len(priv), ed25519.PrivateKeySize)
	}
	pub, ok := k.pubs[actor]
	if !ok {
		return fmt.Errorf("transport: keyring has no public key for %s", ActorName(actor))
	}
	if !pub.Equal(priv.Public().(ed25519.PublicKey)) {
		return fmt.Errorf("transport: private key for %s does not match its public key", ActorName(actor))
	}
	k.privs[actor] = append(ed25519.PrivateKey(nil), priv...)
	return nil
}

// AddPrivateSeedHex registers a locally hosted actor's private key from
// its hex-encoded 32-byte seed (the -genkey output).
func (k *Keyring) AddPrivateSeedHex(actor int, seedHex string) error {
	seed, err := hex.DecodeString(seedHex)
	if err != nil {
		return fmt.Errorf("transport: %s key seed: %w", ActorName(actor), err)
	}
	if len(seed) != ed25519.SeedSize {
		return fmt.Errorf("transport: %s key seed is %d bytes, want %d", ActorName(actor), len(seed), ed25519.SeedSize)
	}
	return k.AddPrivate(actor, ed25519.NewKeyFromSeed(seed))
}

// PublicHex returns an actor's public key in the hex form exchanged
// between processes.
func (k *Keyring) PublicHex(actor int) string { return hex.EncodeToString(k.pubs[actor]) }

// hasPrivate reports whether the ring can sign as the given actor.
func (k *Keyring) hasPrivate(actor int) bool {
	_, ok := k.privs[actor]
	return ok
}

// GenerateKeyring creates fresh keypairs for all five actors, private
// keys included — the configuration of a single-process mesh (loopback
// networks and tests), where no key ever crosses a process boundary.
func GenerateKeyring() (*Keyring, error) {
	k := &Keyring{
		pubs:  make(map[int]ed25519.PublicKey, NumActors),
		privs: make(map[int]ed25519.PrivateKey, NumActors),
	}
	for id := 1; id <= NumActors; id++ {
		pub, priv, err := ed25519.GenerateKey(rand.Reader)
		if err != nil {
			return nil, fmt.Errorf("transport: generate key for %s: %w", ActorName(id), err)
		}
		k.pubs[id] = pub
		k.privs[id] = priv
	}
	return k, nil
}

// GenerateSeedHex mints one fresh actor identity for deployment
// provisioning: the secret seed (keep private, pass via -key) and the
// matching public key (publish to all peers via -peer-keys).
func GenerateSeedHex() (seedHex, pubHex string, err error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return "", "", err
	}
	return hex.EncodeToString(priv.Seed()), hex.EncodeToString(pub), nil
}

// Authenticated handshake wire format ("TDL2"). Both sides prove
// possession of their actor's private key over fresh nonces, so
// neither a replay nor a key-less impersonator survives the handshake:
//
//	hello:  "TDL2" | from | to | nonceD(16)
//	ack:    "TDL2" | self | 0  | nonceA(16) | sigA(64)
//	proof:  sigD(64)
//
// sigA = Sign(priv[acceptor], "tdl2-acpt" | from | to | nonceD | nonceA)
// sigD = Sign(priv[dialer],   "tdl2-dial" | from | to | nonceD | nonceA)
//
// where from/to are the dialer's and acceptor's actor IDs. Signing the
// full transcript (both roles, both IDs, both nonces) binds each
// signature to this connection and direction.
var authMagic = [4]byte{'T', 'D', 'L', '2'}

const (
	authNonceLen = 16
	authAckLen   = 6 + authNonceLen + ed25519.SignatureSize
)

// authTranscript is the byte string both handshake signatures cover.
func authTranscript(role string, dialer, acceptor int, nonceD, nonceA []byte) []byte {
	msg := make([]byte, 0, len(role)+2+2*authNonceLen)
	msg = append(msg, role...)
	msg = append(msg, byte(dialer), byte(acceptor))
	msg = append(msg, nonceD...)
	msg = append(msg, nonceA...)
	return msg
}

// acceptAuthHandshake runs the acceptor side of the authenticated
// handshake after the 6-byte hello prefix (magic/from/to) has been read
// and validated. It returns the proven peer identity.
func acceptAuthHandshake(c net.Conn, self, peer int, k *Keyring) (int, error) {
	priv, ok := k.privs[self]
	if !ok {
		return 0, fmt.Errorf("transport: keyring holds no private key for %s", ActorName(self))
	}
	var nonceD [authNonceLen]byte
	if _, err := io.ReadFull(c, nonceD[:]); err != nil {
		return 0, err
	}
	var nonceA [authNonceLen]byte
	if _, err := io.ReadFull(rand.Reader, nonceA[:]); err != nil {
		return 0, err
	}
	sigA := ed25519.Sign(priv, authTranscript("tdl2-acpt", peer, self, nonceD[:], nonceA[:]))
	ack := make([]byte, 0, authAckLen)
	ack = append(ack, authMagic[:]...)
	ack = append(ack, byte(self), 0)
	ack = append(ack, nonceA[:]...)
	ack = append(ack, sigA...)
	if _, err := c.Write(ack); err != nil {
		return 0, err
	}
	var sigD [ed25519.SignatureSize]byte
	if _, err := io.ReadFull(c, sigD[:]); err != nil {
		return 0, err
	}
	if !ed25519.Verify(k.pubs[peer], authTranscript("tdl2-dial", peer, self, nonceD[:], nonceA[:]), sigD[:]) {
		return 0, fmt.Errorf("transport: handshake proof for %s failed verification", ActorName(peer))
	}
	return peer, nil
}

// dialAuthHandshake runs the dialer side of the authenticated
// handshake, proving this endpoint's identity and verifying the
// acceptor is the intended key holder.
func dialAuthHandshake(c net.Conn, self, peer int, k *Keyring) error {
	priv, ok := k.privs[self]
	if !ok {
		return fmt.Errorf("transport: keyring holds no private key for %s", ActorName(self))
	}
	var nonceD [authNonceLen]byte
	if _, err := io.ReadFull(rand.Reader, nonceD[:]); err != nil {
		return err
	}
	hello := make([]byte, 0, 6+authNonceLen)
	hello = append(hello, authMagic[:]...)
	hello = append(hello, byte(self), byte(peer))
	hello = append(hello, nonceD[:]...)
	if _, err := c.Write(hello); err != nil {
		return err
	}
	var ack [authAckLen]byte
	if _, err := io.ReadFull(c, ack[:]); err != nil {
		return err
	}
	if [4]byte(ack[:4]) != authMagic {
		return errors.New("transport: bad authenticated handshake ack")
	}
	if got := int(ack[4]); got != peer {
		return fmt.Errorf("transport: dialed %s but reached %s", ActorName(peer), ActorName(got))
	}
	nonceA := ack[6 : 6+authNonceLen]
	sigA := ack[6+authNonceLen:]
	if !ed25519.Verify(k.pubs[peer], authTranscript("tdl2-acpt", self, peer, nonceD[:], nonceA), sigA) {
		return fmt.Errorf("transport: %s failed to prove its identity", ActorName(peer))
	}
	sigD := ed25519.Sign(priv, authTranscript("tdl2-dial", self, peer, nonceD[:], nonceA))
	_, err := c.Write(sigD)
	return err
}

// remoteAllowed is the best-effort screen applied to inbound
// connections on an unkeyed mesh: when the configured address of the
// claimed actor is an IP literal, the connection must originate from
// that IP. It stops a third host from borrowing a mesh identity but
// not a NAT'd or co-located forger — deployments facing Byzantine
// peers must configure a keyring, which replaces this check with a
// cryptographic one.
func remoteAllowed(cfgAddr string, remote net.Addr) bool {
	cfgHost, _, err := net.SplitHostPort(cfgAddr)
	if err != nil {
		return true // unparseable config: nothing to compare against
	}
	cfgIP := net.ParseIP(cfgHost)
	if cfgIP == nil {
		return true // hostname: resolving here would be guesswork
	}
	remoteHost, _, err := net.SplitHostPort(remote.String())
	if err != nil {
		return true
	}
	remoteIP := net.ParseIP(remoteHost)
	if remoteIP == nil {
		return true
	}
	return cfgIP.Equal(remoteIP)
}

// handshakeTimeout applies a full-handshake deadline around fn.
func handshakeTimeout(c net.Conn, timeout time.Duration, fn func() error) error {
	_ = c.SetDeadline(time.Now().Add(timeout))
	defer c.SetDeadline(time.Time{})
	return fn()
}
