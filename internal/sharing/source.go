// Package sharing implements TrustDDL's additive secret sharing: the
// N-way CreateShares primitive (Algorithm 1), the three-set replicated
// distribution scheme of Fig. 1, the six-way redundant reconstruction
// with the minimum-distance decision rule (§III-B), and the trusted
// dealer that produces Beaver triples and auxiliary positive matrices
// (the model owner's role, §III-A).
package sharing

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	mathrand "math/rand/v2"
)

// Source yields the randomness for share generation. Shares must be
// uniform over the full two's-complement ring for the masking arguments
// of §II and the simulatability proof (Theorem 6.1) to hold.
type Source interface {
	// Uint64 returns a uniformly distributed 64-bit value.
	Uint64() uint64
}

// CryptoSource draws from crypto/rand with internal buffering. The zero
// value is ready to use. It is not safe for concurrent use; give each
// party its own.
type CryptoSource struct {
	buf [4096]byte
	n   int // unread bytes remaining at the tail of buf
}

// Uint64 implements Source. crypto/rand failures are unrecoverable
// (the platform RNG is broken); they surface as a panic, matching
// crypto/rand.Read's own contract of never failing on supported
// platforms.
func (s *CryptoSource) Uint64() uint64 {
	if s.n < 8 {
		if _, err := rand.Read(s.buf[:]); err != nil {
			panic(fmt.Sprintf("sharing: platform RNG failed: %v", err))
		}
		s.n = len(s.buf)
	}
	off := len(s.buf) - s.n
	v := binary.LittleEndian.Uint64(s.buf[off : off+8])
	s.n -= 8
	return v
}

// SeededSource is a deterministic Source for tests and reproducible
// experiments. It must not be used for deployments where computing
// parties are genuinely untrusted.
type SeededSource struct {
	rng *mathrand.Rand
}

// NewSeededSource returns a deterministic source seeded with seed.
func NewSeededSource(seed uint64) *SeededSource {
	return &SeededSource{rng: mathrand.New(mathrand.NewPCG(seed, seed^0x9e3779b97f4a7c15))}
}

// Uint64 implements Source.
func (s *SeededSource) Uint64() uint64 { return s.rng.Uint64() }

// ringElement draws one uniform ring element.
func ringElement(src Source) int64 {
	return int64(src.Uint64())
}
