// Package commit implements the commitment phase of TrustDDL's
// Byzantine-tolerant protocols (§III-B): SHA-256 over the opening's
// wire encoding.
//
// Before exchanging intermediate shares, every computing party sends
// the SHA-256 digest (the paper uses SHA-256, §IV-A) of the payload it
// is about to open. Shares are exchanged only after all commitment
// values arrived; receivers then hash the bytes they received and
// compare. A Byzantine party that commits to one share vector but opens
// another is detected (Case 1/2 of the security analysis); a party that
// commits to incorrect shares consistently survives the hash check but
// cannot force agreement between the reconstructions it corrupts,
// because it committed before seeing any honest share.
//
// Hashing the received bytes binds the decoded shares as tightly as
// hashing the shares themselves: the wire decoder is strict (it checks
// the count, every shape and the length, and rejects trailing bytes),
// so the encoding is injective and a payload decodes to a given share
// vector exactly when its bytes equal that vector's encoding.
package commit

import (
	"crypto/sha256"
	"crypto/subtle"

	"github.com/trustddl/trustddl/internal/tensor"
	"github.com/trustddl/trustddl/internal/transport"
)

// Size is the digest length in bytes.
const Size = sha256.Size

// Digest is a SHA-256 commitment value.
type Digest [Size]byte

// Equal compares two digests in constant time.
func (d Digest) Equal(o Digest) bool {
	return subtle.ConstantTimeCompare(d[:], o[:]) == 1
}

// Bytes commits to an encoded opening: the digest of the payload as it
// is sent and as it is received.
func Bytes(payload []byte) Digest {
	return sha256.Sum256(payload)
}

// Matrices commits to a sequence of ring matrices: the digest of their
// transport.EncodeMatrices form, so Matrices(ms...) equals the Bytes of
// the payload that opens ms.
func Matrices(ms ...tensor.Matrix[int64]) Digest {
	return Bytes(transport.EncodeMatrices(ms...))
}
