package protocol

import (
	mathrand "math/rand/v2"
	"testing"

	"github.com/trustddl/trustddl/internal/commit"
	"github.com/trustddl/trustddl/internal/sharing"
	"github.com/trustddl/trustddl/internal/suspicion"
	"github.com/trustddl/trustddl/internal/transport"
)

// decodeThenRehash is the receiver's check as it stood before the
// commitment became the hash of the received bytes: decode the opening,
// then recompute the digest over the decoded matrices.
func decodeThenRehash(payload []byte, own []sharing.Bundle, commitment, haveDigest bool, digest commit.Digest) ([]sharing.Bundle, suspicion.Kind) {
	bs, err := transport.DecodeBundles(payload, len(own))
	if err != nil || !shapesMatch(bs, own) {
		return zeroBundlesLike(own), suspicion.KindCommitViolation
	}
	if !commitment {
		return bs, ""
	}
	if !haveDigest {
		return bs, suspicion.KindOpenTimeout
	}
	var flat []Mat
	for _, b := range bs {
		flat = append(flat, b.Primary, b.Hat, b.Second)
	}
	if !commit.Matrices(flat...).Equal(digest) {
		return bs, suspicion.KindCommitViolation
	}
	return bs, ""
}

func randomBundles(rng *mathrand.Rand, n int, shape func() (int, int)) []sharing.Bundle {
	bs := make([]sharing.Bundle, n)
	for i := range bs {
		r, c := shape()
		var ms [3]Mat
		for k := range ms {
			ms[k] = Mat{Rows: r, Cols: c, Data: make([]int64, r*c)}
			for j := range ms[k].Data {
				ms[k].Data[j] = int64(rng.Uint64())
			}
		}
		bs[i] = sharing.Bundle{Primary: ms[0], Hat: ms[1], Second: ms[2]}
	}
	return bs
}

// TestCommitRuleVerdictUnchanged checks, over random openings and random
// single-byte flips, truncations and extensions of their payloads, that
// hashing the received bytes flags exactly the payloads that decoding
// and re-hashing the decoded shares flagged, with the same suspicion
// kind and the same decoded shares.
func TestCommitRuleVerdictUnchanged(t *testing.T) {
	rng := mathrand.New(mathrand.NewPCG(0xc0, 0x33))
	verdicts := map[suspicion.Kind]int{}
	for iter := 0; iter < 4000; iter++ {
		n := 1 + rng.IntN(3)
		shapes := make([][2]int, n)
		for i := range shapes {
			shapes[i] = [2]int{1 + rng.IntN(4), 1 + rng.IntN(4)}
		}
		k := 0
		fixed := func() (int, int) { s := shapes[k%n]; k++; return s[0], s[1] }
		own := randomBundles(rng, n, fixed)
		sent := randomBundles(rng, n, fixed)
		if rng.IntN(10) == 0 {
			// A consistent opening of the wrong shape: committed and
			// sent alike, so only the shape check can catch it.
			sent = randomBundles(rng, n, func() (int, int) { return 1 + rng.IntN(4), 1 + rng.IntN(4) })
		}
		payload := transport.EncodeBundles(sent...)
		digest := commit.Bytes(payload)
		switch rng.IntN(4) {
		case 0: // delivered as committed
		case 1:
			payload[rng.IntN(len(payload))] ^= byte(1 + rng.IntN(255))
		case 2:
			payload = payload[:rng.IntN(len(payload))]
		default:
			for extra := 1 + rng.IntN(16); extra > 0; extra-- {
				payload = append(payload, byte(rng.Uint32()))
			}
		}
		commitment, haveDigest := rng.IntN(5) > 0, rng.IntN(10) > 0

		wantBs, want := decodeThenRehash(payload, own, commitment, haveDigest, digest)
		gotBs, got := checkOpening(payload, own, commitment, haveDigest, digest)
		if got != want {
			t.Fatalf("iteration %d: hashing the received bytes gives %q, decode-then-rehash gives %q", iter, got, want)
		}
		if !shapesMatch(gotBs, wantBs) {
			t.Fatalf("iteration %d: the two rules decoded differently shaped openings", iter)
		}
		for i := range gotBs {
			if !gotBs[i].Primary.Equal(wantBs[i].Primary) || !gotBs[i].Hat.Equal(wantBs[i].Hat) || !gotBs[i].Second.Equal(wantBs[i].Second) {
				t.Fatalf("iteration %d: the two rules decoded different shares in bundle %d", iter, i)
			}
		}

		verdicts[got]++
	}
	for _, kind := range []suspicion.Kind{"", suspicion.KindCommitViolation, suspicion.KindOpenTimeout} {
		if verdicts[kind] == 0 {
			t.Errorf("no opening drew verdict %q; the sweep does not exercise every branch", kind)
		}
	}
}
