package protocol

import (
	"fmt"
	"math"

	"github.com/trustddl/trustddl/internal/commit"
	"github.com/trustddl/trustddl/internal/sharing"
	"github.com/trustddl/trustddl/internal/suspicion"
	"github.com/trustddl/trustddl/internal/transport"
)

// Optimistic opening — an implementation of the paper's future work
// (§V: "optimizing communication by designing protocols that reduce
// redundancy").
//
// The standard BT exchange ships three matrices per bundle (primary,
// hat copy, second share). The optimistic variant ships only the
// primary and second shares, reconstructs the three per-set candidates,
// and exchanges the redundant hat copies only when the candidates
// disagree:
//
//  1. Commit to the partial opening and to the hat copies separately
//     (two digests in one message), so the fallback hats are bound by
//     the same commitment round.
//  2. Open (primary, second); every party reconstructs s¹, s², s³.
//  3. Vote: OK when all pairwise distances are within tolerance and no
//     commitment check failed; FALLBACK otherwise. Votes are
//     broadcast, so all honest parties agree on the outcome.
//  4. Unanimous OK → accept the minimum-distance value (saving the hat
//     volume, one third of the opening traffic). Any FALLBACK → open
//     the hats, verify their digest and run the full six-way decision
//     rule of Algorithm 4.
//
// Correctness under one Byzantine party: its shares feed exactly two of
// the three candidates (its primary corrupts set i₁, its second share
// corrupts set i₃), while set i₂ is reconstructed purely from honest
// shares. Forcing unanimity therefore requires matching the honest
// candidate, which the commitment phase makes infeasible — any
// effective corruption triggers the fallback, where the standard rule
// applies. A Byzantine party can always vote FALLBACK, degrading the
// optimization to standard cost, but never correctness.

// DefaultOptimisticTolerance bounds the raw-ring disagreement honest
// candidates may show (fixed-point truncation slack accumulated across
// a layer's multiplications).
const DefaultOptimisticTolerance = 64

func (ctx *Ctx) exchangeOptimistic(session, step string, bundles []sharing.Bundle) (exchangeResult, error) {
	ctx.obsExchanges.Inc()
	var res exchangeResult
	peers := ctx.Peers()
	tol := ctx.OptimisticTolerance
	if tol <= 0 {
		tol = DefaultOptimisticTolerance
	}

	own := bundles
	if ctx.Adversary != nil {
		own = ctx.Adversary.CorruptPreCommit(session, step, cloneBundles(bundles))
	}

	// As in exchangeBundles: messages still go to every peer, but receive
	// timers are spent only on peers not yet convicted this session or
	// flagged earlier in this exchange. The missing-message branches below
	// then zero-fill the skipped peers.
	alive := func() []int {
		out := make([]int, 0, len(peers))
		for _, p := range peers {
			if !ctx.Flagged[p] && !res.flagged[p] {
				out = append(out, p)
			}
		}
		return out
	}

	// flag excludes p for the rest of this exchange and records why, with
	// the kinds exchangeBundles records at the same sites. Only a peer
	// still in good standing earns evidence: one convicted earlier, or
	// flagged earlier in this exchange, was not waited for again, and
	// its absence is no new observation.
	flag := func(p int, kind suspicion.Kind, at string) {
		if !ctx.Flagged[p] && !res.flagged[p] {
			ctx.Ledger.Record(p, kind, session, at)
		}
		res.flagged[p] = true
	}

	commitStep := step + "/commit"
	partialStep := step + "/open-partial"
	voteStep := step + "/vote"
	hatStep := step + "/open-hats"

	// Round 1: commitments to the partial opening and the hats.
	var digests [sharing.NumParties + 1][2]commit.Digest
	var haveDigest [sharing.NumParties + 1]bool
	if ctx.Commitment {
		commitStart := ctx.obsStart()
		dPartial := commit.Matrices(partialMats(own)...)
		dHats := commit.Matrices(hatMats(own)...)
		payload := append(append([]byte(nil), dPartial[:]...), dHats[:]...)
		if err := ctx.Router.Broadcast(peers, session, commitStep, payload); err != nil {
			return res, fmt.Errorf("protocol: optimistic commit: %w", err)
		}
		msgs, gerr := ctx.Router.Gather(alive(), session, commitStep)
		if gerr != nil && !isTimeout(gerr) {
			return res, gerr
		}
		for _, p := range peers {
			msg, ok := msgs[p]
			if !ok || len(msg.Payload) != 2*commit.Size {
				flag(p, suspicion.KindOpenTimeout, commitStep)
				continue
			}
			copy(digests[p][0][:], msg.Payload[:commit.Size])
			copy(digests[p][1][:], msg.Payload[commit.Size:])
			haveDigest[p] = true
			msg.Release() // digests copied out; recycle the frame buffer
		}
		ctx.obsPhase(ctx.obsCommit, commitStart)
	}

	// Round 2: partial opening.
	openStart := ctx.obsStart()
	for _, p := range peers {
		toSend := own
		if ctx.Adversary != nil {
			toSend = ctx.Adversary.CorruptPostCommit(p, session, partialStep, cloneBundles(own))
		}
		if err := ctx.Router.Send(p, session, partialStep, transport.EncodeMatrices(partialMats(toSend)...)); err != nil {
			return res, fmt.Errorf("protocol: optimistic open: %w", err)
		}
	}
	// partials[p] holds (primary, second) pairs per bundle.
	var partials [sharing.NumParties + 1][][2]Mat
	partials[ctx.Index] = partialPairs(own)
	msgs, gerr := ctx.Router.Gather(alive(), session, partialStep)
	if gerr != nil && !isTimeout(gerr) {
		return res, gerr
	}
	for _, p := range peers {
		msg, ok := msgs[p]
		if !ok {
			flag(p, suspicion.KindOpenTimeout, partialStep)
			partials[p] = partialPairs(zeroBundlesLike(own))
			continue
		}
		ms, err := transport.DecodeMatrices(msg.Payload)
		// DecodeMatrices copies every share out of the payload, so the
		// frame buffer can recycle regardless of the verdict below.
		msg.Release()
		if err != nil || len(ms) != 2*len(own) {
			// Delivered but malformed: the opener shapes its own payload.
			flag(p, suspicion.KindCommitViolation, partialStep)
			partials[p] = partialPairs(zeroBundlesLike(own))
			continue
		}
		// A peer whose digests never arrived was flagged in round 1 and
		// not waited for here, so a failed check is a violation.
		if ctx.Commitment && (!haveDigest[p] || !commit.Verify(digests[p][0], ms...)) {
			flag(p, suspicion.KindCommitViolation, partialStep)
		}
		pairs := make([][2]Mat, len(own))
		shapeOK := true
		for k := range own {
			pairs[k] = [2]Mat{ms[2*k], ms[2*k+1]}
			if !pairs[k][0].SameShape(own[k].Primary) || !pairs[k][1].SameShape(own[k].Second) {
				shapeOK = false
			}
		}
		if !shapeOK {
			flag(p, suspicion.KindCommitViolation, partialStep)
			partials[p] = partialPairs(zeroBundlesLike(own))
			continue
		}
		partials[p] = pairs
	}

	// Three candidates per bundle: set j = party j's primary + party
	// next(j)'s second share.
	candidates := make([][sharing.NumParties]Mat, len(own))
	for k := range own {
		for j := 1; j <= sharing.NumParties; j++ {
			next := j%sharing.NumParties + 1
			sum, err := partials[j][k][0].Add(partials[next][k][1])
			if err != nil {
				return res, err
			}
			candidates[k][j-1] = sum
		}
	}

	// Vote on whether the candidates agree.
	myVote := byte(1)
	for p := 1; p <= sharing.NumParties; p++ {
		if res.flagged[p] || ctx.Flagged[p] {
			myVote = 0
		}
	}
	if myVote == 1 {
	agreement:
		for k := range own {
			for a := 0; a < sharing.NumParties; a++ {
				for b := a + 1; b < sharing.NumParties; b++ {
					d, err := candidates[k][a].MaxAbsDiff(candidates[k][b])
					if err != nil || d > tol {
						myVote = 0
						break agreement
					}
				}
			}
		}
	}
	if err := ctx.Router.Broadcast(peers, session, voteStep, []byte{myVote}); err != nil {
		return res, err
	}
	accept := myVote == 1
	voteMsgs, gerr := ctx.Router.Gather(alive(), session, voteStep)
	if gerr != nil && !isTimeout(gerr) {
		return res, gerr
	}
	for _, p := range peers {
		msg, ok := voteMsgs[p]
		if !ok || len(msg.Payload) != 1 || msg.Payload[0] != 1 {
			accept = false
		}
	}
	ctx.obsPhase(ctx.obsExchange, openStart)

	if accept {
		// Fast path: pick the minimum-distance candidate pair per
		// bundle (all are within tolerance of each other).
		decideStart := ctx.obsStart()
		res.decided = make([]Mat, len(own))
		for k := range own {
			best, bestD := 0, math.Inf(1)
			for a := 0; a < sharing.NumParties; a++ {
				for b := a + 1; b < sharing.NumParties; b++ {
					d, err := candidates[k][a].MaxAbsDiff(candidates[k][b])
					if err != nil {
						return res, err
					}
					if d < bestD {
						best, bestD = a, d
					}
				}
			}
			res.decided[k] = candidates[k][best]
		}
		ctx.obsPhase(ctx.obsDecide, decideStart)
		ctx.persistFlags(&res)
		return res, nil
	}

	// Fallback: open the redundant hat copies and run the full rule.
	for _, p := range peers {
		toSend := own
		if ctx.Adversary != nil {
			toSend = ctx.Adversary.CorruptPostCommit(p, session, hatStep, cloneBundles(own))
		}
		if err := ctx.Router.Send(p, session, hatStep, transport.EncodeMatrices(hatMats(toSend)...)); err != nil {
			return res, err
		}
	}
	var hats [sharing.NumParties + 1][]Mat
	hats[ctx.Index] = hatMats(own)
	hatMsgs, gerr := ctx.Router.Gather(alive(), session, hatStep)
	if gerr != nil && !isTimeout(gerr) {
		return res, gerr
	}
	for _, p := range peers {
		msg, ok := hatMsgs[p]
		if !ok {
			flag(p, suspicion.KindOpenTimeout, hatStep)
			hats[p] = hatMats(zeroBundlesLike(own))
			continue
		}
		ms, err := transport.DecodeMatrices(msg.Payload)
		msg.Release() // decoded hat copies own their storage
		if err != nil || len(ms) != len(own) {
			flag(p, suspicion.KindCommitViolation, hatStep)
			hats[p] = hatMats(zeroBundlesLike(own))
			continue
		}
		if ctx.Commitment && (!haveDigest[p] || !commit.Verify(digests[p][1], ms...)) {
			flag(p, suspicion.KindCommitViolation, hatStep)
		}
		shapeOK := true
		for k := range own {
			if !ms[k].SameShape(own[k].Hat) {
				shapeOK = false
			}
		}
		if !shapeOK {
			flag(p, suspicion.KindCommitViolation, hatStep)
			hats[p] = hatMats(zeroBundlesLike(own))
			continue
		}
		hats[p] = ms
	}
	for p := 1; p <= sharing.NumParties; p++ {
		pb := make([]sharing.Bundle, len(own))
		for k := range own {
			pb[k] = sharing.Bundle{
				Primary: partials[p][k][0],
				Hat:     hats[p][k],
				Second:  partials[p][k][1],
			}
		}
		res.bundles[p] = pb
	}
	ctx.persistFlags(&res)
	return res, nil
}

// persistFlags merges prior convictions into res and records new ones.
func (ctx *Ctx) persistFlags(res *exchangeResult) {
	for p := 1; p <= sharing.NumParties; p++ {
		if ctx.Flagged[p] {
			res.flagged[p] = true
		} else if res.flagged[p] {
			ctx.Flagged[p] = true
			ctx.obsFlags.Inc()
		}
	}
}

func partialMats(bs []sharing.Bundle) []Mat {
	out := make([]Mat, 0, 2*len(bs))
	for _, b := range bs {
		out = append(out, b.Primary, b.Second)
	}
	return out
}

func partialPairs(bs []sharing.Bundle) [][2]Mat {
	out := make([][2]Mat, len(bs))
	for i, b := range bs {
		out[i] = [2]Mat{b.Primary, b.Second}
	}
	return out
}

func hatMats(bs []sharing.Bundle) []Mat {
	out := make([]Mat, len(bs))
	for i, b := range bs {
		out[i] = b.Hat
	}
	return out
}
