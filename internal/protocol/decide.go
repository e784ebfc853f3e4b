package protocol

import (
	"github.com/trustddl/trustddl/internal/sharing"
)

// decideJoint applies the decision rule of Algorithm 4 (line 20) —
// sharing.Reconstructions.DecideRows — to one or more reconstruction
// sets: every row of every opened matrix picks its own pair (j, k),
// j ≠ k, among the unflagged reconstructions, the canonical first pair
// within HonestSlack of the row's minimum distance. Per-row decisions
// are what make a batched opening row-decomposable: after a truncating
// step the six candidate reconstructions disagree by share-local carry
// bits, and a matrix-global pair choice would let one batch row's
// carries select the reconstruction used for another row — the batched
// step would then diverge from its sequential replay
// (nn.TestBatchDenseForwardBitIdentical fails under such a rule). Each
// set keeps its candidates' deviations from the decided value for
// Suspect.
func decideJoint(recs ...*sharing.Reconstructions) ([]Mat, error) {
	if len(recs) == 0 {
		return nil, sharing.ErrNoConsensus
	}
	out := make([]Mat, len(recs))
	for i, r := range recs {
		v, _, err := r.DecideRows()
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}
