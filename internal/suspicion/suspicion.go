// Package suspicion aggregates Byzantine-fault evidence from every
// detection site in the stack — commitment checks and the six-way
// reconstruction decision rule inside protocol parties, the model
// owner's gather bookkeeping, the data owner's reveal decisions, and
// transport-level spoof detection — into one per-party ledger.
//
// Evidence is split into two classes. Attributable kinds (commitment
// violations, decision-rule deviations, spoofed frames) can only be
// produced by a misbehaving party: the protocol cryptographically or
// arithmetically pins the fault on a sender. Circumstantial kinds
// (timeouts, missing deliveries) are consistent with an honest crash
// or a slow network, so they are reported but never counted toward a
// conviction. This split is what lets a crashed-and-rejoined honest
// party finish a session with a clean verdict while a share-corrupting
// party is convicted.
//
// Conviction itself is two-tier. Proven kinds (commit violations,
// spoofs) convict on a single observation and take precedence: when a
// proven offender exists, statistical decision-deviation counts against
// other parties are suppressed, because an equivocating party makes its
// victim's view diverge from the rest of the cluster and the victim's
// reconstruction sets then deviate through no fault of its own. Without
// a proven offender, repeated attributable evidence convicts at the
// configured threshold.
package suspicion

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"github.com/trustddl/trustddl/internal/obs"
)

// Kind labels the detection site that produced a piece of evidence.
type Kind string

const (
	// KindCommitViolation: a post-commitment opening failed its digest
	// check or was malformed. Only the committer can cause this.
	KindCommitViolation Kind = "commit-violation"
	// KindOpenTimeout: a party's commitment or opening never arrived
	// within the round timeout. Crash, stall, or drop — not attributable.
	KindOpenTimeout Kind = "open-timeout"
	// KindDecisionDeviation: the six-way decision rule recovered a
	// value and this party's contributed reconstruction sets deviate
	// from it beyond the honest fixed-point slack.
	KindDecisionDeviation Kind = "decision-deviation"
	// KindGatherTimeout: the model owner's gather for a delegated
	// computation expired without this party's bundle.
	KindGatherTimeout Kind = "gather-timeout"
	// KindMissingDelivery: the data owner's reveal gather completed
	// without this party's opening.
	KindMissingDelivery Kind = "missing-delivery"
	// KindSpoof: a frame claimed to originate from a different actor
	// than the authenticated transport attributed it to.
	KindSpoof Kind = "spoof"
)

// Attributable reports whether evidence of this kind can only be
// produced by a misbehaving party (as opposed to a crash or a slow
// link). Only attributable evidence counts toward a conviction.
func (k Kind) Attributable() bool {
	switch k {
	case KindCommitViolation, KindDecisionDeviation, KindSpoof:
		return true
	}
	return false
}

// Proven reports whether evidence of this kind carries cryptographic
// attribution: only the recorded offender can produce a post-commitment
// digest mismatch (the opener alone shapes and signs its opening) or a
// spoofed frame on an authenticated transport. A single proven
// observation convicts — and it also explains away decision-deviation
// fallout against other parties: once one party equivocates, the party
// that caught it excludes its shares unilaterally, so the honest views
// legitimately diverge and the victim's subsequent reconstruction sets
// can deviate through no fault of its own.
func (k Kind) Proven() bool {
	switch k {
	case KindCommitViolation, KindSpoof:
		return true
	}
	return false
}

// Evidence is the ledger's per-(party, kind) record. Session and Step
// identify the first observation; Count accumulates repeats.
type Evidence struct {
	Party   int    `json:"party"`
	Kind    Kind   `json:"kind"`
	Session string `json:"session"`
	Step    string `json:"step"`
	Count   int    `json:"count"`
}

// DefaultThreshold is the attributable-evidence count at which a
// party is convicted when no explicit threshold is configured. A
// single observation can be a fluke of a half-delivered message; a
// party that repeatedly produces attributable evidence is faulty.
const DefaultThreshold = 3

// Ledger is a thread-safe evidence store shared by every detection
// site of a cluster (and, in tests, by in-process served parties).
// The zero-value methods on a nil *Ledger are safe no-ops so call
// sites do not need to guard recording.
type Ledger struct {
	mu        sync.Mutex
	threshold int
	recs      map[ledgerKey]*Evidence
	obs       *obs.Registry
}

type ledgerKey struct {
	party int
	kind  Kind
}

// NewLedger returns an empty ledger convicting parties at the given
// attributable-evidence threshold (<=0 selects DefaultThreshold). With
// a non-nil registry every Record bumps a per-kind
// suspicion.evidence.<kind> counter and refreshes the
// suspicion.convicted gauge.
func NewLedger(threshold int, reg *obs.Registry) *Ledger {
	if threshold <= 0 {
		threshold = DefaultThreshold
	}
	return &Ledger{threshold: threshold, recs: make(map[ledgerKey]*Evidence), obs: reg}
}

// Threshold returns the conviction threshold.
func (l *Ledger) Threshold() int {
	if l == nil {
		return DefaultThreshold
	}
	return l.threshold
}

// Record notes one observation of kind against party. The first
// observation pins session and step; later ones only bump the count.
func (l *Ledger) Record(party int, kind Kind, session, step string) {
	if l == nil {
		return
	}
	l.mu.Lock()
	key := ledgerKey{party: party, kind: kind}
	if rec, ok := l.recs[key]; ok {
		rec.Count++
	} else {
		l.recs[key] = &Evidence{Party: party, Kind: kind, Session: session, Step: step, Count: 1}
	}
	l.mu.Unlock()
	if l.obs != nil {
		l.obs.Counter("suspicion.evidence." + string(kind)).Inc()
		l.obs.Gauge("suspicion.convicted").Set(int64(len(l.Convicted())))
	}
}

// Evidence returns a copy of every record, sorted by party then kind.
func (l *Ledger) Evidence() []Evidence {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Evidence, 0, len(l.recs))
	for _, rec := range l.recs {
		out = append(out, *rec)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Party != out[j].Party {
			return out[i].Party < out[j].Party
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

// Score returns party's attributable and circumstantial evidence
// counts.
func (l *Ledger) Score(party int) (attributable, circumstantial int) {
	if l == nil {
		return 0, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for key, rec := range l.recs {
		if key.party != party {
			continue
		}
		if key.kind.Attributable() {
			attributable += rec.Count
		} else {
			circumstantial += rec.Count
		}
	}
	return attributable, circumstantial
}

// Convicted returns the convicted parties, ascending. Conviction is
// two-tier: any proven evidence (commit violation, spoof) convicts its
// party immediately, and when at least one party is proven guilty, the
// statistical tier is suppressed — decision-deviation fallout against
// other parties is then explained by the proven offender (see
// Kind.Proven). With no proven offender, a party is convicted once its
// attributable evidence count reaches the threshold; the threshold
// filters one-off flukes from repeat offenders.
func (l *Ledger) Convicted() []int {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	proven := make(map[int]bool)
	counts := make(map[int]int)
	for key, rec := range l.recs {
		if key.kind.Proven() {
			proven[key.party] = true
		}
		if key.kind.Attributable() {
			counts[key.party] += rec.Count
		}
	}
	threshold := l.threshold
	l.mu.Unlock()
	var out []int
	if len(proven) > 0 {
		for party := range proven {
			out = append(out, party)
		}
		sort.Ints(out)
		return out
	}
	for party, n := range counts {
		if n >= threshold {
			out = append(out, party)
		}
	}
	sort.Ints(out)
	return out
}

// Report is the ledger's exportable verdict snapshot.
type Report struct {
	Threshold int        `json:"threshold"`
	Convicted []int      `json:"convicted"`
	Evidence  []Evidence `json:"evidence"`
}

// Report snapshots the ledger.
func (l *Ledger) Report() Report {
	return Report{
		Threshold: l.Threshold(),
		Convicted: l.Convicted(),
		Evidence:  l.Evidence(),
	}
}

// JSON renders the report for ledger dumps and CI artifacts.
func (r Report) JSON() ([]byte, error) {
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("suspicion: encode report: %w", err)
	}
	return buf, nil
}

// String summarizes the report for logs.
func (r Report) String() string {
	if len(r.Evidence) == 0 {
		return "suspicion: no evidence"
	}
	return fmt.Sprintf("suspicion: %d evidence record(s), convicted %v (threshold %d)",
		len(r.Evidence), r.Convicted, r.Threshold)
}
