package suspicion

import (
	"encoding/json"
	"sync"
	"testing"
)

func TestKindAttributability(t *testing.T) {
	attributable := []Kind{KindCommitViolation, KindDecisionDeviation, KindSpoof}
	circumstantial := []Kind{KindOpenTimeout, KindGatherTimeout, KindMissingDelivery}
	for _, k := range attributable {
		if !k.Attributable() {
			t.Errorf("kind %q should be attributable", k)
		}
	}
	for _, k := range circumstantial {
		if k.Attributable() {
			t.Errorf("kind %q should not be attributable", k)
		}
	}
}

func TestLedgerRecordAndEvidence(t *testing.T) {
	l := NewLedger(0, nil)
	if got := l.Threshold(); got != DefaultThreshold {
		t.Fatalf("Threshold() = %d, want default %d", got, DefaultThreshold)
	}
	l.Record(2, KindCommitViolation, "train/7", "secmul/open")
	l.Record(2, KindCommitViolation, "train/8", "secmul/open")
	l.Record(1, KindOpenTimeout, "train/7", "secmul/commit")

	ev := l.Evidence()
	if len(ev) != 2 {
		t.Fatalf("Evidence() returned %d records, want 2", len(ev))
	}
	// Sorted by party, so party 1 first.
	if ev[0].Party != 1 || ev[0].Kind != KindOpenTimeout || ev[0].Count != 1 {
		t.Errorf("evidence[0] = %+v", ev[0])
	}
	if ev[1].Party != 2 || ev[1].Count != 2 {
		t.Errorf("evidence[1] = %+v", ev[1])
	}
	// First observation pins session/step.
	if ev[1].Session != "train/7" || ev[1].Step != "secmul/open" {
		t.Errorf("evidence[1] first-occurrence fields = %q/%q", ev[1].Session, ev[1].Step)
	}
}

func TestConvictionRequiresAttributableEvidence(t *testing.T) {
	l := NewLedger(3, nil)
	// A flood of circumstantial evidence must never convict: crashes
	// and slow links are not proof of malice.
	for i := 0; i < 50; i++ {
		l.Record(1, KindGatherTimeout, "train/1", "gather")
		l.Record(1, KindOpenTimeout, "train/1", "open")
	}
	if got := l.Convicted(); len(got) != 0 {
		t.Fatalf("Convicted() = %v after circumstantial-only evidence", got)
	}
	l.Record(3, KindDecisionDeviation, "train/2", "ef")
	l.Record(3, KindDecisionDeviation, "train/3", "ef")
	if got := l.Convicted(); len(got) != 0 {
		t.Fatalf("Convicted() = %v below threshold", got)
	}
	l.Record(3, KindSpoof, "train/4", "ef")
	got := l.Convicted()
	if len(got) != 1 || got[0] != 3 {
		t.Fatalf("Convicted() = %v, want [3]", got)
	}
	att, circ := l.Score(1)
	if att != 0 || circ != 100 {
		t.Fatalf("Score(1) = (%d, %d), want (0, 100)", att, circ)
	}
	att, _ = l.Score(3)
	if att != 3 {
		t.Fatalf("Score(3) attributable = %d, want 3", att)
	}
}

func TestKindProven(t *testing.T) {
	proven := []Kind{KindCommitViolation, KindSpoof}
	statistical := []Kind{KindDecisionDeviation, KindOpenTimeout, KindGatherTimeout, KindMissingDelivery}
	for _, k := range proven {
		if !k.Proven() {
			t.Errorf("kind %q should be proven", k)
		}
	}
	for _, k := range statistical {
		if k.Proven() {
			t.Errorf("kind %q should not be proven", k)
		}
	}
}

func TestProvenOffenderSuppressesDeviationFallout(t *testing.T) {
	// An equivocator (party 2) is caught red-handed once, then excluded
	// by its victim (party 1). The victim's view of the computation now
	// legitimately diverges, so the other parties pile up
	// decision-deviation records against it. The proven offender must be
	// convicted and the statistical fallout against the victim ignored.
	l := NewLedger(3, nil)
	l.Record(2, KindCommitViolation, "train/2/l0", "ef/open")
	for i := 0; i < 100; i++ {
		l.Record(1, KindDecisionDeviation, "train/2/l2", "ef")
	}
	got := l.Convicted()
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("Convicted() = %v, want [2] (proven offender only)", got)
	}
	// Score still reports the raw counts: the fallout stays visible in
	// the evidence, it just no longer convicts.
	if att, _ := l.Score(1); att != 100 {
		t.Fatalf("Score(1) attributable = %d, want 100", att)
	}
}

func TestSingleProvenObservationConvicts(t *testing.T) {
	l := NewLedger(3, nil)
	l.Record(3, KindSpoof, "train/1", "ef/open")
	got := l.Convicted()
	if len(got) != 1 || got[0] != 3 {
		t.Fatalf("Convicted() = %v, want [3] on one spoof", got)
	}
}

func TestNilLedgerIsSafe(t *testing.T) {
	var l *Ledger
	l.Record(1, KindSpoof, "s", "step") // must not panic
	if l.Evidence() != nil {
		t.Error("nil ledger Evidence() != nil")
	}
	if l.Convicted() != nil {
		t.Error("nil ledger Convicted() != nil")
	}
	if l.Threshold() != DefaultThreshold {
		t.Error("nil ledger Threshold() != default")
	}
	rep := l.Report()
	if len(rep.Evidence) != 0 || len(rep.Convicted) != 0 {
		t.Errorf("nil ledger Report() = %+v", rep)
	}
}

func TestLedgerConcurrentRecord(t *testing.T) {
	l := NewLedger(1, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				l.Record(2, KindDecisionDeviation, "s", "step")
			}
		}()
	}
	wg.Wait()
	ev := l.Evidence()
	if len(ev) != 1 || ev[0].Count != 800 {
		t.Fatalf("Evidence() = %+v, want one record with count 800", ev)
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	l := NewLedger(2, nil)
	l.Record(2, KindCommitViolation, "train/1", "open")
	l.Record(2, KindCommitViolation, "train/2", "open")
	buf, err := l.Report().JSON()
	if err != nil {
		t.Fatalf("JSON(): %v", err)
	}
	var rep Report
	if err := json.Unmarshal(buf, &rep); err != nil {
		t.Fatalf("unmarshal report: %v", err)
	}
	if rep.Threshold != 2 || len(rep.Convicted) != 1 || rep.Convicted[0] != 2 {
		t.Fatalf("round-tripped report = %+v", rep)
	}
	if len(rep.Evidence) != 1 || rep.Evidence[0].Count != 2 {
		t.Fatalf("round-tripped evidence = %+v", rep.Evidence)
	}
}
