package bench

import (
	"strings"
	"testing"

	"github.com/trustddl/trustddl/internal/nn"
)

func TestTable2SmallRun(t *testing.T) {
	rows, err := Table2(Table2Config{Iterations: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 {
		t.Fatalf("%d rows, want 12 (6 frameworks × 2 tasks)", len(rows))
	}
	// Training rows first, matching the paper's layout.
	for i, r := range rows {
		wantTask := "Training"
		if i >= 6 {
			wantTask = "Inference"
		}
		if r.Task != wantTask {
			t.Fatalf("row %d task %q, want %q", i, r.Task, wantTask)
		}
		if r.TimeSec <= 0 || r.CommMB <= 0 {
			t.Fatalf("row %d has non-positive measurements: %+v", i, r)
		}
	}

	byKey := func(fw, task string) Table2Row {
		for _, r := range rows {
			if r.Framework == fw && r.Task == task && !strings.Contains(r.Model, "Malicious") {
				return r
			}
		}
		t.Fatalf("row %s/%s missing", fw, task)
		return Table2Row{}
	}
	malicious := func(fw, task string) Table2Row {
		for _, r := range rows {
			if r.Framework == fw && r.Task == task && r.Model == "Malicious" {
				return r
			}
		}
		t.Fatalf("malicious row %s/%s missing", fw, task)
		return Table2Row{}
	}

	// The Table II communication shape.
	for _, task := range []string{"Training", "Inference"} {
		falcon := byKey("Falcon", task)
		falconMal := malicious("Falcon", task)
		secureNN := byKey("SecureNN", task)
		safeML := byKey("SafeML", task)
		trust := byKey("TrustDDL", task)
		trustMal := malicious("TrustDDL", task)
		if !(falcon.CommMB < secureNN.CommMB && secureNN.CommMB < trust.CommMB) {
			t.Errorf("%s: comm ordering Falcon(%.2f) < SecureNN(%.2f) < TrustDDL(%.2f) violated",
				task, falcon.CommMB, secureNN.CommMB, trust.CommMB)
		}
		if !(falcon.CommMB < falconMal.CommMB) {
			t.Errorf("%s: Falcon malicious (%.2f MB) not above HbC (%.2f MB)", task, falconMal.CommMB, falcon.CommMB)
		}
		if !(trust.CommMB < trustMal.CommMB) {
			t.Errorf("%s: TrustDDL malicious (%.4f MB) not above HbC (%.4f MB)", task, trustMal.CommMB, trust.CommMB)
		}
		if safeML.CommMB != trust.CommMB {
			t.Errorf("%s: SafeML (%.4f MB) differs from TrustDDL-HbC (%.4f MB)", task, safeML.CommMB, trust.CommMB)
		}
	}

	out := FormatTable2(rows)
	for _, want := range []string{"SecureNN", "Falcon", "SafeML", "TrustDDL", "Crash-Fault", "Malicious", "Comm. (MB)"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted table missing %q:\n%s", want, out)
		}
	}
}

func TestTable2FrameworkFilter(t *testing.T) {
	rows, err := Table2(Table2Config{Iterations: 1, Seed: 5, Frameworks: []string{"Falcon"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 { // Falcon HbC + malicious, training + inference
		t.Fatalf("%d rows, want 4", len(rows))
	}
	for _, r := range rows {
		if r.Framework != "Falcon" {
			t.Fatalf("unexpected framework %q", r.Framework)
		}
	}
}

func TestFig2SmallRun(t *testing.T) {
	if testing.Short() {
		t.Skip("secure training epochs in -short mode")
	}
	var calls int
	res, err := Fig2(Fig2Config{
		Epochs:  2,
		TrainN:  40,
		TestN:   30,
		Batch:   10,
		LR:      0.3,
		Seed:    7,
		DataDir: t.TempDir(),
		OnEpoch: func(string, int, float64) { calls++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("%d points", len(res.Points))
	}
	if res.RealData {
		t.Fatal("claimed real data from an empty dir")
	}
	if calls != 4 {
		t.Fatalf("OnEpoch fired %d times, want 4", calls)
	}
	// The result carries the model the TrustDDL curve ends on.
	initial, err := nn.InitPaperWeights(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Weights) != 3 || res.Weights[1].Equal(initial.FC1) {
		t.Fatalf("Fig2 returned %d weight matrices, want the 3 secure-trained ones", len(res.Weights))
	}
	// The headline claim of Fig. 2: TrustDDL accuracy is comparable to
	// CML. With identical data order and weights the curves must agree
	// closely.
	for _, p := range res.Points {
		diff := p.CML - p.TrustDDL
		if diff < 0 {
			diff = -diff
		}
		if diff > 0.15 {
			t.Errorf("epoch %d: CML %.2f vs TrustDDL %.2f diverge beyond comparability", p.Epoch, p.CML, p.TrustDDL)
		}
	}
	out := FormatFig2(res)
	if !strings.Contains(out, "TrustDDL") || !strings.Contains(out, "Epoch") {
		t.Errorf("formatted figure table malformed:\n%s", out)
	}
}

func TestPrecisionSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("secure training sweep in -short mode")
	}
	var seen []uint
	points, err := PrecisionSweep(PrecisionConfig{
		FracBits: []uint{8, 20},
		Epochs:   1,
		TrainN:   40,
		TestN:    30,
		Batch:    10,
		LR:       0.3,
		Seed:     5,
		OnPoint:  func(f uint, _ float64) { seen = append(seen, f) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 { // baseline + two precisions
		t.Fatalf("%d points", len(points))
	}
	if len(seen) != 3 || seen[0] != 0 || seen[1] != 8 || seen[2] != 20 {
		t.Fatalf("OnPoint order %v", seen)
	}
	baseline, f20 := points[0].Accuracy, points[2].Accuracy
	diff := baseline - f20
	if diff < 0 {
		diff = -diff
	}
	// F=20 (the paper's choice) must track the float baseline closely.
	if diff > 0.15 {
		t.Fatalf("F=20 accuracy %.2f diverges from baseline %.2f", f20, baseline)
	}
	out := FormatPrecision(points)
	if !strings.Contains(out, "float64 (CML)") || !strings.Contains(out, "F = 20 bits") {
		t.Errorf("formatted sweep malformed:\n%s", out)
	}
}
