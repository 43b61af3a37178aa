package experiment

import (
	"context"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/partition"
)

func TestPushAblation(t *testing.T) {
	rows, err := PushAblation(36, partition.MustRatio(3, 1, 1), 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]AblationRow{}
	for _, r := range rows {
		byName[r.Name] = r
		if r.Converged != r.Runs {
			t.Errorf("%s: %d/%d converged", r.Name, r.Converged, r.Runs)
		}
		if r.MeanFinalVoC <= 0 || r.MeanSteps <= 0 {
			t.Errorf("%s: degenerate stats %+v", r.Name, r)
		}
	}
	// The richer configurations must never condense worse on average:
	// each added mechanism only adds legal moves.
	if byName["all types"].MeanFinalVoC > byName["types 1 only"].MeanFinalVoC+1e-9 {
		t.Errorf("all types (%.0f) should beat types-1-only (%.0f)",
			byName["all types"].MeanFinalVoC, byName["types 1 only"].MeanFinalVoC)
	}
	if byName["all types + beautify"].MeanFinalVoC > byName["all types"].MeanFinalVoC+1e-9 {
		t.Errorf("beautify (%.0f) should not worsen all-types (%.0f)",
			byName["all types + beautify"].MeanFinalVoC, byName["all types"].MeanFinalVoC)
	}
	var sb strings.Builder
	if err := WriteAblationTable(&sb, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "| all types |") {
		t.Error("table missing configuration row")
	}
}

func TestPushAblationValidation(t *testing.T) {
	if _, err := PushAblation(30, partition.MustRatio(2, 1, 1), 0, 1); err == nil {
		t.Error("zero runs should error")
	}
}

func TestLatencySweep(t *testing.T) {
	rows, err := LatencySweep(nil, partition.MustRatio(5, 2, 1), 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	pioIdx, scbIdx := -1, -1
	for i, a := range model.AllAlgorithms {
		switch a {
		case model.PIO:
			pioIdx = i
		case model.SCB:
			scbIdx = i
		}
	}
	// At zero latency PIO (pipelined) must not lose badly; at high latency
	// it must fall behind SCB (it pays N latencies vs 1).
	zero, high := rows[0], rows[len(rows)-1]
	if zero.Alpha != 0 {
		t.Fatal("first row should be α=0")
	}
	if high.Totals[pioIdx] <= high.Totals[scbIdx] {
		t.Errorf("at α=%g PIO (%g) should lose to SCB (%g): N messages vs 1",
			high.Alpha, high.Totals[pioIdx], high.Totals[scbIdx])
	}
	// Totals must be non-decreasing in α for every algorithm.
	for i := 1; i < len(rows); i++ {
		for k := range rows[i].Totals {
			if rows[i].Totals[k] < rows[i-1].Totals[k]-1e-12 {
				t.Errorf("%v: total decreased as α grew", model.AllAlgorithms[k])
			}
		}
	}
	var sb strings.Builder
	if err := WriteLatencyTable(&sb, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "PIO") {
		t.Error("latency table missing PIO column")
	}
}

func TestWinnerMap(t *testing.T) {
	wm, err := ComputeWinnerMap(context.Background(), model.SCB, "fully-connected", model.TopologySpec{}, 4, 16, 1, 60)
	if err != nil {
		t.Fatal(err)
	}
	if len(wm.Cells) == 0 {
		t.Fatal("no cells")
	}
	// Ratio ordering: no cell below the Pr ≥ Rr diagonal.
	for key := range wm.Cells {
		if key[1] < key[0] {
			t.Fatalf("cell with Pr < Rr: %v", key)
		}
	}
	counts := wm.Count()
	// The high-heterogeneity corner must belong to the Square-Corner and
	// the moderate region to a rectangular candidate.
	if got := wm.Cells[[2]float64{1, 16}]; got != partition.SquareCorner {
		t.Errorf("at Rr=1 Pr=16 winner = %v, want Square-Corner", got)
	}
	if got := wm.Cells[[2]float64{1, 2}]; got == partition.SquareCorner {
		t.Errorf("at Rr=1 Pr=2 Square-Corner should not win")
	}
	if counts[partition.SquareCorner] == 0 {
		t.Error("Square-Corner should win somewhere")
	}
	var sb strings.Builder
	if err := wm.Write(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "winner map: SCB") {
		t.Errorf("header missing:\n%s", out)
	}
	if !strings.Contains(out, "C") {
		t.Error("diagram missing Square-Corner region")
	}
}

func TestWinnerMapValidation(t *testing.T) {
	if _, err := ComputeWinnerMap(context.Background(), model.SCB, "fully-connected", model.TopologySpec{}, 4, 8, 1, 2); err == nil {
		t.Error("tiny n should error")
	}
}
