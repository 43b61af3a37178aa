package experiment

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/partition"
)

func TestRecoveryStudy(t *testing.T) {
	rows, err := RecoveryStudy(context.Background(), RecoveryStudyConfig{
		N:         32,
		KillFracs: []float64{0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != model.NumAlgorithms { // every algorithm, one kill fraction each
		t.Fatalf("got %d rows, want %d", len(rows), model.NumAlgorithms)
	}
	for i, r := range rows {
		if r.Algorithm != model.AllAlgorithms[i].String() {
			t.Errorf("row %d is %s, want %v", i, r.Algorithm, model.AllAlgorithms[i])
		}
		if r.Repeats != recoveryRepeats {
			t.Errorf("%s: %d repeats, want %d", r.Algorithm, r.Repeats, recoveryRepeats)
		}
		if !(r.FaultedWallQ1MS <= r.FaultedWallMS && r.FaultedWallMS <= r.FaultedWallQ3MS) ||
			!(r.CleanWallQ1MS <= r.CleanWallMS && r.CleanWallMS <= r.CleanWallQ3MS) {
			t.Errorf("%s: wall quartiles out of order: %+v", r.Algorithm, r)
		}
		if !r.BitExact {
			t.Errorf("%s kill@%g: recovered product not bit-exact", r.Algorithm, r.KillFrac)
		}
		if r.Survivors != 2 {
			t.Errorf("%s kill@%g: %d survivors, want 2", r.Algorithm, r.KillFrac, r.Survivors)
		}
		if r.Kind != "replan-2proc" {
			t.Errorf("%s kill@%g: recovery kind %q, want replan-2proc", r.Algorithm, r.KillFrac, r.Kind)
		}
		if !r.BoundOK {
			t.Errorf("%s kill@%g: recovery volume %d ≥ 2×remainder need %d",
				r.Algorithm, r.KillFrac, r.RecoveryVolume, r.RemainderNeed)
		}
		if r.RecoveryVolume <= 0 {
			t.Errorf("%s kill@%g: no recovery volume recorded", r.Algorithm, r.KillFrac)
		}
	}
	var buf bytes.Buffer
	if err := WriteRecoveryTable(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "replan-2proc") {
		t.Error("rendered table is missing the recovery kind")
	}
}

func TestRecoveryStudyValidation(t *testing.T) {
	if _, err := RecoveryStudy(context.Background(), RecoveryStudyConfig{N: 8}); err == nil {
		t.Error("n=8 accepted, want config error")
	}
	bad := RecoveryStudyConfig{Ratio: partition.Ratio{Pr: -1, Rr: 1, Sr: 1}}
	if _, err := RecoveryStudy(context.Background(), bad); err == nil {
		t.Error("negative ratio accepted, want config error")
	}
}
