package experiment

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

func TestIntegrityStudy(t *testing.T) {
	// The default drill: N=96, block 4, SCB and PCB under every default
	// fault spec. Only the overhead pass is shrunk: its percentage is
	// gated by verify.sh's study run, not here.
	res, err := IntegrityStudy(context.Background(), IntegrityStudyConfig{
		OverheadN:         64,
		OverheadBlockSize: 16,
		OverheadPairs:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 {
		t.Fatalf("got %d rows, want 10", len(res.Rows))
	}
	for _, r := range res.Rows {
		if !r.BitExact {
			t.Errorf("%s %q: verified product not bit-exact", r.Algorithm, r.Faults)
		}
		if r.Checks == 0 {
			t.Errorf("%s %q: no integrity checks recorded", r.Algorithm, r.Faults)
		}
		if r.Faults == "none" {
			if r.Injected != 0 || r.Corrected != 0 || r.Recomputed != 0 || r.DetectionRate != nil {
				t.Errorf("%s clean row reports corruption activity or a detection rate: %+v", r.Algorithm, r)
			}
			continue
		}
		// Every drill must inject, or its detection rate says nothing.
		if r.Injected == 0 || r.DetectionRate == nil || *r.DetectionRate < 1 {
			t.Errorf("%s %q: injected %d, caught %d+%d+%d; want at least one injection, every one caught",
				r.Algorithm, r.Faults, r.Injected, r.Corrected, r.Recomputed, r.Rejected)
		}
		if strings.HasPrefix(r.Faults, "flip:R") && r.Corrected == 0 {
			t.Errorf("%s %q: no flip corrected", r.Algorithm, r.Faults)
		}
		if strings.Contains(r.Faults, "scale:S") {
			if len(r.Byzantine) != 1 || r.Byzantine[0] != "S" || r.Survivors != 2 || r.ReplanKind != "replan-2proc" {
				t.Errorf("%s %q: byzantine %v, %d survivors, replan %q; want [S], 2, replan-2proc",
					r.Algorithm, r.Faults, r.Byzantine, r.Survivors, r.ReplanKind)
			}
		}
	}
	oh := res.Overhead
	if oh.Pairs != 2 || oh.BaseWallMS <= 0 || oh.VerifiedWallMS <= 0 {
		t.Errorf("overhead walls not measured: %+v", oh)
	}
	if oh.OverheadQ1Pct > oh.OverheadPct || oh.OverheadPct > oh.OverheadQ3Pct {
		t.Errorf("overhead quartiles out of order: %+v", oh)
	}
	var buf bytes.Buffer
	if err := WriteIntegrityTable(&buf, res); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"S (replan-2proc)", "| none | 0 | 0 | 0 | 0 | - |", "median of 2 alternating pairs"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestIntegrityStudyValidation(t *testing.T) {
	if _, err := IntegrityStudy(context.Background(), IntegrityStudyConfig{N: 8}); err == nil {
		t.Error("n=8 accepted, want config error")
	}
	bad := IntegrityStudyConfig{FaultSpecs: []string{"flip:R@0.5,flip:R@0.9"}}
	if _, err := IntegrityStudy(context.Background(), bad); err == nil {
		t.Error("duplicate-fate fault spec accepted, want config error")
	}
	if _, err := IntegrityStudy(context.Background(), IntegrityStudyConfig{OverheadPairs: -1}); err == nil {
		t.Error("negative overhead pairs accepted, want config error")
	}
}
