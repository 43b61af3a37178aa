package main

import (
	"bytes"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestFourProcessorRun drives a 4-processor search at N=30: every run
// converges and lowers VoC, and the rendered shape shows the fastest
// processor and each of the three slower ones.
func TestFourProcessorRun(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-ratio", "8:4:2:1", "-n", "30", "-runs", "2", "-boxes", "30"}, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	got := out.String()
	if !strings.HasPrefix(got, "4-processor Push search, ratio 8:4:2:1, N=30\n") {
		t.Fatalf("header:\n%s", got)
	}
	runLine := regexp.MustCompile(`(?m)^run (\d): \d+ pushes, VoC (\d+) → (\d+) \(−\d+%\), converged=(\w+)$`)
	runs := runLine.FindAllStringSubmatch(got, -1)
	if len(runs) != 2 {
		t.Fatalf("want 2 run lines, got %d:\n%s", len(runs), got)
	}
	for _, m := range runs {
		voc0, _ := strconv.Atoi(m[2])
		voc, _ := strconv.Atoi(m[3])
		if m[4] != "true" || voc >= voc0 {
			t.Errorf("run %s: converged=%s, VoC %d → %d", m[1], m[4], voc0, voc)
		}
	}
	shape := got[strings.Index(got, "):\n")+3:]
	for _, glyph := range []string{".", "1", "2", "3"} {
		if !strings.Contains(shape, glyph) {
			t.Errorf("render misses %q:\n%s", glyph, shape)
		}
	}
}

// TestBadRatiosRejected checks that a ratio naming one processor, one
// whose speeds increase, and a malformed one are refused before any
// search runs.
func TestBadRatiosRejected(t *testing.T) {
	for _, ratio := range []string{"4", "1:2:4", "4:x"} {
		var out bytes.Buffer
		if err := run([]string{"-ratio", ratio, "-n", "20"}, &out); err == nil {
			t.Errorf("ratio %q accepted:\n%s", ratio, out.String())
		}
		if out.Len() != 0 {
			t.Errorf("ratio %q printed output before failing:\n%s", ratio, out.String())
		}
	}
	if err := run([]string{"-n", "1"}, &bytes.Buffer{}); err == nil {
		t.Error("-n 1 accepted")
	}
}
