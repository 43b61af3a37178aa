package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiment"
	"repro/internal/model"
)

var update = flag.Bool("update", false, "rewrite the winner-map golden files")

// censusWindow is the standard small census the goldens pin: fast enough
// for CI, wide enough that every topology class moves cells.
const (
	censusRrMax = 4.0
	censusPrMax = 12.0
	censusStep  = 1.0
	censusN     = 60
)

// TestWinnerMapGoldens pins one golden phase diagram per topology class
// (-update to regenerate). The non-uniform classes additionally record
// their flip list against the uniform baseline, so a pricing regression
// in the per-link cost model shows up as a golden diff naming the
// exact cells that moved.
func TestWinnerMapGoldens(t *testing.T) {
	entries, err := experiment.RunTopologyCensus(context.Background(), model.SCB, censusRrMax, censusPrMax, censusStep, censusN)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		var buf bytes.Buffer
		if err := e.Map.Write(&buf); err != nil {
			t.Fatal(err)
		}
		if e.Class.Name != "uniform" {
			fmt.Fprintf(&buf, "flips vs uniform: %d\n", e.Flips)
			for _, line := range experiment.CensusFlipSummary(entries[0], e) {
				fmt.Fprintf(&buf, "  %s\n", line)
			}
		}
		name := "winnermap_" + strings.ReplaceAll(e.Class.Name, "+", "plus") + ".golden"
		path := filepath.Join("testdata", name)
		if *update {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden (run with -update first): %v", err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("class %s winner map diverged from %s:\n%s", e.Class.Name, path, buf.Bytes())
		}
	}
}

// TestWinnerMapModeOutput drives the -winner-map entry point end to end:
// all three class diagrams and the flip summary lines must render, and
// every non-uniform class must move at least one cell.
func TestWinnerMapModeOutput(t *testing.T) {
	var buf bytes.Buffer
	if code := winnerMapMode(&buf, "PIO", censusRrMax, censusPrMax, censusStep, censusN); code != 0 {
		t.Fatalf("winnerMapMode exit %d", code)
	}
	out := buf.String()
	for _, want := range []string{
		"winner map: PIO, uniform topology",
		"winner map: PIO, 2+1 topology",
		"winner map: PIO, 3-island topology",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	for _, class := range []string{"2+1", "3-island"} {
		if strings.Contains(out, fmt.Sprintf("class %s: 0 cells change winner", class)) {
			t.Errorf("class %s moved no cells", class)
		}
		if !strings.Contains(out, fmt.Sprintf("class %s: ", class)) {
			t.Errorf("output missing flip summary for %s:\n%s", class, out)
		}
	}
	if code := winnerMapMode(&buf, "nope", censusRrMax, censusPrMax, censusStep, censusN); code != 2 {
		t.Fatalf("bad algorithm: exit %d, want 2", code)
	}
}

// TestParseTopologyGrammar: the -topology flag accepts the legacy alias
// and the spec grammar, and rejects garbage with a typed error.
func TestParseTopologyGrammar(t *testing.T) {
	for _, s := range []string{"full", "fully-connected", "star", "2+1", "3-island:5", "links:PR=1,PS=2,RS=3"} {
		if _, err := parseTopology(s); err != nil {
			t.Errorf("parseTopology(%q): %v", s, err)
		}
	}
	if _, err := parseTopology("ring"); err == nil {
		t.Error("parseTopology accepted \"ring\"")
	}
}

// TestCompareShapesLinkTopology: under a link topology the report fills
// every column, and the simulator reproduces the model column for every
// algorithm but PIO, whose pipeline the simulator schedules stage by
// stage.
func TestCompareShapesLinkTopology(t *testing.T) {
	var buf bytes.Buffer
	if code := compareShapes(&buf, "5:2:1", 60, "", "3-island:10"); code != 0 {
		t.Fatalf("compareShapes exit %d", code)
	}
	out := buf.String()
	if !strings.Contains(out, "(3-island:10 topology)") {
		t.Fatalf("header misses the topology:\n%s", out)
	}
	rows := 0
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		for _, cell := range f {
			if cell == "-" {
				t.Fatalf("blank cell in %q:\n%s", line, out)
			}
		}
		if len(f) < 4 || !strings.HasSuffix(f[len(f)-1], "%") {
			continue
		}
		rows++
		alg, mod, sim := f[len(f)-4], f[len(f)-3], f[len(f)-2]
		if alg != "PIO" && sim != mod {
			t.Errorf("%s: sim %s, model %s in %q", alg, sim, mod, line)
		}
	}
	if rows == 0 {
		t.Fatalf("no algorithm rows:\n%s", out)
	}
	for _, bad := range [][2]string{{"1:2:3", "full"}, {"5:2:1", "ring"}} {
		if code := compareShapes(&buf, bad[0], 60, "", bad[1]); code != 2 {
			t.Errorf("ratio %s topology %s: exit %d, want 2", bad[0], bad[1], code)
		}
	}
	if code := compareShapes(&buf, "5:2:1", 60, "nope", "full"); code != 2 {
		t.Errorf("bad algorithm: exit %d, want 2", code)
	}
}

// TestCompareShapesGolden pins the single-ratio report byte for byte —
// every candidate's VoC, modelled and simulated time, efficiency and the
// optimum per algorithm — for two ratios under three topologies
// (-update to regenerate).
func TestCompareShapesGolden(t *testing.T) {
	for _, ratio := range []string{"5:2:1", "10:1:1"} {
		for _, topo := range []string{"full", "star", "3-island:10"} {
			var buf bytes.Buffer
			if code := compareShapes(&buf, ratio, 60, "", topo); code != 0 {
				t.Fatalf("%s %s: compareShapes exit %d", ratio, topo, code)
			}
			name := "compare_" + strings.ReplaceAll(ratio, ":", "_") + "_" + strings.ReplaceAll(topo, ":", "_") + ".golden"
			path := filepath.Join("testdata", name)
			if *update {
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update first): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("%s %s: report diverged from %s:\n%s", ratio, topo, path, buf.Bytes())
			}
		}
	}
}
