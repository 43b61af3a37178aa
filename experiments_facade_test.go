package heteropart

import (
	"strings"
	"testing"
)

func TestCensusFacade(t *testing.T) {
	rows, err := Census(CensusConfig{
		N: 36, RunsPerRatio: 3, Seed: 2, Beautify: true,
		Ratios: []Ratio{MustRatio(2, 1, 1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	var sb strings.Builder
	if err := WriteCensusTable(&sb, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "2:1:1") {
		t.Error("table missing ratio")
	}
}

func TestFig14Facade(t *testing.T) {
	rows, err := Fig14Sweep([]float64{5, 15}, 5000, 80)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].SCModel <= rows[1].SCModel {
		t.Error("SC model time should fall with heterogeneity")
	}
}

func TestPhaseDiagramFacade(t *testing.T) {
	wm, err := PhaseDiagram(SCB, TopologySpec{}, 2, 12, 2, 40)
	if err != nil {
		t.Fatal(err)
	}
	if len(wm.Cells) == 0 {
		t.Fatal("empty phase diagram")
	}
}

func TestSearchTraceFacade(t *testing.T) {
	tr, err := SearchTrace(30, MustRatio(3, 1, 1), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Monotone() {
		t.Error("trace must be monotone")
	}
}

func TestGanttChartFacade(t *testing.T) {
	ratio := MustRatio(10, 1, 1)
	g, err := BuildShape(SquareCorner, 80, ratio)
	if err != nil {
		t.Fatal(err)
	}
	chart, err := GanttChart(SCO, DefaultMachine(ratio), g, 50)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(chart, "overlap-P") {
		t.Errorf("chart missing overlap row:\n%s", chart)
	}
}

func TestTwoProcFacade(t *testing.T) {
	s, err := TwoProcOptimal(SCB, 10)
	if err != nil {
		t.Fatal(err)
	}
	if s != TwoProcSquareCorner {
		t.Errorf("optimal at 10:1 = %v", s)
	}
	s, err = TwoProcOptimal(PCB, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s != TwoProcStraightLine {
		t.Errorf("optimal at 2:1 = %v", s)
	}
	g, err := BuildTwoProc(TwoProcSquareCorner, 60, 10)
	if err != nil {
		t.Fatal(err)
	}
	if g.Count(S) != 0 {
		t.Error("two-proc build should leave S empty")
	}
	if _, err := TwoProcOptimal(SCB, 0.5); err == nil {
		t.Error("bad ratio should error")
	}
	if _, err := BuildTwoProc(TwoProcStraightLine, 60, 0.5); err == nil {
		t.Error("bad ratio should error")
	}
}

func TestNProcFacade(t *testing.T) {
	start, err := NProcStart(30, NProcRatio{4, 2, 1, 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Search(SearchConfig{N: 30, Seed: 1, Start: start, Beautify: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Final.K() != 4 {
		t.Errorf("search ran on %d processors, want 4", res.Final.K())
	}
	if !res.Converged || res.FinalVoC > res.InitialVoC {
		t.Error("4-proc search misbehaved")
	}
}
