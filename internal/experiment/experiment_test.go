package experiment

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/partition"
	"repro/internal/shape"
)

func TestCensusSmall(t *testing.T) {
	rows, err := Census(CensusConfig{
		N:            36,
		RunsPerRatio: 6,
		Ratios:       []partition.Ratio{partition.MustRatio(2, 1, 1), partition.MustRatio(5, 2, 1)},
		Seed:         1,
		Beautify:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		total := 0
		for _, c := range r.Counts {
			total += c
		}
		if total != 6 {
			t.Errorf("ratio %v: classified %d of 6 runs", r.Ratio, total)
		}
		if r.MeanSteps <= 0 {
			t.Errorf("ratio %v: mean steps %v", r.Ratio, r.MeanSteps)
		}
		if r.MeanVoCDrop <= 0 || r.MeanVoCDrop > 1 {
			t.Errorf("ratio %v: mean VoC drop %v", r.Ratio, r.MeanVoCDrop)
		}
	}
	if n := CensusCounterexamples(rows); n != 0 {
		t.Errorf("found %d counterexamples to Postulate 1", n)
	}
	var sb strings.Builder
	if err := WriteCensusTable(&sb, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "| 2:1:1 |") {
		t.Errorf("table missing ratio row:\n%s", sb.String())
	}
}

func TestCensusValidation(t *testing.T) {
	if _, err := Census(CensusConfig{N: 2, RunsPerRatio: 1}); err == nil {
		t.Error("tiny N should error")
	}
	if _, err := Census(CensusConfig{N: 30, RunsPerRatio: 0}); err == nil {
		t.Error("zero runs should error")
	}
}

func TestCensusDeterministic(t *testing.T) {
	cfg := CensusConfig{
		N: 30, RunsPerRatio: 4,
		Ratios: []partition.Ratio{partition.MustRatio(3, 1, 1)},
		Seed:   7,
	}
	a, err := Census(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Census(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, arch := range []shape.Archetype{shape.ArchetypeA, shape.ArchetypeB, shape.ArchetypeC, shape.ArchetypeD} {
		if a[0].Counts[arch] != b[0].Counts[arch] {
			t.Fatalf("census not deterministic for %v", arch)
		}
	}
}

func TestFig13Surface(t *testing.T) {
	pts := Fig13Surface(10, 20, 1)
	if len(pts) == 0 {
		t.Fatal("no surface points")
	}
	sawWall := false
	for _, p := range pts {
		if p.Pr < p.Rr {
			t.Fatalf("ordering violated at %+v", p)
		}
		if p.BR <= 0 {
			t.Fatalf("BR cost must be positive: %+v", p)
		}
		ratio := partition.MustRatio(p.Pr, p.Rr, 1)
		if p.Feasible != partition.SquareCornerFeasible(ratio) {
			t.Fatalf("feasibility wall wrong at %+v", p)
		}
		if !p.Feasible {
			sawWall = true
		}
		// High-heterogeneity corner: SC below BR.
		if p.Feasible && p.Rr == 1 && p.Pr == 20 && p.SC >= p.BR {
			t.Errorf("at Rr=1 Pr=20 SC %.3f should beat BR %.3f", p.SC, p.BR)
		}
	}
	if !sawWall {
		t.Error("expected some infeasible region (the Fig 13 wall)")
	}
	var sb strings.Builder
	if err := WriteSurfaceCSV(&sb, pts); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sb.String(), "Rr,Pr,") {
		t.Error("CSV header missing")
	}
	if lines := strings.Count(sb.String(), "\n"); lines != len(pts)+1 {
		t.Errorf("CSV lines %d, want %d", lines, len(pts)+1)
	}
}

func TestFig14SweepShape(t *testing.T) {
	rows, err := Fig14Sweep(nil, 5000, 120)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	// Paper's shape: BR roughly flat-to-slowly-falling; SC falls with x
	// and eventually overtakes.
	x := Crossover(rows)
	if x < 9 || x > 11 {
		t.Errorf("crossover at x=%v, want ≈ 9.7 (within the sampled integers)", x)
	}
	for _, r := range rows {
		if !r.SCFeasible {
			continue
		}
		// Simulated and modelled series must agree in ordering near the
		// extremes.
		if r.X >= 15 && !(r.SCSim < r.BRSim) {
			t.Errorf("x=%v: simulated SC %g should beat BR %g", r.X, r.SCSim, r.BRSim)
		}
		if r.X <= 5 && !(r.SCSim > r.BRSim) {
			t.Errorf("x=%v: simulated BR %g should beat SC %g", r.X, r.BRSim, r.SCSim)
		}
		// Sim within 15%% of the closed form (raggedness at nSim=120).
		if rel := math.Abs(r.SCSim-r.SCModel) / r.SCModel; rel > 0.15 {
			t.Errorf("x=%v: SC sim %g vs model %g (rel %.2f)", r.X, r.SCSim, r.SCModel, rel)
		}
	}
	var sb strings.Builder
	if err := WriteFig14Table(&sb, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Square-Corner") {
		t.Error("table should name a Square-Corner winner somewhere")
	}
}

func TestOptimalShapes(t *testing.T) {
	rows, err := OptimalShapes(context.Background(), 60, []partition.Ratio{
		partition.MustRatio(2, 1, 1),
		partition.MustRatio(10, 1, 1),
	}, model.TopologySpec{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2*model.NumAlgorithms {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		feasible := 0
		for _, c := range r.Costs {
			if c.Feasible {
				feasible++
				if c.Total <= 0 || c.SimTotal <= 0 {
					t.Errorf("%v %v %v: non-positive cost", r.Ratio, r.Algorithm, c.Shape)
				}
			}
		}
		if feasible < 4 {
			t.Errorf("%v %v: only %d feasible candidates", r.Ratio, r.Algorithm, feasible)
		}
		// Winner must be the argmin of the modelled totals.
		bestTotal := math.Inf(1)
		var bestShape partition.Shape
		for _, c := range r.Costs {
			if c.Feasible && c.Total < bestTotal {
				bestTotal = c.Total
				bestShape = c.Shape
			}
		}
		if r.Best != bestShape {
			t.Errorf("%v %v: winner %v, argmin %v", r.Ratio, r.Algorithm, r.Best, bestShape)
		}
	}
	var sb strings.Builder
	if err := WriteOptimalTable(&sb, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "| ratio | SCB | PCB | SCO | PCO | PIO |") {
		t.Errorf("header wrong:\n%s", sb.String())
	}
}

func TestOptimalShapesStarDiffers(t *testing.T) {
	full, err := OptimalShapes(context.Background(), 60, []partition.Ratio{partition.MustRatio(5, 2, 1)}, model.TopologySpec{})
	if err != nil {
		t.Fatal(err)
	}
	star, err := OptimalShapes(context.Background(), 60, []partition.Ratio{partition.MustRatio(5, 2, 1)}, mustSpec(t, "star"))
	if err != nil {
		t.Fatal(err)
	}
	// Star must never be cheaper than fully connected for the same shape.
	for i := range full {
		for j := range full[i].Costs {
			f, s := full[i].Costs[j], star[i].Costs[j]
			if f.Feasible && s.Feasible && s.Total < f.Total-1e-12 {
				t.Errorf("%v %v %v: star cheaper than full", full[i].Ratio, full[i].Algorithm, f.Shape)
			}
		}
	}
}

func TestExampleRun(t *testing.T) {
	frames, res, err := ExampleRun(50, partition.MustRatio(2, 1, 1), 42, []int{0, 10, 20}, 25)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("example run did not converge")
	}
	for _, step := range []int{0, 10, 20, res.Steps} {
		f, ok := frames[step]
		if !ok {
			t.Fatalf("missing frame for step %d", step)
		}
		if lines := strings.Count(f, "\n"); lines != 25 {
			t.Errorf("frame %d has %d lines", step, lines)
		}
	}
}

func TestTraceRunMonotoneAndRoundTrip(t *testing.T) {
	tr, err := TraceRun(36, partition.MustRatio(3, 2, 1), 5)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Converged {
		t.Fatal("run did not converge")
	}
	if !tr.Monotone() {
		t.Fatal("VoC trace must never increase")
	}
	if len(tr.Points) < 10 {
		t.Fatalf("trace too short: %d points", len(tr.Points))
	}
	if tr.Points[0].Step != 0 {
		t.Fatal("trace should start at step 0")
	}
	if tr.Archetype == "Unknown" {
		t.Error("terminal state unclassified")
	}
	var buf strings.Builder
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTrace(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Points) != len(tr.Points) || back.Ratio != tr.Ratio {
		t.Error("trace round trip lost data")
	}
	spark := tr.Sparkline(40)
	if len([]rune(spark)) != 40 {
		t.Errorf("sparkline length %d", len([]rune(spark)))
	}
	// The curve decays: first glyph should be the tallest level.
	if []rune(spark)[0] != '█' {
		t.Errorf("sparkline should start at the maximum: %q", spark)
	}
}

func TestReadTraceError(t *testing.T) {
	if _, err := ReadTrace(strings.NewReader("{bad")); err == nil {
		t.Error("bad trace JSON should error")
	}
}

func TestSparklineEdgeCases(t *testing.T) {
	empty := &Trace{}
	if empty.Sparkline(10) != "" {
		t.Error("empty trace sparkline should be empty")
	}
	flat := &Trace{Points: []TracePoint{{0, 5}, {1, 5}}}
	if s := flat.Sparkline(4); len([]rune(s)) != 4 {
		t.Errorf("flat sparkline %q", s)
	}
}

// TestCensusStopsOnError: the first failing run cancels the census — the
// error surfaces instead of the harness grinding through the remaining
// runs and ratios.
func TestCensusStopsOnError(t *testing.T) {
	bad := partition.Ratio{Pr: -1, Rr: 1, Sr: 1} // rejected by push.Run
	_, err := Census(CensusConfig{
		N:            16,
		RunsPerRatio: 4,
		Ratios:       []partition.Ratio{bad, partition.MustRatio(2, 1, 1)},
		Seed:         1,
	})
	if err == nil {
		t.Fatal("census swallowed the run error")
	}
	if !strings.Contains(err.Error(), "positive") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestCensusWorkerCountInvariance: the worker-pool size is a throughput
// knob only — archetype counts are identical for any worker count.
func TestCensusWorkerCountInvariance(t *testing.T) {
	base := CensusConfig{
		N:            24,
		RunsPerRatio: 10,
		Ratios:       []partition.Ratio{partition.MustRatio(3, 2, 1)},
		Seed:         9,
		Beautify:     true,
	}
	var want map[shape.Archetype]int
	for _, workers := range []int{1, 2, 7, 32} {
		cfg := base
		cfg.Workers = workers
		rows, err := Census(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = rows[0].Counts
			continue
		}
		for a, c := range want {
			if rows[0].Counts[a] != c {
				t.Fatalf("workers=%d: counts diverge: %v vs %v", workers, rows[0].Counts, want)
			}
		}
	}
}
