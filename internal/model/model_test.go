package model

import (
	"math"
	"testing"

	"repro/internal/partition"
)

func mach(ratio partition.Ratio) Machine { return DefaultMachine(ratio) }

func TestAlgorithmStringsAndParse(t *testing.T) {
	for _, a := range AllAlgorithms {
		got, err := ParseAlgorithm(a.String())
		if err != nil || got != a {
			t.Errorf("round trip %v failed: %v %v", a, got, err)
		}
	}
	if _, err := ParseAlgorithm("XXX"); err == nil {
		t.Error("bogus algorithm should not parse")
	}
	if Algorithm(99).String() == "" {
		t.Error("unknown algorithm string")
	}
}

func TestTopologyString(t *testing.T) {
	if FullyConnected.String() != "fully-connected" || Star.String() != "star" {
		t.Error("topology names")
	}
}

func TestHockney(t *testing.T) {
	h := Hockney{Alpha: 1e-6, Beta: 1e-9}
	if h.Time(0) != 0 {
		t.Error("zero-volume message should cost nothing")
	}
	want := 1e-6 + 1000e-9
	if got := h.Time(1000); math.Abs(got-want) > 1e-18 {
		t.Errorf("Time(1000) = %g, want %g", got, want)
	}
}

func TestSendVolumeDefinition(t *testing.T) {
	// Eq 6 on a hand-built partition: R owns a 2×3 block in a 6×6 grid.
	g := partition.NewGrid(6)
	for i := 1; i < 3; i++ {
		for j := 2; j < 5; j++ {
			g.Set(i, j, partition.R)
		}
	}
	snap := g.Snapshot()
	// Exact sends: R's 6 cells each sit in a shared row (+6) and a shared
	// column (+6) → 12.
	if got := snap.Sends[partition.R]; got != 12 {
		t.Errorf("sends(R) = %d, want 12", got)
	}
	// P's cells in R's 2 rows: 2·(6−3)=6; in R's 3 cols: 3·(6−2)=12 → 18.
	if got := snap.Sends[partition.P]; got != 18 {
		t.Errorf("sends(P) = %d, want 18", got)
	}
	if got := snap.Sends[partition.S]; got != 0 {
		t.Errorf("sends(S) = %d, want 0 for empty processor", got)
	}
	// The paper's literal Eq 6 for comparison: d_R = 6·2+6·3−6 = 24.
	if got := SendVolumeEq6(snap, partition.R); got != 24 {
		t.Errorf("Eq6 d_R = %d, want 24", got)
	}
	// Exact sends always sum to the VoC of Eq 1.
	total := snap.Sends[partition.P] + snap.Sends[partition.R] + snap.Sends[partition.S]
	if total != snap.VoC {
		t.Errorf("Σ sends = %d, VoC = %d", total, snap.VoC)
	}
}

func TestEvaluateSingleProcessorNoComm(t *testing.T) {
	// All elements on P: no communication under any algorithm; execution
	// time is pure computation.
	ratio := partition.MustRatio(2, 1, 1)
	g := partition.NewGrid(8)
	m := mach(ratio)
	for _, a := range AllAlgorithms {
		b := EvaluateGrid(a, m, g)
		if b.Comm != 0 {
			t.Errorf("%v: comm = %g, want 0", a, b.Comm)
		}
		wantComp := float64(64*8) * m.FlopTime / ratio.Pr
		if b.Total < wantComp-1e-15 || b.Total > wantComp*1.2+1e-15 {
			t.Errorf("%v: total %g implausible vs pure compute %g", a, b.Total, wantComp)
		}
	}
}

func TestSCBUsesFullVoC(t *testing.T) {
	ratio := partition.MustRatio(5, 2, 1)
	g, err := partition.Build(partition.BlockRectangle, 60, ratio)
	if err != nil {
		t.Fatal(err)
	}
	m := mach(ratio)
	b := EvaluateGrid(SCB, m, g)
	want := m.Net.Time(g.VoC())
	if math.Abs(b.Comm-want) > 1e-15 {
		t.Errorf("SCB comm = %g, want Hockney(VoC) = %g", b.Comm, want)
	}
}

func TestPCBNoSlowerThanSerializedSends(t *testing.T) {
	ratio := partition.MustRatio(5, 2, 1)
	g, err := partition.Build(partition.TraditionalRectangle, 60, ratio)
	if err != nil {
		t.Fatal(err)
	}
	m := mach(ratio)
	pcb := EvaluateGrid(PCB, m, g)
	var serial float64
	for _, p := range partition.Procs {
		serial += m.Net.Time(g.Snapshot().Sends[p])
	}
	if pcb.Comm > serial+1e-15 {
		t.Errorf("parallel comm %g exceeds serialised sends %g", pcb.Comm, serial)
	}
	if pcb.Comm <= 0 {
		t.Error("expected nonzero parallel comm")
	}
}

func TestOverlapAlgorithmsNeverSlower(t *testing.T) {
	// Bulk overlap can only help: T(SCO) ≤ T(SCB), T(PCO) ≤ T(PCB).
	for _, ratio := range partition.PaperRatios {
		for _, s := range partition.AllShapes {
			g, err := partition.Build(s, 80, ratio)
			if err != nil {
				continue
			}
			m := mach(ratio)
			if sco, scb := EvaluateGrid(SCO, m, g), EvaluateGrid(SCB, m, g); sco.Total > scb.Total+1e-12 {
				t.Errorf("%v %v: SCO %g > SCB %g", s, ratio, sco.Total, scb.Total)
			}
			if pco, pcb := EvaluateGrid(PCO, m, g), EvaluateGrid(PCB, m, g); pco.Total > pcb.Total+1e-12 {
				t.Errorf("%v %v: PCO %g > PCB %g", s, ratio, pco.Total, pcb.Total)
			}
		}
	}
}

func TestLowerVoCNeverWorseSCB(t *testing.T) {
	// The Section IV-B assertion underlying the entire Push programme:
	// with computation balanced (identical counts), lower VoC gives
	// equal-or-lower modelled execution time. Compare candidate shapes
	// pairwise under SCB.
	ratio := partition.MustRatio(10, 1, 1)
	m := mach(ratio)
	type entry struct {
		voc   int64
		total float64
	}
	var entries []entry
	for _, s := range partition.AllShapes {
		g, err := partition.Build(s, 100, ratio)
		if err != nil {
			continue
		}
		b := EvaluateGrid(SCB, m, g)
		entries = append(entries, entry{g.VoC(), b.Total})
	}
	for i := range entries {
		for j := range entries {
			if entries[i].voc < entries[j].voc && entries[i].total > entries[j].total+1e-12 {
				t.Errorf("lower VoC (%d vs %d) but higher time (%g vs %g)",
					entries[i].voc, entries[j].voc, entries[i].total, entries[j].total)
			}
		}
	}
}

func TestStarTopologyNeverCheaperThanFull(t *testing.T) {
	ratio := partition.MustRatio(4, 2, 1)
	g, err := partition.Build(partition.BlockRectangle, 60, ratio)
	if err != nil {
		t.Fatal(err)
	}
	full := mach(ratio)
	star := full
	star.Topology = Star
	for _, a := range AllAlgorithms {
		f := EvaluateGrid(a, full, g)
		s := EvaluateGrid(a, star, g)
		if s.Total < f.Total-1e-12 {
			t.Errorf("%v: star %g cheaper than fully connected %g", a, s.Total, f.Total)
		}
	}
}

func TestNormalizedVoCAgainstGrids(t *testing.T) {
	// The closed forms must match the exact VoC of constructed shapes as
	// N grows (within O(1/N) raggedness).
	const n = 400
	for _, ratio := range []partition.Ratio{
		partition.MustRatio(10, 1, 1),
		partition.MustRatio(5, 2, 1),
		partition.MustRatio(4, 2, 1),
	} {
		for _, s := range partition.AllShapes {
			v, ok := NormalizedVoC(s, ratio)
			if !ok {
				continue
			}
			g, err := partition.Build(s, n, ratio)
			if err != nil {
				t.Errorf("%v %v: closed form feasible but construction failed: %v", s, ratio, err)
				continue
			}
			exact := float64(g.VoC()) / float64(n*n)
			if math.Abs(exact-v) > 0.03 {
				t.Errorf("%v %v: closed form %.4f vs exact %.4f", s, ratio, v, exact)
			}
		}
	}
}

func TestSquareCornerBeatsBlockRectangleAtHighHeterogeneity(t *testing.T) {
	// The paper's headline comparison (Fig 13/14): SC loses at low
	// heterogeneity, wins at high.
	low := partition.MustRatio(3, 1, 1)
	high := partition.MustRatio(20, 1, 1)
	scLow, ok1 := NormalizedVoC(partition.SquareCorner, low)
	brLow, ok2 := NormalizedVoC(partition.BlockRectangle, low)
	scHigh, ok3 := NormalizedVoC(partition.SquareCorner, high)
	brHigh, ok4 := NormalizedVoC(partition.BlockRectangle, high)
	if !ok1 || !ok2 || !ok3 || !ok4 {
		t.Fatal("all four closed forms should exist")
	}
	if scLow < brLow {
		t.Errorf("at 3:1:1 Block-Rectangle should win: SC %.3f BR %.3f", scLow, brLow)
	}
	if scHigh > brHigh {
		t.Errorf("at 20:1:1 Square-Corner should win: SC %.3f BR %.3f", scHigh, brHigh)
	}
}

func TestFig14CrossoverLocation(t *testing.T) {
	// For x:1:1 ratios the SCB crossover solves 4/√T = 1 + 2/T, i.e.
	// √T = 2+√2, T ≈ 11.66, x = T−2 ≈ 9.7.
	var crossover float64
	prev := math.Inf(1)
	for x := 2.0; x <= 25; x += 0.25 {
		ratio := partition.MustRatio(x, 1, 1)
		sc, okSC := NormalizedVoC(partition.SquareCorner, ratio)
		br, _ := NormalizedVoC(partition.BlockRectangle, ratio)
		if !okSC {
			continue
		}
		diff := sc - br
		if prev > 0 && diff <= 0 {
			crossover = x
			break
		}
		prev = diff
	}
	if crossover < 9 || crossover > 10.5 {
		t.Errorf("SC/BR crossover at x = %.2f, expected ≈ 9.7", crossover)
	}
}

func TestSCBCommSeconds(t *testing.T) {
	ratio := partition.MustRatio(10, 1, 1)
	m := mach(ratio)
	secs, ok := SCBCommSeconds(partition.SquareCorner, m, 5000)
	if !ok {
		t.Fatal("should be feasible")
	}
	v, _ := NormalizedVoC(partition.SquareCorner, ratio)
	want := v * 25e6 * m.Net.Beta
	if math.Abs(secs-want) > 1e-12 {
		t.Errorf("comm seconds %g, want %g", secs, want)
	}
	if _, ok := SCBCommSeconds(partition.SquareCorner, mach(partition.MustRatio(2, 2, 1)), 100); ok {
		t.Error("infeasible ratio should report !ok")
	}
}

func TestCommVolumeStarAddsRelay(t *testing.T) {
	// Star adds StarRelayVolume to each algorithm's traffic exactly once,
	// on the P→S link: in P's serial stream (SCB, SCO, PIO), in R's and
	// S's own sends (PCB), or as PCO's trailing message.
	ratio := partition.MustRatio(4, 2, 1)
	g, err := partition.Build(partition.BlockRectangle, 40, ratio)
	if err != nil {
		t.Fatal(err)
	}
	snap := g.Snapshot()
	relay := StarRelayVolume(&snap)
	if relay == 0 {
		t.Fatal("test shape has no R↔S traffic; pick another")
	}
	full := mach(ratio)
	star := full
	star.Topology = Star
	for _, a := range AllAlgorithms {
		var f, s Traffic
		Transfers(a, &full, &snap, &f)
		Transfers(a, &star, &snap, &s)
		if f.Relay != (VolumeTable{}) {
			t.Errorf("%v: fully connected relay %v, want none", a, f.Relay)
		}
		var extra VolumeTable
		for _, p := range partition.Procs {
			if f.Sends[p][p] != snap.PairSends[p] {
				t.Errorf("%v: %v's sends %v, want its PairSends row %v", a, p, f.Sends[p], snap.PairSends[p])
			}
			for from := range extra {
				for to := range extra[from] {
					extra[from][to] += s.Sends[p][from][to] - f.Sends[p][from][to]
				}
			}
		}
		for from := range extra {
			for to := range extra[from] {
				extra[from][to] += s.Relay[from][to]
			}
		}
		var want VolumeTable
		want[partition.P][partition.S] = relay
		if a == PCB {
			want[partition.P][partition.S] = 2 * relay
		}
		if extra != want {
			t.Errorf("%v: star adds %v, want %v", a, extra, want)
		}
	}
}

func TestEvaluatePanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown algorithm should panic")
		}
	}()
	Evaluate(Algorithm(42), mach(partition.MustRatio(2, 1, 1)), partition.Metrics{N: 4})
}

// evaluateTopologies are the topologies the plan_search workload cycles
// through: both legacy names and the two named link classes.
var evaluateTopologies = []string{"fully-connected", "star", "2+1:10", "3-island:10"}

// evaluateFixture returns Block-Rectangle 5:2:1 at N=200 and its machine
// under topology spec.
func evaluateFixture(tb testing.TB, spec string) (Machine, partition.Metrics) {
	tb.Helper()
	ratio := partition.MustRatio(5, 2, 1)
	g, err := partition.Build(partition.BlockRectangle, 200, ratio)
	if err != nil {
		tb.Fatal(err)
	}
	ts, err := ParseTopologySpec(spec)
	if err != nil {
		tb.Fatal(err)
	}
	return ts.Apply(mach(ratio)), g.Snapshot()
}

// evaluateSink keeps the benchmarked evaluations from being optimised away.
var evaluateSink Breakdown

// BenchmarkEvaluateAll times the five evaluations of one partition, once
// per topology.
func BenchmarkEvaluateAll(b *testing.B) {
	for _, spec := range evaluateTopologies {
		b.Run(spec, func(b *testing.B) {
			m, snap := evaluateFixture(b, spec)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, a := range AllAlgorithms {
					evaluateSink = Evaluate(a, m, snap)
				}
			}
		})
	}
}

// TestEvaluateZeroAllocs: the one pricing path works on fixed-size arrays,
// so no topology makes Evaluate allocate.
func TestEvaluateZeroAllocs(t *testing.T) {
	for _, spec := range evaluateTopologies {
		m, snap := evaluateFixture(t, spec)
		allocs := testing.AllocsPerRun(100, func() {
			for _, a := range AllAlgorithms {
				Evaluate(a, m, snap)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: Evaluate allocates %v times per five evaluations, want 0", spec, allocs)
		}
	}
}

func TestIdealTimeAndEfficiency(t *testing.T) {
	ratio := partition.MustRatio(5, 2, 1)
	m := mach(ratio)
	const n = 100
	// Ideal: n³ updates at aggregate speed T.
	want := float64(n) * float64(n) * float64(n) * m.FlopTime / ratio.T()
	if got := IdealTime(m, n); math.Abs(got-want) > 1e-18 {
		t.Errorf("IdealTime = %g, want %g", got, want)
	}
	// A balanced partition's efficiency is in (0, 1]; a shape with less
	// communication is at least as efficient.
	br, err := partition.Build(partition.BlockRectangle, n, ratio)
	if err != nil {
		t.Fatal(err)
	}
	lr, err := partition.Build(partition.LRectangle, n, ratio)
	if err != nil {
		t.Fatal(err)
	}
	effBR := Efficiency(SCB, m, br.Snapshot())
	effLR := Efficiency(SCB, m, lr.Snapshot())
	if effBR <= 0 || effBR > 1 {
		t.Errorf("efficiency out of range: %g", effBR)
	}
	if br.VoC() < lr.VoC() && effBR < effLR {
		t.Errorf("lower-VoC shape should be at least as efficient: %g vs %g", effBR, effLR)
	}
	// Perfectly communication-free single processor at the aggregate's
	// share: the all-P grid has efficiency Pr/T (only P works).
	allP := partition.NewGrid(n)
	eff := Efficiency(SCB, m, allP.Snapshot())
	want = ratio.Pr / ratio.T()
	if math.Abs(eff-want) > 1e-9 {
		t.Errorf("all-P efficiency %g, want Pr/T = %g", eff, want)
	}
}
