package sim

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/partition"
)

func TestEngineSerialResource(t *testing.T) {
	var e Engine
	r := &Resource{Name: "link"}
	a := e.NewTask("a", 2, r)
	b := e.NewTask("b", 3, r)
	makespan := e.Run()
	if makespan != 5 {
		t.Fatalf("makespan = %v, want 5 (serialised)", makespan)
	}
	if a.Finish != 2 || b.Start != 2 || b.Finish != 5 {
		t.Fatalf("timeline wrong: a=[%v,%v] b=[%v,%v]", a.Start, a.Finish, b.Start, b.Finish)
	}
}

func TestEngineParallelResources(t *testing.T) {
	var e Engine
	a := e.NewTask("a", 2, &Resource{})
	b := e.NewTask("b", 3, &Resource{})
	if makespan := e.Run(); makespan != 3 {
		t.Fatalf("makespan = %v, want 3 (parallel)", makespan)
	}
	if a.Start != 0 || b.Start != 0 {
		t.Fatal("independent tasks should both start at 0")
	}
}

func TestEngineDependencies(t *testing.T) {
	var e Engine
	a := e.NewTask("a", 1, nil)
	b := e.NewTask("b", 1, nil, a)
	c := e.NewTask("c", 1, nil, a, b)
	if makespan := e.Run(); makespan != 3 {
		t.Fatalf("makespan = %v, want 3 (chain)", makespan)
	}
	if c.Start != 2 {
		t.Fatalf("c.Start = %v, want 2", c.Start)
	}
}

func TestEngineDiamond(t *testing.T) {
	var e Engine
	src := e.NewTask("src", 1, nil)
	l := e.NewTask("l", 5, nil, src)
	r := e.NewTask("r", 2, nil, src)
	sink := e.NewTask("sink", 1, nil, l, r)
	if makespan := e.Run(); makespan != 7 {
		t.Fatalf("makespan = %v, want 7", makespan)
	}
	if sink.Start != 6 {
		t.Fatalf("sink.Start = %v", sink.Start)
	}
}

func TestEngineZeroDuration(t *testing.T) {
	var e Engine
	a := e.NewTask("a", 0, nil)
	b := e.NewTask("b", 0, nil, a)
	if makespan := e.Run(); makespan != 0 {
		t.Fatalf("makespan = %v, want 0", makespan)
	}
	_ = b
}

func TestEngineNegativeDurationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative duration should panic")
		}
	}()
	var e Engine
	e.NewTask("bad", -1, nil)
}

func TestEngineResourceContentionOrder(t *testing.T) {
	// Two tasks become ready at different times and compete for a link:
	// the earlier-ready one must go first.
	var e Engine
	link := &Resource{}
	gate := e.NewTask("gate", 5, nil)
	early := e.NewTask("early", 10, link)
	late := e.NewTask("late", 1, link, gate)
	e.Run()
	if early.Start != 0 {
		t.Fatalf("early.Start = %v", early.Start)
	}
	if late.Start != 10 {
		t.Fatalf("late.Start = %v, want 10 (after early releases the link)", late.Start)
	}
}

func TestEngineTimelineSorted(t *testing.T) {
	var e Engine
	a := e.NewTask("a", 3, nil)
	e.NewTask("b", 1, nil, a)
	e.NewTask("c", 2, nil)
	e.Run()
	tl := e.Timeline()
	for i := 1; i < len(tl); i++ {
		if tl[i].Start < tl[i-1].Start {
			t.Fatal("timeline not sorted by start")
		}
	}
}

func buildGrid(t testing.TB, s partition.Shape, n int, ratio partition.Ratio) *partition.Grid {
	t.Helper()
	g, err := partition.Build(s, n, ratio)
	if err != nil {
		t.Skipf("shape %v infeasible for %v: %v", s, ratio, err)
	}
	return g
}

// TestSimulateMatchesModel is the simulator's contract with
// model.Evaluate: a clean run schedules the model's own prices, so PCB and
// PCO equal Total bit for bit (also at α > 0), SCB and SCO differ only in
// float summation order (the bus adds the senders' prices, Evaluate prices
// their summed table), and PIO's pipeline lands between N/(N+1)·Total and
// Total, and never behind SCB's no-overlap schedule. N = 300 and 512
// exceed maxPIOStages, so they cover the coarsened pipeline, and PIO is
// also held to its bounds at N = 700 and 1000, where a 256-stage cap
// would put three or four pivot steps in a stage. Run with -v for the
// sim ÷ model range of every algorithm and topology.
func TestSimulateMatchesModel(t *testing.T) {
	specs := []string{"fully-connected", "star", "2+1:10", "3-island:10"}
	type key struct {
		a    model.Algorithm
		spec string
	}
	lo, hi, gap, cases := map[key]float64{}, map[key]float64{}, map[key]float64{}, map[key]int{}
	check := func(a model.Algorithm, spec string, m model.Machine, g *partition.Grid, alpha bool) float64 {
		t.Helper()
		res, err := Simulate(a, m, g)
		if err != nil {
			t.Fatal(err)
		}
		want := model.EvaluateGrid(a, m, g).Total
		ok := true
		switch a {
		case model.PCB, model.PCO:
			ok = res.TExe == want
		case model.SCB, model.SCO:
			ok = math.Abs(res.TExe-want) <= 1e-15*want
		case model.PIO:
			n := float64(g.N())
			ok = res.TExe >= n/(n+1)*want*(1-1e-12) && res.TExe <= want*(1+1e-12)
		}
		if !ok {
			t.Errorf("%v %s N=%d %s α=%v: sim %v, model %v (ratio %v)",
				a, spec, g.N(), m.Ratio, m.Net.Alpha, res.TExe, want, res.TExe/want)
		}
		if alpha {
			return res.TExe
		}
		k := key{a, spec}
		r := res.TExe / want
		if cases[k] == 0 || r < lo[k] {
			lo[k] = r
		}
		if cases[k] == 0 || r > hi[k] {
			hi[k] = r
		}
		gap[k] = max(gap[k], math.Abs(res.TExe-want)/want)
		cases[k]++
		return res.TExe
	}
	for _, ratio := range partition.PaperRatios {
		var plain, latent []model.Machine
		for _, spec := range specs {
			ts, err := model.ParseTopologySpec(spec)
			if err != nil {
				t.Fatal(err)
			}
			base := model.DefaultMachine(ratio)
			plain = append(plain, ts.Apply(base))
			base.Net.Alpha = 1e-6
			latent = append(latent, ts.Apply(base))
		}
		for _, n := range []int{60, 64, 120, 128, 200, 256, 300, 512} {
			for _, s := range partition.AllShapes {
				g, err := partition.Build(s, n, ratio)
				if err != nil {
					continue
				}
				for i, spec := range specs {
					scb := check(model.SCB, spec, plain[i], g, false)
					for _, a := range model.AllAlgorithms[1:] {
						if texe := check(a, spec, plain[i], g, false); a == model.PIO && texe > scb*(1+1e-12) {
							t.Errorf("PIO %s N=%d %s: sim %v behind SCB's %v", spec, g.N(), ratio, texe, scb)
						}
					}
					check(model.PCB, spec, latent[i], g, true)
					check(model.PCO, spec, latent[i], g, true)
				}
			}
		}
		for _, n := range []int{700, 1000} {
			for _, s := range partition.AllShapes {
				g, err := partition.Build(s, n, ratio)
				if err != nil {
					continue
				}
				for i, spec := range specs {
					check(model.PIO, spec, plain[i], g, false)
				}
			}
		}
	}
	for _, a := range model.AllAlgorithms {
		for _, spec := range specs {
			k := key{a, spec}
			if cases[k] < 500 {
				t.Errorf("%v %s: only %d feasible cases", a, spec, cases[k])
			}
			t.Logf("%v %-16s %d cases, sim/model %.6f–%.6f, max relative gap %.2g", a, spec, cases[k], lo[k], hi[k], gap[k])
		}
	}
}

func TestSimulateMatchesModelBarrier(t *testing.T) {
	// The simulator and the analytic models must agree for the barrier
	// algorithms (their schedules are exactly the models' formulas).
	for _, ratio := range []partition.Ratio{
		partition.MustRatio(2, 1, 1),
		partition.MustRatio(5, 2, 1),
		partition.MustRatio(10, 1, 1),
	} {
		m := model.DefaultMachine(ratio)
		for _, s := range partition.AllShapes {
			g, err := partition.Build(s, 80, ratio)
			if err != nil {
				continue
			}
			for _, a := range []model.Algorithm{model.SCB, model.PCB} {
				res, err := Simulate(a, m, g)
				if err != nil {
					t.Fatal(err)
				}
				want := model.EvaluateGrid(a, m, g).Total
				if rel := math.Abs(res.TExe-want) / want; rel > 1e-9 {
					t.Errorf("%v %v %v: sim %g vs model %g", a, s, ratio, res.TExe, want)
				}
			}
		}
	}
}

func TestSimulateMatchesModelBulkOverlap(t *testing.T) {
	ratio := partition.MustRatio(5, 2, 1)
	m := model.DefaultMachine(ratio)
	for _, s := range partition.AllShapes {
		g, err := partition.Build(s, 80, ratio)
		if err != nil {
			continue
		}
		for _, a := range []model.Algorithm{model.SCO, model.PCO} {
			res, err := Simulate(a, m, g)
			if err != nil {
				t.Fatal(err)
			}
			want := model.EvaluateGrid(a, m, g).Total
			if rel := math.Abs(res.TExe-want) / want; rel > 1e-9 {
				t.Errorf("%v %v: sim %g vs model %g", a, s, res.TExe, want)
			}
		}
	}
}

func TestSimulatePIOWithinModelBounds(t *testing.T) {
	// PIO's pipeline simulation should land between the no-overlap upper
	// bound (SCB) and the perfect-overlap lower bound.
	ratio := partition.MustRatio(4, 2, 1)
	m := model.DefaultMachine(ratio)
	g := buildGrid(t, partition.BlockRectangle, 100, ratio)
	res, err := Simulate(model.PIO, m, g)
	if err != nil {
		t.Fatal(err)
	}
	scb := model.EvaluateGrid(model.SCB, m, g).Total
	// Lower bound: the slower of total comm and total comp.
	comm := m.Net.Time(g.VoC())
	comp := model.EvaluateGrid(model.SCB, m, g).Comp
	lower := math.Max(comm, comp)
	if res.TExe < lower*0.99 {
		t.Errorf("PIO %g below perfect-overlap bound %g", res.TExe, lower)
	}
	if res.TExe > scb*1.01 {
		t.Errorf("PIO %g above no-overlap bound %g", res.TExe, scb)
	}
}

func TestSimulateOverlapBeatsBarrier(t *testing.T) {
	ratio := partition.MustRatio(10, 1, 1)
	m := model.DefaultMachine(ratio)
	g := buildGrid(t, partition.SquareCorner, 100, ratio)
	scb, _ := Simulate(model.SCB, m, g)
	sco, _ := Simulate(model.SCO, m, g)
	if sco.TExe > scb.TExe+1e-12 {
		t.Errorf("SCO %g should not exceed SCB %g", sco.TExe, scb.TExe)
	}
}

func TestSimulateSquareCornerVsBlockRectangleCrossover(t *testing.T) {
	// Fig 14 in simulation: at ratio 20:1:1 the Square-Corner's simulated
	// SCB communication time beats the Block-Rectangle's; at 3:1:1 it
	// loses.
	check := func(x float64, scWins bool) {
		ratio := partition.MustRatio(x, 1, 1)
		m := model.DefaultMachine(ratio)
		sc, err := partition.Build(partition.SquareCorner, 200, ratio)
		if err != nil {
			t.Fatalf("x=%v: %v", x, err)
		}
		br, err := partition.Build(partition.BlockRectangle, 200, ratio)
		if err != nil {
			t.Fatalf("x=%v: %v", x, err)
		}
		scRes, _ := Simulate(model.SCB, m, sc)
		brRes, _ := Simulate(model.SCB, m, br)
		if scWins && scRes.TComm >= brRes.TComm {
			t.Errorf("x=%v: SC comm %g should beat BR %g", x, scRes.TComm, brRes.TComm)
		}
		if !scWins && scRes.TComm <= brRes.TComm {
			t.Errorf("x=%v: BR comm %g should beat SC %g", x, brRes.TComm, scRes.TComm)
		}
	}
	check(3, false)
	check(20, true)
}

func TestSimulateStarSlower(t *testing.T) {
	ratio := partition.MustRatio(4, 2, 1)
	g := buildGrid(t, partition.BlockRectangle, 80, ratio)
	full := model.DefaultMachine(ratio)
	star := full
	star.Topology = model.Star
	for _, a := range model.AllAlgorithms {
		f, err := Simulate(a, full, g)
		if err != nil {
			t.Fatal(err)
		}
		s, err := Simulate(a, star, g)
		if err != nil {
			t.Fatal(err)
		}
		if s.TExe < f.TExe-1e-12 {
			t.Errorf("%v: star %g faster than full %g", a, s.TExe, f.TExe)
		}
	}
}

func TestSimulateInvalidInputs(t *testing.T) {
	g := partition.NewGrid(10)
	if _, err := Simulate(model.SCB, model.Machine{}, g); err == nil {
		t.Error("zero machine should fail ratio validation")
	}
	m := model.DefaultMachine(partition.MustRatio(2, 1, 1))
	if _, err := Simulate(model.Algorithm(77), m, g); err == nil {
		t.Error("unknown algorithm should error")
	}
}

func BenchmarkSimulateSCB(b *testing.B) {
	ratio := partition.MustRatio(5, 2, 1)
	m := model.DefaultMachine(ratio)
	g, err := partition.Build(partition.BlockRectangle, 200, ratio)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(model.SCB, m, g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulatePIO(b *testing.B) {
	ratio := partition.MustRatio(5, 2, 1)
	m := model.DefaultMachine(ratio)
	g, err := partition.Build(partition.BlockRectangle, 200, ratio)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(model.PIO, m, g); err != nil {
			b.Fatal(err)
		}
	}
}

func TestGantt(t *testing.T) {
	ratio := partition.MustRatio(10, 1, 1)
	m := model.DefaultMachine(ratio)
	g := buildGrid(t, partition.SquareCorner, 80, ratio)
	for _, a := range []model.Algorithm{model.SCB, model.PCB, model.SCO, model.PCO} {
		chart, err := Gantt(a, m, g, 60)
		if err != nil {
			t.Fatalf("%v: %v", a, err)
		}
		if !strings.Contains(chart, "makespan") {
			t.Errorf("%v: header missing:\n%s", a, chart)
		}
		if !strings.Contains(chart, "send-") || !strings.Contains(chart, "█") {
			t.Errorf("%v: bars missing:\n%s", a, chart)
		}
	}
	// The header names the machine's topology, link classes included, and
	// PCO's star relay is its own row.
	for _, tc := range []struct{ spec, row string }{
		{"3-island:10", "send-S"},
		{"star", "relay-P"},
	} {
		ts, err := model.ParseTopologySpec(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		chart, err := Gantt(model.PCO, ts.Apply(m), g, 60)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(chart, "PCO on "+tc.spec+" topology") || !strings.Contains(chart, tc.row) {
			t.Errorf("%s chart lacks its header or %s row:\n%s", tc.spec, tc.row, chart)
		}
	}
	if _, err := Gantt(model.PIO, m, g, 60); err == nil {
		t.Error("PIO Gantt should be rejected")
	}
	if _, err := Gantt(model.Algorithm(99), m, g, 60); err == nil {
		t.Error("unknown algorithm should be rejected")
	}
	if _, err := Gantt(model.SCB, model.Machine{}, g, 60); err == nil {
		t.Error("invalid machine should be rejected")
	}
}

func TestGanttOverlapVisible(t *testing.T) {
	// SCO on a Square-Corner: P's overlap bar must start at time 0
	// alongside the sends — that is the whole point of bulk overlap.
	ratio := partition.MustRatio(10, 1, 1)
	m := model.DefaultMachine(ratio)
	g := buildGrid(t, partition.SquareCorner, 80, ratio)
	chart, err := Gantt(model.SCO, m, g, 60)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(chart, "\n") {
		if strings.HasPrefix(line, "overlap-P") {
			bar := line[strings.Index(line, "|")+1:]
			if !strings.HasPrefix(bar, "█") {
				t.Errorf("overlap-P should start at t=0:\n%s", chart)
			}
			return
		}
	}
	t.Errorf("no overlap-P row:\n%s", chart)
}

func TestGanttMatchesSimulate(t *testing.T) {
	// The Gantt and Simulate share the task construction; spot-check the
	// makespans agree.
	ratio := partition.MustRatio(4, 2, 1)
	m := model.DefaultMachine(ratio)
	g := buildGrid(t, partition.BlockRectangle, 80, ratio)
	chart, err := Gantt(model.PCB, m, g, 60)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(model.PCB, m, g)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("makespan %.6fs", res.TExe)
	if !strings.Contains(chart, want) {
		t.Errorf("chart header should contain %q:\n%s", want, chart)
	}
}
