package heteropart

// One benchmark per experiment in the paper's evaluation (see DESIGN.md §5
// for the index). Each benchmark both measures the cost of regenerating
// the experiment and — once per process — prints the rows/series the paper
// reports, so `go test -bench=. -benchmem` doubles as the reproduction
// harness whose output EXPERIMENTS.md records.

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"testing"

	"repro/internal/exec"
	"repro/internal/experiment"
	"repro/internal/matrix"
	"repro/internal/model"
	"repro/internal/partition"
	"repro/internal/push"
	"repro/internal/shape"
	"repro/internal/twoproc"
)

var benchOnce sync.Map

func printOnce(key string, f func()) {
	if _, loaded := benchOnce.LoadOrStore(key, true); !loaded {
		f()
	}
}

// BenchmarkFig5ArchetypeCensus regenerates the Section VII census: DFA
// runs across the paper's eleven ratios, every terminal state classified
// into archetypes A–D (Fig 5). The paper ran ~10,000×11 at N=1000; the
// benchmark uses a laptop-scale sample with identical structure.
func BenchmarkFig5ArchetypeCensus(b *testing.B) {
	cfg := experiment.CensusConfig{N: 60, RunsPerRatio: 8, Seed: 1, Beautify: true}
	for i := 0; i < b.N; i++ {
		rows, err := experiment.Census(cfg)
		if err != nil {
			b.Fatal(err)
		}
		cx := experiment.CensusCounterexamples(rows)
		b.ReportMetric(float64(cx), "counterexamples")
		printOnce("fig5", func() {
			fmt.Printf("\n== Fig 5 / §VII census (N=%d, %d runs/ratio) ==\n", cfg.N, cfg.RunsPerRatio)
			experiment.WriteCensusTable(os.Stdout, rows)
			fmt.Printf("counterexamples to Postulate 1: %d\n", cx)
		})
	}
}

// BenchmarkFig7ExampleRun regenerates the Fig 7 example: a single seeded
// 2:1:1 run rendered at coarse granularity at several snapshot steps.
func BenchmarkFig7ExampleRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		frames, res, err := experiment.ExampleRun(100, partition.MustRatio(2, 1, 1), 4, []int{0, 60, 120, 180}, 25)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Steps), "pushes")
		printOnce("fig7", func() {
			fmt.Printf("\n== Fig 7 example run (2:1:1, N=100, seed 4): %d pushes, VoC %d → %d ==\n",
				res.Steps, res.InitialVoC, res.FinalVoC)
			for _, step := range []int{0, 60, 120, res.Steps} {
				if f, ok := frames[step]; ok {
					fmt.Printf("--- step %d ---\n%s", step, f)
				}
			}
		})
	}
}

// BenchmarkFig10Candidates builds all six candidate shapes (Fig 10) for a
// representative ratio and reports their communication volumes.
func BenchmarkFig10Candidates(b *testing.B) {
	ratio := MustRatio(5, 2, 1)
	const n = 200
	for i := 0; i < b.N; i++ {
		type row struct {
			s   Shape
			voc int64
			ok  bool
		}
		var rows []row
		for _, s := range AllShapes {
			g, err := BuildShape(s, n, ratio)
			if err != nil {
				rows = append(rows, row{s: s})
				continue
			}
			rows = append(rows, row{s, g.VoC(), true})
		}
		printOnce("fig10", func() {
			fmt.Printf("\n== Fig 10 candidates (ratio %s, N=%d) ==\n", ratio, n)
			for _, r := range rows {
				if !r.ok {
					fmt.Printf("%-22s infeasible\n", r.s)
					continue
				}
				fmt.Printf("%-22s VoC %d (%.4f × N²)\n", r.s, r.voc, float64(r.voc)/float64(n*n))
			}
		})
	}
}

// BenchmarkFig11Type1Canonical regenerates the Fig 11 content: the
// Square-Corner (1A) canonical form where feasible (Thm 9.1) and the
// Rectangle-Corner (1B) optimum where not, across a ratio sweep.
func BenchmarkFig11Type1Canonical(b *testing.B) {
	const n = 200
	for i := 0; i < b.N; i++ {
		type row struct {
			ratio    Ratio
			feasible bool
			voc1a    int64
			voc1b    int64
		}
		var rows []row
		for _, ratio := range PaperRatios {
			r := row{ratio: ratio, feasible: SquareCornerFeasible(ratio)}
			if g, err := BuildShape(SquareCorner, n, ratio); err == nil {
				r.voc1a = g.VoC()
			}
			if g, err := BuildShape(RectangleCorner, n, ratio); err == nil {
				r.voc1b = g.VoC()
			}
			rows = append(rows, r)
		}
		printOnce("fig11", func() {
			fmt.Printf("\n== Fig 11 Type 1 canonical forms (N=%d) ==\n", n)
			fmt.Println("| ratio | Pr>2√(RrSr)? | Square-Corner VoC | Rectangle-Corner VoC |")
			for _, r := range rows {
				sc := "-"
				if r.feasible {
					sc = fmt.Sprint(r.voc1a)
				}
				fmt.Printf("| %s | %v | %s | %d |\n", r.ratio, r.feasible, sc, r.voc1b)
			}
		})
	}
}

// BenchmarkFig12Canonical36 regenerates Fig 12: canonical Types 3–6 and
// their volumes for a ratio sweep.
func BenchmarkFig12Canonical36(b *testing.B) {
	const n = 200
	shapes := []Shape{SquareRectangle, BlockRectangle, LRectangle, TraditionalRectangle}
	for i := 0; i < b.N; i++ {
		out := make(map[string][4]int64)
		var order []string
		for _, ratio := range PaperRatios {
			var vals [4]int64
			for k, s := range shapes {
				if g, err := BuildShape(s, n, ratio); err == nil {
					vals[k] = g.VoC()
				} else {
					vals[k] = -1
				}
			}
			out[ratio.String()] = vals
			order = append(order, ratio.String())
		}
		printOnce("fig12", func() {
			fmt.Printf("\n== Fig 12 canonical Types 3–6 VoC (N=%d) ==\n", n)
			fmt.Println("| ratio | Square-Rect | Block-Rect | L-Rect | Traditional |")
			for _, k := range order {
				v := out[k]
				fmt.Printf("| %s | %d | %d | %d | %d |\n", k, v[0], v[1], v[2], v[3])
			}
		})
	}
}

// BenchmarkFig13CostSurface regenerates the Fig 13 cost surfaces
// (Square-Corner vs Block-Rectangle under SCB with the feasibility wall).
func BenchmarkFig13CostSurface(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := experiment.Fig13Surface(10, 20, 0.5)
		if len(pts) == 0 {
			b.Fatal("no surface points")
		}
		b.ReportMetric(float64(len(pts)), "samples")
		printOnce("fig13", func() {
			fmt.Printf("\n== Fig 13 cost surface (corners of the sampled plane) ==\n")
			fmt.Println("| Rr | Pr | SC | BR | SC feasible |")
			for _, p := range pts {
				corner := (p.Rr == 1 || p.Rr == 10) && (p.Pr == 1 || p.Pr == 10.5 || p.Pr == 20)
				if corner {
					sc := "-"
					if p.Feasible {
						sc = fmt.Sprintf("%.4f", p.SC)
					}
					fmt.Printf("| %.0f | %.1f | %s | %.4f | %v |\n", p.Rr, p.Pr, sc, p.BR, p.Feasible)
				}
			}
		})
	}
}

// BenchmarkFig14CommTime regenerates Fig 14: SCB communication seconds for
// Square-Corner vs Block-Rectangle, N=5000, 1000 MB/s, ratios x:1:1 —
// closed form plus simulated grids.
func BenchmarkFig14CommTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiment.Fig14Sweep(nil, 5000, 160)
		if err != nil {
			b.Fatal(err)
		}
		x := experiment.Crossover(rows)
		b.ReportMetric(x, "crossover_x")
		printOnce("fig14", func() {
			fmt.Printf("\n== Fig 14 communication time (SCB, fully connected, N=5000, 1000 MB/s) ==\n")
			experiment.WriteFig14Table(os.Stdout, rows)
			fmt.Printf("Square-Corner overtakes Block-Rectangle at x = %.0f (theory: x ≈ 9.7)\n", x)
		})
	}
}

// BenchmarkAlgoModelTable regenerates the Section X methodology: the
// optimal candidate per (ratio, algorithm) under both topologies.
func BenchmarkAlgoModelTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		full, err := experiment.OptimalShapes(context.Background(), 120, nil, model.TopologySpec{})
		if err != nil {
			b.Fatal(err)
		}
		starSpec, err := model.ParseTopologySpec("star")
		if err != nil {
			b.Fatal(err)
		}
		star, err := experiment.OptimalShapes(context.Background(), 120, nil, starSpec)
		if err != nil {
			b.Fatal(err)
		}
		printOnce("algotable", func() {
			fmt.Printf("\n== §X optimal shape per ratio × algorithm (N=120, fully connected) ==\n")
			experiment.WriteOptimalTable(os.Stdout, full)
			fmt.Printf("\n== same, star topology ==\n")
			experiment.WriteOptimalTable(os.Stdout, star)
		})
	}
}

// BenchmarkTwoProcOptimality regenerates the §II baseline: the prior
// work's two-processor optimality rule over a ratio sweep.
func BenchmarkTwoProcOptimality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		type row struct {
			fast          float64
			scVoC, slVoC  float64
			barrier, bulk twoproc.Shape
		}
		var rows []row
		for _, fast := range []float64{1, 2, 3, 4, 5, 10, 15, 25} {
			ratio := twoproc.Ratio{Fast: fast}
			rows = append(rows, row{
				fast:    fast,
				scVoC:   twoproc.NormalizedVoC(twoproc.SquareCorner, ratio),
				slVoC:   twoproc.NormalizedVoC(twoproc.StraightLine, ratio),
				barrier: twoproc.Optimal(model.SCB, ratio),
				bulk:    twoproc.Optimal(model.SCO, ratio),
			})
		}
		printOnce("twoproc", func() {
			fmt.Printf("\n== §II two-processor baseline (prior work [8]) ==\n")
			fmt.Println("| fast:1 | SC VoC/N² | SL VoC/N² | optimal (barrier) | optimal (overlap) |")
			for _, r := range rows {
				fmt.Printf("| %.0f | %.4f | %.4f | %v | %v |\n", r.fast, r.scVoC, r.slVoC, r.barrier, r.bulk)
			}
		})
	}
}

// BenchmarkPushSearch measures the raw DFA throughput the census rests on.
func BenchmarkPushSearch(b *testing.B) {
	for _, n := range []int{60, 120} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := push.Run(push.Config{N: n, Ratio: partition.MustRatio(2, 1, 1), Seed: int64(i)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReduceToA measures the Section VIII reduction pipeline.
func BenchmarkReduceToA(b *testing.B) {
	g, err := shape.Exemplar(shape.ArchetypeD, 96)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := shape.ReduceToA(g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecutorMMM measures the end-to-end goroutine execution with a
// non-rectangular partition (the Fig 14 platform substitute).
func BenchmarkExecutorMMM(b *testing.B) {
	const n = 128
	ratio := MustRatio(10, 1, 1)
	g, err := BuildShape(SquareCorner, n, ratio)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	x := matrix.New(n)
	y := matrix.New(n)
	x.FillRandom(rng)
	y.FillRandom(rng)
	cfg := exec.Config{Machine: model.DefaultMachine(ratio), Algorithm: model.SCB}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := exec.Multiply(cfg, g, x, y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationPushTypes isolates the engine's design choices
// (DESIGN.md §4): plateau types 5–6, the beautify pass, and clustered
// adversarial starts.
func BenchmarkAblationPushTypes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiment.PushAblation(60, partition.MustRatio(3, 1, 1), 6, 2)
		if err != nil {
			b.Fatal(err)
		}
		printOnce("ablation-types", func() {
			fmt.Printf("\n== Ablation: Push engine configurations (3:1:1, N=60, 6 runs) ==\n")
			experiment.WriteAblationTable(os.Stdout, rows)
		})
	}
}

// BenchmarkAblationLatency regenerates the latency-sensitivity study the
// paper's conclusion defers to future work: PIO pays N Hockney latencies
// where the barrier algorithms pay one.
func BenchmarkAblationLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiment.LatencySweep(nil, partition.MustRatio(5, 2, 1), 200)
		if err != nil {
			b.Fatal(err)
		}
		printOnce("ablation-latency", func() {
			fmt.Printf("\n== Latency sensitivity (Block-Rectangle, 5:2:1, N=200) ==\n")
			experiment.WriteLatencyTable(os.Stdout, rows)
		})
	}
}

// BenchmarkFourProcessorSearch exercises the §XI extension: the Push
// search on four heterogeneous processors, from a four-processor random
// start.
func BenchmarkFourProcessorSearch(b *testing.B) {
	ratio := partition.Speeds{8, 4, 2, 1}
	var drops float64
	for i := 0; i < b.N; i++ {
		start, err := partition.NewRandomK(60, ratio, rand.New(rand.NewSource(int64(i))))
		if err != nil {
			b.Fatal(err)
		}
		res, err := push.Run(push.Config{N: 60, Seed: int64(i), Start: start, Beautify: true})
		if err != nil {
			b.Fatal(err)
		}
		if res.FinalVoC > res.InitialVoC {
			b.Fatal("VoC rose")
		}
		drops += 100 * (1 - float64(res.FinalVoC)/float64(res.InitialVoC))
		b.ReportMetric(drops/float64(i+1), "%VoC_drop") // mean over seeds 0…i
		printOnce("fourproc", func() {
			fmt.Printf("\n== §XI extension: 4-processor search (8:4:2:1, N=60, seed 0) ==\n")
			fmt.Printf("%d pushes, VoC %d → %d, converged=%v\n",
				res.Steps, res.InitialVoC, res.FinalVoC, res.Converged)
		})
	}
}

// BenchmarkWinnerMap extends the Fig 13 comparison to all six candidates:
// a phase diagram of the optimal shape over the ratio plane.
func BenchmarkWinnerMap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		wm, err := experiment.ComputeWinnerMap(context.Background(), model.SCB, "fully-connected", model.TopologySpec{}, 6, 20, 1, 80)
		if err != nil {
			b.Fatal(err)
		}
		printOnce("winnermap", func() {
			fmt.Printf("\n== Optimal-shape phase diagram (SCB, N=80 grids) ==\n")
			wm.Write(os.Stdout)
			fmt.Printf("cells won: %v\n", wm.Count())
		})
	}
}

// BenchmarkVoCDecayTrace records the convergence curve of a Push run —
// the quantitative companion to the Fig 7 snapshots.
func BenchmarkVoCDecayTrace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tr, err := experiment.TraceRun(100, partition.MustRatio(2, 1, 1), 4)
		if err != nil {
			b.Fatal(err)
		}
		if !tr.Monotone() {
			b.Fatal("trace not monotone")
		}
		printOnce("voctrace", func() {
			first := tr.Points[0].VoC
			last := tr.Points[len(tr.Points)-1].VoC
			fmt.Printf("\n== VoC decay (2:1:1, N=100): %d steps, %d → %d ==\n%s\n",
				len(tr.Points)-1, first, last, tr.Sparkline(72))
		})
	}
}
