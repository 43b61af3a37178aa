package exec

import (
	"context"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/matrix"
	"repro/internal/model"
	"repro/internal/partition"
	"repro/internal/push"
	"repro/internal/twoproc"
)

func testMachine(ratio partition.Ratio) model.Machine {
	return model.DefaultMachine(ratio)
}

func randomMatrices(n int, seed int64) (*matrix.Dense, *matrix.Dense) {
	rng := rand.New(rand.NewSource(seed))
	a := matrix.New(n)
	b := matrix.New(n)
	a.FillRandom(rng)
	b.FillRandom(rng)
	return a, b
}

func TestMultiplyCanonicalShapesBitExact(t *testing.T) {
	// Every algorithm on every feasible canonical shape, and on a raw
	// random partition, yields a product bit-identical to the serial kij
	// kernel and moves exactly VoC elements — non-rectangular partitions
	// included. n=130 is no multiple of 8, 32 or matrix.PivotChunk, so
	// run segments, tiles, pivot chunks and PIO panels all end ragged.
	ratio := partition.MustRatio(5, 2, 1)
	for _, n := range []int{48, 130} {
		a, b := randomMatrices(n, 1)
		want := matrix.New(n)
		matrix.MulKIJ(want, a, b)
		grids := map[string]*partition.Grid{
			"random": partition.NewRandom(n, ratio, rand.New(rand.NewSource(int64(n)))),
		}
		for _, s := range partition.AllShapes {
			if g, err := partition.Build(s, n, ratio); err == nil {
				grids[s.String()] = g
			}
		}
		for name, g := range grids {
			for _, alg := range model.AllAlgorithms {
				c, stats, err := Multiply(Config{Machine: testMachine(ratio), Algorithm: alg}, g, a, b)
				if err != nil {
					t.Fatalf("n=%d %v %s: %v", n, alg, name, err)
				}
				if !c.Equal(want) {
					d, _ := c.MaxDiff(want)
					t.Errorf("n=%d %v %s: product differs from serial kij (max diff %g)", n, alg, name, d)
				}
				if stats.TotalVolume != g.VoC() {
					t.Errorf("n=%d %v %s: measured volume %d != VoC %d", n, alg, name, stats.TotalVolume, g.VoC())
				}
			}
		}
	}
}

func TestMultiplyArbitraryPartitionBitExact(t *testing.T) {
	// A raw random non-shape must also compute correctly, under every
	// algorithm.
	const n = 40
	ratio := partition.MustRatio(3, 2, 1)
	rng := rand.New(rand.NewSource(7))
	g := partition.NewRandom(n, ratio, rng)
	a, b := randomMatrices(n, 2)
	want := matrix.New(n)
	matrix.MulKIJ(want, a, b)
	for _, alg := range model.AllAlgorithms {
		c, stats, err := Multiply(Config{Machine: testMachine(ratio), Algorithm: alg}, g, a, b)
		if err != nil {
			t.Fatal(err)
		}
		if !c.Equal(want) {
			t.Errorf("%v: random-partition product differs from serial kij", alg)
		}
		if stats.TotalVolume != g.VoC() {
			t.Errorf("%v: measured volume %d != VoC %d", alg, stats.TotalVolume, g.VoC())
		}
		if stats.VirtualExe <= 0 {
			t.Errorf("%v: virtual timing missing", alg)
		}
	}
}

func TestMultiplyDFATerminalState(t *testing.T) {
	// End to end: a condensed partition from the Push search executes
	// correctly and cheaper than its random start.
	const n = 40
	ratio := partition.MustRatio(2, 1, 1)
	res, err := push.Run(push.Config{N: n, Ratio: ratio, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	a, b := randomMatrices(n, 3)
	want := matrix.New(n)
	matrix.MulKIJ(want, a, b)

	cfg := Config{Machine: testMachine(ratio), Algorithm: model.SCB}
	cEnd, statsEnd, err := Multiply(cfg, res.Final, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !cEnd.Equal(want) {
		t.Error("condensed-partition product wrong")
	}
	rng := rand.New(rand.NewSource(3))
	start := partition.NewRandom(n, ratio, rng)
	_, statsStart, err := Multiply(cfg, start, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if statsEnd.TotalVolume >= statsStart.TotalVolume {
		t.Errorf("condensed partition should move less data: %d vs %d",
			statsEnd.TotalVolume, statsStart.TotalVolume)
	}
	if statsEnd.VirtualComm >= statsStart.VirtualComm {
		t.Error("condensed partition should have lower virtual comm time")
	}
}

// TestMultiplyVirtualTimesMatchModel: the engine's virtual clocks are the
// model's, bit for bit, for every algorithm on every topology — star's
// relay and a link topology included — on a rectangular partition and on
// one where SCO and PCO have local tasks.
func TestMultiplyVirtualTimesMatchModel(t *testing.T) {
	const n = 60
	for _, pc := range []struct {
		shape partition.Shape
		ratio partition.Ratio
	}{
		{partition.BlockRectangle, partition.MustRatio(4, 2, 1)},
		{partition.SquareCorner, partition.MustRatio(10, 1, 1)},
	} {
		g, err := partition.Build(pc.shape, n, pc.ratio)
		if err != nil {
			t.Fatal(err)
		}
		a, b := randomMatrices(n, 4)
		for _, topo := range []string{"fully-connected", "star", "3-island:10"} {
			spec, err := model.ParseTopologySpec(topo)
			if err != nil {
				t.Fatal(err)
			}
			m := spec.Apply(testMachine(pc.ratio))
			for _, alg := range model.AllAlgorithms {
				_, stats, err := Multiply(Config{Machine: m, Algorithm: alg}, g, a, b)
				if err != nil {
					t.Fatal(err)
				}
				want := model.EvaluateGrid(alg, m, g)
				if stats.VirtualComm != want.Comm || stats.VirtualComp != want.Comp || stats.VirtualExe != want.Total {
					t.Errorf("%v %s %v: virtual comm/comp/exe %g/%g/%g, model %g/%g/%g", pc.shape, topo, alg,
						stats.VirtualComm, stats.VirtualComp, stats.VirtualExe, want.Comm, want.Comp, want.Total)
				}
			}
		}
	}
}

func TestMultiplyStarVolume(t *testing.T) {
	const n = 40
	ratio := partition.MustRatio(4, 2, 1)
	g, err := partition.Build(partition.BlockRectangle, n, ratio)
	if err != nil {
		t.Fatal(err)
	}
	a, b := randomMatrices(n, 5)
	full := testMachine(ratio)
	star := full
	star.Topology = model.Star
	_, fs, err := Multiply(Config{Machine: full, Algorithm: model.SCB}, g, a, b)
	if err != nil {
		t.Fatal(err)
	}
	_, ss, err := Multiply(Config{Machine: star, Algorithm: model.SCB}, g, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if ss.VirtualComm <= fs.VirtualComm {
		t.Error("star topology should cost more comm time for R↔S-adjacent shapes")
	}
}

func TestMultiplyPacedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	const n = 32
	ratio := partition.MustRatio(2, 1, 1)
	g, err := partition.Build(partition.BlockRectangle, n, ratio)
	if err != nil {
		t.Fatal(err)
	}
	a, b := randomMatrices(n, 6)
	want := matrix.New(n)
	matrix.MulKIJ(want, a, b)
	for _, alg := range model.AllAlgorithms {
		c, stats, err := Multiply(Config{
			Machine:         testMachine(ratio),
			Algorithm:       alg,
			Pace:            true,
			PaceFlopsPerSec: 2e5,
		}, g, a, b)
		if err != nil {
			t.Fatal(err)
		}
		if !c.Equal(want) {
			t.Errorf("%v: paced product wrong", alg)
		}
		// S computes ∈S·n = (n²/4)·n = 8192 ops at 2e5/s ≈ 41ms minimum.
		if stats.Wall.Seconds() < 0.02 {
			t.Errorf("%v: paced run finished implausibly fast: %v", alg, stats.Wall)
		}
	}
}

func TestMultiplyArgumentValidation(t *testing.T) {
	ratio := partition.MustRatio(2, 1, 1)
	g := partition.NewGrid(8)
	a, b := randomMatrices(8, 7)
	if _, _, err := Multiply(Config{Machine: testMachine(ratio), Algorithm: model.Algorithm(model.NumAlgorithms)}, g, a, b); err == nil {
		t.Error("an unknown algorithm should be rejected")
	}
	small, _ := randomMatrices(4, 7)
	for _, alg := range model.AllAlgorithms {
		if _, _, err := Multiply(Config{Machine: testMachine(ratio), Algorithm: alg}, g, small, b); err == nil {
			t.Errorf("%v: dimension mismatch should error", alg)
		}
		if _, _, err := Multiply(Config{Algorithm: alg}, g, a, b); err == nil {
			t.Errorf("%v: invalid machine ratio should error", alg)
		}
		for _, k := range []int{2, 4} {
			if _, _, err := Multiply(Config{Machine: testMachine(ratio), Algorithm: alg}, partition.NewGridK(8, k), a, b); err == nil {
				t.Errorf("%v: a grid of %d processors should be rejected", alg, k)
			}
		}
	}
}

func TestMultiplySingleProcessorNoComm(t *testing.T) {
	const n = 16
	ratio := partition.MustRatio(2, 1, 1)
	g := partition.NewGrid(n) // everything on P
	a, b := randomMatrices(n, 8)
	want := matrix.New(n)
	matrix.MulKIJ(want, a, b)
	c, stats, err := Multiply(Config{Machine: testMachine(ratio), Algorithm: model.SCB}, g, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Equal(want) {
		t.Error("single-processor product wrong")
	}
	if stats.TotalVolume != 0 || stats.VirtualComm != 0 {
		t.Errorf("no communication expected: vol=%d comm=%g", stats.TotalVolume, stats.VirtualComm)
	}
}

func BenchmarkMultiplySCB(b *testing.B) {
	const n = 96
	ratio := partition.MustRatio(5, 2, 1)
	g, err := partition.Build(partition.SquareCorner, n, ratio)
	if err != nil {
		b.Fatal(err)
	}
	x, y := randomMatrices(n, 1)
	cfg := Config{Machine: testMachine(ratio), Algorithm: model.SCB}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Multiply(cfg, g, x, y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMultiplyN512 is the traffic the repository benchmark's
// multiply workload runs, at its size: all five algorithms on the one
// engine, SCB and PCB with Verify on as the benchmark runs them, on
// Square-Corner 10:1:1 (where SCO and PCO overlap local tasks with the
// exchange) and Block-Rectangle 5:2:1 (where they have none).
func BenchmarkMultiplyN512(b *testing.B) {
	const n = 512
	x, y := randomMatrices(n, 1)
	for _, pc := range []struct {
		name  string
		shape partition.Shape
		ratio partition.Ratio
	}{
		{"SquareCorner10:1:1", partition.SquareCorner, partition.MustRatio(10, 1, 1)},
		{"BlockRectangle5:2:1", partition.BlockRectangle, partition.MustRatio(5, 2, 1)},
	} {
		g, err := partition.Build(pc.shape, n, pc.ratio)
		if err != nil {
			b.Fatal(err)
		}
		for _, alg := range model.AllAlgorithms {
			verify := alg == model.SCB || alg == model.PCB
			name := pc.name + "/" + alg.String()
			if verify {
				name += "+Verify"
			}
			b.Run(name, func(b *testing.B) {
				cfg := Config{Machine: testMachine(pc.ratio), Algorithm: alg, Verify: verify}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, _, err := Multiply(cfg, g, x, y); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// TestBandTasksTileShare: on the band tasks the engine cuts for the
// repository benchmark's multiply — Square-Corner 10:1:1 and
// Block-Rectangle 5:2:1 at N=512, all five algorithms — the kernel's
// four-row tile must compute at least 95% of C. Products are
// bit-identical either way, so only this count shows that the tile is
// still taken. Each task goes through the kernel as computeBlock sends
// it, its cut's runs on its owner's views once the exchange has landed,
// over one pivot chunk: A holds no ±0, so every chunk tiles alike.
func TestBandTasksTileShare(t *testing.T) {
	const n = 512
	a, b := randomMatrices(n, 1)
	probe := []matrix.Run{{Row: 0, J1: 8}, {Row: 1, J1: 8}, {Row: 2, J1: 8}, {Row: 3, J1: 8}}
	if matrix.MulRuns(matrix.New(n), a, b, probe, 0, 1) == 0 {
		t.Skip("no vector tile on this CPU")
	}
	for _, pc := range []struct {
		shape partition.Shape
		ratio partition.Ratio
	}{
		{partition.SquareCorner, partition.MustRatio(10, 1, 1)},
		{partition.BlockRectangle, partition.MustRatio(5, 2, 1)},
	} {
		g, err := partition.Build(pc.shape, n, pc.ratio)
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range model.AllAlgorithms {
			e, err := newEngine(context.Background(), Config{Machine: testMachine(pc.ratio), Algorithm: alg}, g, a, b)
			if err != nil {
				t.Fatal(err)
			}
			e.buildInitialTasks()
			<-e.exchange()
			scratch := make([]float64, e.cfg.BlockSize*n)
			cells, tiled := 0, 0
			for _, p := range partition.Procs {
				v := e.views[p]
				for _, task := range e.pending[p] {
					row0 := task.runs[0].Row / e.cfg.BlockSize * e.cfg.BlockSize
					tiled += matrix.MulRunsLines(scratch, row0, v.a, v.aRow, v.b, v.bCol, task.runs, 0, matrix.PivotChunk)
					cells += len(cellsOf(task, n))
				}
			}
			e.cancel()
			if cells != n*n {
				t.Fatalf("%v %v: tasks hold %d cells, want %d", pc.shape, alg, cells, n*n)
			}
			share := float64(tiled) / float64(cells*matrix.PivotChunk)
			t.Logf("%v %v %v: %.1f%% of C through the tile", pc.shape, pc.ratio, alg, 100*share)
			if share < 0.95 {
				t.Errorf("%v %v %v: %.1f%% of C through the tile, want at least 95%%", pc.shape, pc.ratio, alg, 100*share)
			}
		}
	}
}

func TestMultiplyPIOBitExact(t *testing.T) {
	// The panel-gated schedule must produce the serial kij product
	// bit-exactly for every canonical shape and move exactly VoC elements.
	const n = 40
	ratio := partition.MustRatio(5, 2, 1)
	a, b := randomMatrices(n, 9)
	want := matrix.New(n)
	matrix.MulKIJ(want, a, b)
	for _, s := range partition.AllShapes {
		g, err := partition.Build(s, n, ratio)
		if err != nil {
			continue
		}
		c, stats, err := Multiply(Config{Machine: testMachine(ratio), Algorithm: model.PIO}, g, a, b)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if !c.Equal(want) {
			t.Errorf("%v: PIO product differs from serial kij", s)
		}
		if stats.TotalVolume != g.VoC() {
			t.Errorf("%v: PIO moved %d elements, VoC is %d", s, stats.TotalVolume, g.VoC())
		}
	}
}

func TestMultiplyPIORandomPartition(t *testing.T) {
	const n = 32
	ratio := partition.MustRatio(3, 2, 1)
	rng := rand.New(rand.NewSource(11))
	g := partition.NewRandom(n, ratio, rng)
	a, b := randomMatrices(n, 12)
	want := matrix.New(n)
	matrix.MulKIJ(want, a, b)
	c, stats, err := Multiply(Config{Machine: testMachine(ratio), Algorithm: model.PIO}, g, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Equal(want) {
		t.Error("PIO product wrong on a random non-shape")
	}
	if stats.TotalVolume != g.VoC() {
		t.Errorf("volume %d != VoC %d", stats.TotalVolume, g.VoC())
	}
	if stats.VirtualExe <= 0 {
		t.Error("virtual timing missing")
	}
}

func TestMultiplyPIOValidation(t *testing.T) {
	g := partition.NewGrid(8)
	a, b := randomMatrices(4, 1)
	if _, _, err := Multiply(Config{Machine: testMachine(partition.MustRatio(2, 1, 1)), Algorithm: model.PIO}, g, a, b); err == nil {
		t.Error("dimension mismatch should error")
	}
	a8, b8 := randomMatrices(8, 1)
	if _, _, err := Multiply(Config{Algorithm: model.PIO}, g, a8, b8); err == nil {
		t.Error("invalid ratio should error")
	}
}

func TestMultiplyPIOAgreesWithBarrierVolumes(t *testing.T) {
	// PIO and SCB move the same pair volumes — PIO in one packet per
	// peer per pivot panel, SCB in one per peer.
	const n = 136 // three PIO panels, the last one ragged
	ratio := partition.MustRatio(4, 2, 1)
	g, err := partition.Build(partition.LRectangle, n, ratio)
	if err != nil {
		t.Fatal(err)
	}
	a, b := randomMatrices(n, 13)
	_, scb, err := Multiply(Config{Machine: testMachine(ratio), Algorithm: model.SCB}, g, a, b)
	if err != nil {
		t.Fatal(err)
	}
	_, pio, err := Multiply(Config{Machine: testMachine(ratio), Algorithm: model.PIO}, g, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if scb.TotalVolume != pio.TotalVolume {
		t.Errorf("SCB moved %d, PIO moved %d", scb.TotalVolume, pio.TotalVolume)
	}
	if scb.PairVolume != pio.PairVolume {
		t.Errorf("pair volumes differ:\nSCB %v\nPIO %v", scb.PairVolume, pio.PairVolume)
	}
}

func TestMultiplyOverlapBitExact(t *testing.T) {
	const n = 44
	ratio := partition.MustRatio(5, 2, 1)
	a, b := randomMatrices(n, 15)
	want := matrix.New(n)
	matrix.MulKIJ(want, a, b)
	for _, alg := range []model.Algorithm{model.SCO, model.PCO} {
		for _, s := range partition.AllShapes {
			g, err := partition.Build(s, n, ratio)
			if err != nil {
				continue
			}
			c, stats, err := MultiplyOverlap(Config{Machine: testMachine(ratio), Algorithm: alg}, g, a, b)
			if err != nil {
				t.Fatalf("%v %v: %v", alg, s, err)
			}
			if !c.Equal(want) {
				t.Errorf("%v %v: overlap product differs from serial kij", alg, s)
			}
			if stats.TotalVolume != g.VoC() {
				t.Errorf("%v %v: moved %d, VoC %d", alg, s, stats.TotalVolume, g.VoC())
			}
		}
	}
}

func TestMultiplyOverlapPartitionsWork(t *testing.T) {
	// The local and the gated tasks partition the worker's cells: with an
	// all-P grid everything is local, nothing waits and no traffic flows.
	const n = 20
	ratio := partition.MustRatio(2, 1, 1)
	g := partition.NewGrid(n)
	a, b := randomMatrices(n, 16)
	want := matrix.New(n)
	matrix.MulKIJ(want, a, b)
	c, stats, err := MultiplyOverlap(Config{Machine: testMachine(ratio), Algorithm: model.SCO}, g, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Equal(want) {
		t.Error("all-P overlap product wrong")
	}
	if stats.TotalVolume != 0 {
		t.Error("no traffic expected")
	}
}

func TestMultiplyOverlapValidation(t *testing.T) {
	// MultiplyOverlap is Multiply: it validates the same way.
	g := partition.NewGrid(8)
	a, b := randomMatrices(8, 17)
	small, _ := randomMatrices(4, 17)
	if _, _, err := MultiplyOverlap(Config{Machine: testMachine(partition.MustRatio(2, 1, 1)), Algorithm: model.SCO}, g, small, b); err == nil {
		t.Error("dimension mismatch must be rejected")
	}
	if _, _, err := MultiplyOverlap(Config{Algorithm: model.SCO}, g, a, b); err == nil {
		t.Error("invalid ratio must be rejected")
	}
}

func TestMultiplyOverlapVirtualMatchesModel(t *testing.T) {
	const n = 60
	ratio := partition.MustRatio(10, 1, 1)
	g, err := partition.Build(partition.SquareCorner, n, ratio)
	if err != nil {
		t.Fatal(err)
	}
	a, b := randomMatrices(n, 18)
	m := testMachine(ratio)
	_, stats, err := MultiplyOverlap(Config{Machine: m, Algorithm: model.PCO}, g, a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := model.EvaluateGrid(model.PCO, m, g)
	if stats.VirtualExe != want.Total {
		t.Errorf("virtual exe %g vs model %g", stats.VirtualExe, want.Total)
	}
}

func TestInitialCutLocalTasksFirst(t *testing.T) {
	// The cutter's half of the delivery gate: under SCO and PCO every
	// worker's queue starts with its local tasks, whose cells are exactly
	// its cells with a whole A row and B column of its own; SCB, PCB and
	// PIO cut no local tasks, and neither does loss recovery.
	const n, bs = 60, 8
	ratio := partition.MustRatio(10, 1, 1)
	g, err := partition.Build(partition.SquareCorner, n, ratio)
	if err != nil {
		t.Fatal(err)
	}
	a, b := randomMatrices(n, 51)
	for _, alg := range model.AllAlgorithms {
		e, err := newEngine(context.Background(), Config{Machine: testMachine(ratio), Algorithm: alg, BlockSize: bs}, g, a, b)
		if err != nil {
			t.Fatal(err)
		}
		e.buildInitialTasks()
		overlap := alg == model.SCO || alg == model.PCO
		for _, p := range partition.Procs {
			want := map[int32]bool{}
			for i := range n {
				for j := range n {
					if overlap && g.At(i, j) == p && g.RowCount(i, p) == n && g.ColCount(j, p) == n {
						want[int32(i*n+j)] = true
					}
				}
			}
			got := map[int32]bool{}
			gated := false
			for _, task := range e.pending[p] {
				if task.owner != p {
					t.Fatalf("%v: %v's queue holds a task of %v", alg, p, task.owner)
				}
				if !task.local {
					gated = true
					continue
				}
				if gated {
					t.Fatalf("%v: %v's local task %d is queued after a gated one", alg, p, task.id)
				}
				for _, idx := range cellsOf(task, n) {
					got[idx] = true
				}
			}
			if len(got) != len(want) {
				t.Fatalf("%v: %v has %d local cells, want %d", alg, p, len(got), len(want))
			}
			for idx := range want {
				if !got[idx] {
					t.Fatalf("%v: %v's cell %d is local but in a gated task", alg, p, idx)
				}
			}
		}
		if q := e.pending[partition.P]; overlap && (len(q) == 0 || !q[0].local) {
			t.Fatalf("%v: Square-Corner 10:1:1 gives P no local task", alg)
		}
		if err := e.evict(partition.R, time.Now(), false); err != nil {
			t.Fatal(err)
		}
		for _, p := range partition.Procs {
			for _, task := range e.pending[p] {
				if task.local {
					t.Fatalf("%v: recovery cut local task %d for %v", alg, task.id, p)
				}
			}
		}
		e.cancel()
	}
}

// TestViewsHoldTheirLines: on both benchmark partitions at N=512, under
// one panel and under PIO's panels, each worker's views are sized to
// exactly its lines — (rows it owns a cell in + columns it owns a cell
// in) × n elements — in line order, and once seeding and the exchange
// are done every element holds its A or B value. A and B hold no zero,
// so an element nothing wrote would show.
func TestViewsHoldTheirLines(t *testing.T) {
	const n = 512
	a, b := randomMatrices(n, 1)
	for idx := range a.Data() {
		if a.Data()[idx] == 0 || b.Data()[idx] == 0 {
			t.Fatal("the inputs hold a zero; pick another seed")
		}
	}
	for _, pc := range []struct {
		shape partition.Shape
		ratio partition.Ratio
	}{
		{partition.SquareCorner, partition.MustRatio(10, 1, 1)},
		{partition.BlockRectangle, partition.MustRatio(5, 2, 1)},
	} {
		g, err := partition.Build(pc.shape, n, pc.ratio)
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range []model.Algorithm{model.SCB, model.PIO} {
			e, err := newEngine(context.Background(), Config{Machine: testMachine(pc.ratio), Algorithm: alg}, g, a, b)
			if err != nil {
				t.Fatal(err)
			}
			<-e.exchange()
			for _, p := range partition.Procs {
				v := e.views[p]
				name := pc.shape.String() + " " + alg.String() + " " + p.String()
				rows, cols := 0, 0
				for l := 0; l < n; l++ {
					if g.RowCount(l, p) > 0 {
						if v.aRow[l] != int32(rows) {
							t.Fatalf("%s: row %d at slot %d, want %d", name, l, v.aRow[l], rows)
						}
						rows++
					} else if v.aRow[l] != -1 {
						t.Fatalf("%s: holds row %d, which it owns no cell in", name, l)
					}
					if g.ColCount(l, p) > 0 {
						if v.bCol[l] != int32(cols) {
							t.Fatalf("%s: column %d at slot %d, want %d", name, l, v.bCol[l], cols)
						}
						cols++
					} else if v.bCol[l] != -1 {
						t.Fatalf("%s: holds column %d, which it owns no cell in", name, l)
					}
				}
				if len(v.a) != rows*n || len(v.b) != cols*n || v.rows != rows || v.cols != cols {
					t.Fatalf("%s: views hold %d + %d elements, want (%d rows + %d columns) × %d", name, len(v.a), len(v.b), rows, cols, n)
				}
				for l := 0; l < n; l++ {
					for k := 0; k < n; k++ {
						if s := v.aRow[l]; s >= 0 && v.a[int(s)*n+k] != a.At(l, k) {
							t.Fatalf("%s: A(%d,%d) is %v, want %v", name, l, k, v.a[int(s)*n+k], a.At(l, k))
						}
						if s := v.bCol[l]; s >= 0 && v.b[k*cols+int(s)] != b.At(k, l) {
							t.Fatalf("%s: B(%d,%d) is %v, want %v", name, k, l, v.b[k*cols+int(s)], b.At(k, l))
						}
					}
				}
			}
			if e.stats.TotalVolume != g.VoC() {
				t.Errorf("%v %v: moved %d, VoC %d", pc.shape, alg, e.stats.TotalVolume, g.VoC())
			}
			e.cancel()
		}
	}
}

// cellsOf returns a task's cells as row-major indices, run after run.
func cellsOf(t *blockTask, n int) []int32 {
	var cells []int32
	for _, r := range t.runs {
		for j := r.J0; j < r.J1; j++ {
			cells = append(cells, int32(r.Row*n+j))
		}
	}
	return cells
}

// cellTask is a task of the cell-by-cell oracle: an owner's cells as
// row-major indices, ascending.
type cellTask struct {
	id    int
	owner partition.Proc
	local bool
	cells []int32
}

// bandTasks is the cell-by-cell oracle of the cutter: it groups
// ascending cells into (band, owner) tasks with ids from id on — one
// task per owner per band of bs rows, bands in order and R, S, P within
// a band.
func bandTasks(cells []int32, n, bs, id int, ownerOf func(int32) partition.Proc) []cellTask {
	var tasks []cellTask
	for lo := 0; lo < len(cells); {
		band := int(cells[lo]) / n / bs
		hi := lo
		for hi < len(cells) && int(cells[hi])/n/bs == band {
			hi++
		}
		for _, p := range partition.Procs {
			var group []int32
			for _, idx := range cells[lo:hi] {
				if ownerOf(idx) == p {
					group = append(group, idx)
				}
			}
			if len(group) > 0 {
				tasks = append(tasks, cellTask{id: id, owner: p, cells: group})
				id++
			}
		}
		lo = hi
	}
	return tasks
}

// cellRuns groups ascending cells into maximal row runs.
func cellRuns(cells []int32, n int) []matrix.Run {
	var runs []matrix.Run
	for _, idx := range cells {
		i, j := int(idx)/n, int(idx)%n
		if m := len(runs) - 1; m >= 0 && runs[m].Row == i && runs[m].J1 == j {
			runs[m].J1++
			continue
		}
		runs = append(runs, matrix.Run{Row: i, J0: j, J1: j + 1})
	}
	return runs
}

// cutByCells is the initial cut as a pass over every cell: the undone
// cells split into local and gated lists, each grouped by bandTasks,
// local tasks first. The engine's cut walks owner runs instead and must
// give the same tasks.
func cutByCells(e *engine) []cellTask {
	n := e.n
	overlap := e.cfg.Algorithm == model.SCO || e.cfg.Algorithm == model.PCO
	var local, cells []int32
	for idx, done := range e.doneMask {
		i, j := idx/n, idx%n
		p := e.g.At(i, j)
		switch {
		case done:
		case overlap && e.g.RowCount(i, p) == n && e.g.ColCount(j, p) == n:
			local = append(local, int32(idx))
		default:
			cells = append(cells, int32(idx))
		}
	}
	ownerOf := func(idx int32) partition.Proc { return e.g.AtIndex(int(idx)) }
	tasks := bandTasks(local, n, e.cfg.BlockSize, 0, ownerOf)
	for x := range tasks {
		tasks[x].local = true
	}
	return append(tasks, bandTasks(cells, n, e.cfg.BlockSize, len(tasks), ownerOf)...)
}

// matchQueues fails unless the engine's pending queues hold exactly the
// oracle's tasks, each owner's in the oracle's order: ids, owners, the
// local split and cells, and each task's runs the maximal row runs of
// its cells.
func matchQueues(t *testing.T, tag string, e *engine, want []cellTask) {
	t.Helper()
	for _, p := range partition.Procs {
		var q []cellTask
		for _, w := range want {
			if w.owner == p {
				q = append(q, w)
			}
		}
		if len(e.pending[p]) != len(q) {
			t.Fatalf("%s: %v queues %d tasks, want %d", tag, p, len(e.pending[p]), len(q))
		}
		for x, got := range e.pending[p] {
			w, cells := q[x], cellsOf(got, e.n)
			if got.id != w.id || got.owner != w.owner || got.local != w.local || !slices.Equal(cells, w.cells) {
				t.Fatalf("%s: %v's task %d is id %d owner %v local %v with %d cells, want id %d owner %v local %v with %d cells",
					tag, p, x, got.id, got.owner, got.local, len(cells), w.id, w.owner, w.local, len(w.cells))
			}
			if !slices.Equal(got.runs, cellRuns(w.cells, e.n)) {
				t.Fatalf("%s: task %d's runs are not its cells' maximal row runs", tag, got.id)
			}
		}
	}
}

// cutTestGrids are the partitions the cut tests run on at n=130: the
// benchmark's two shapes and a random partition.
func cutTestGrids(t *testing.T, n int, ratio partition.Ratio, rng *rand.Rand) map[string]*partition.Grid {
	grids := map[string]*partition.Grid{"Random": partition.NewRandom(n, ratio, rng)}
	for _, s := range []partition.Shape{partition.SquareCorner, partition.BlockRectangle} {
		g, err := partition.Build(s, n, ratio)
		if err != nil {
			t.Fatal(err)
		}
		grids[s.String()] = g
	}
	return grids
}

// markResumed marks whole blocks and scattered cells done, as a resumed
// journal and its re-verified bands leave them.
func markResumed(e *engine, rng *rand.Rand) {
	n := e.n
	for idx := range e.doneMask {
		if i := idx / n; i < 30 || (i >= 48 && i < 72 && idx%3 == 0) || rng.Intn(9) == 0 {
			e.doneMask[idx] = true
			e.doneCells++
		}
	}
}

// TestInitialCutMatchesBandTasks: the cut that walks owner runs gives
// exactly the tasks bandTasks cuts from the cells — ids, queue order,
// owners, cells and the local split — for all five algorithms, on the
// benchmark partitions, a ragged band height and a random partition,
// and with a checkpoint-resumed done mask; and each task's runs are its
// cells' maximal row runs.
func TestInitialCutMatchesBandTasks(t *testing.T) {
	const n = 130
	ratio := partition.MustRatio(10, 1, 1)
	a, b := randomMatrices(n, 52)
	rng := rand.New(rand.NewSource(53))
	for name, g := range cutTestGrids(t, n, ratio, rng) {
		for _, alg := range model.AllAlgorithms {
			for _, resumed := range []bool{false, true} {
				e, err := newEngine(context.Background(), Config{Machine: testMachine(ratio), Algorithm: alg, BlockSize: 24}, g, a, b)
				if err != nil {
					t.Fatal(err)
				}
				if resumed {
					markResumed(e, rng)
				}
				e.buildInitialTasks()
				want := cutByCells(e)
				tag := name + " " + alg.String()
				if resumed {
					tag += " resumed"
				}
				if e.stats.Blocks != len(want) || e.nextID != len(want) {
					t.Fatalf("%s: %d blocks, next id %d; want %d", tag, e.stats.Blocks, e.nextID, len(want))
				}
				matchQueues(t, tag, e, want)
				e.cancel()
			}
		}
	}
}

// TestReplanCutMatchesBandTasks: a loss re-plan cuts its tasks exactly
// as bandTasks cuts the withdrawn cells under the re-plan's ownership —
// the two survivors on the prior work's optimal two-processor shape, the
// faster on its P cells, then the sole survivor on every cell — with
// ids, queue order, owners and cells. It starts from a resumed cut with
// scattered done cells, on all five algorithms, the cut tests'
// partitions and 24-row bands, and evicts one worker (3→2) and then a
// second (2→1). Before each eviction every worker finishes its task in
// flight and takes its next one, so the victim's task is withdrawn and
// the survivors' are left in place. Each survivor's first new task
// carries every line its new tasks span and it did not hold, and the
// others none; RecoveryVolume grows by those lines and RemainderNeed by
// every line the new cells span, less the survivor's own cells of it.
func TestReplanCutMatchesBandTasks(t *testing.T) {
	const n, bs = 130, 24
	ratio := partition.MustRatio(10, 1, 1)
	speed := testMachine(ratio).Ratio.Speed
	a, b := randomMatrices(n, 54)
	rng := rand.New(rand.NewSource(55))
	type lines struct{ rows, cols map[int]bool }
	span := func(cells []int32) lines {
		l := lines{map[int]bool{}, map[int]bool{}}
		for _, idx := range cells {
			l.rows[int(idx)/n], l.cols[int(idx)%n] = true, true
		}
		return l
	}
	for name, g := range cutTestGrids(t, n, ratio, rng) {
		for _, alg := range model.AllAlgorithms {
			for _, victims := range [][2]partition.Proc{{partition.R, partition.P}, {partition.P, partition.S}} {
				e, err := newEngine(context.Background(), Config{Machine: testMachine(ratio), Algorithm: alg, BlockSize: bs}, g, a, b)
				if err != nil {
					t.Fatal(err)
				}
				markResumed(e, rng)
				e.buildInitialTasks()
				// held[v] are the lines v holds: its own, and those its
				// delivered patches brought. spanned[v] are the lines its
				// last re-plan's cells span.
				var held, spanned [partition.NumProcs]lines
				for _, v := range partition.Procs {
					held[v] = lines{map[int]bool{}, map[int]bool{}}
					for l := 0; l < n; l++ {
						held[v].rows[l], held[v].cols[l] = g.RowHas(l, v), g.ColHas(l, v)
					}
				}
				var volume, need int64
				tag := name + " " + alg.String() + " evict"
				for step, victim := range victims {
					tag += " " + victim.String()
					for _, p := range partition.Procs {
						if task := e.active[p]; task != nil {
							for _, idx := range cellsOf(task, n) {
								if !e.doneMask[idx] {
									e.doneMask[idx] = true
									e.doneCells++
								}
							}
							e.active[p] = nil
						}
						if q := e.pending[p]; e.alive[p] && len(q) > 0 {
							// Taking its first re-planned task delivers the
							// lines of all of them.
							e.active[p], e.pending[p] = q[0], q[1:]
							if step > 0 {
								maps.Copy(held[p].rows, spanned[p].rows)
								maps.Copy(held[p].cols, spanned[p].cols)
							}
						}
					}

					// The oracle: the undone cells of the victim's task and
					// of every queued task, grouped under the re-plan's
					// ownership.
					var withdrawn []int32
					for _, task := range append([]*blockTask{e.active[victim]}, slices.Concat(e.pending[partition.R], e.pending[partition.S], e.pending[partition.P])...) {
						if task == nil {
							continue
						}
						for _, idx := range cellsOf(task, n) {
							if !e.doneMask[idx] {
								withdrawn = append(withdrawn, idx)
							}
						}
					}
					slices.Sort(withdrawn)
					var survivors []partition.Proc
					for _, p := range partition.Procs {
						if e.alive[p] && p != victim {
							survivors = append(survivors, p)
						}
					}
					sort.SliceStable(survivors, func(i, j int) bool { return speed(survivors[i]) > speed(survivors[j]) })
					fast, kind := survivors[0], "replan-serial"
					ownerOf := func(int32) partition.Proc { return fast }
					if len(survivors) == 2 {
						kind = "replan-2proc"
						slow := survivors[1]
						r2, err := twoproc.NewRatio(speed(fast) / speed(slow))
						if err != nil {
							t.Fatal(err)
						}
						tg, err := twoproc.Build(twoproc.Optimal(alg, r2), n, r2)
						if err != nil {
							t.Fatal(err)
						}
						ownerOf = func(idx int32) partition.Proc {
							if tg.AtIndex(int(idx)) == partition.R {
								return slow
							}
							return fast
						}
					}
					want := bandTasks(withdrawn, n, bs, e.nextID, ownerOf)
					var add [partition.NumProcs]lines // the lines each survivor's patch must bring
					for _, v := range survivors {
						var cells []int32
						for _, w := range want {
							if w.owner == v {
								cells = append(cells, w.cells...)
							}
						}
						spanned[v], add[v] = span(cells), lines{map[int]bool{}, map[int]bool{}}
						for l := range spanned[v].rows {
							need += int64(n - g.RowCount(l, v))
							if !held[v].rows[l] {
								add[v].rows[l] = true
							}
						}
						for l := range spanned[v].cols {
							need += int64(n - g.ColCount(l, v))
							if !held[v].cols[l] {
								add[v].cols[l] = true
							}
						}
						volume += int64(len(add[v].rows)+len(add[v].cols)) * n
					}

					if err := e.evict(victim, time.Now(), false); err != nil {
						t.Fatal(err)
					}
					if len(want) == 0 {
						t.Fatalf("%s: nothing withdrawn; pick other done cells", tag)
					}
					if k := e.stats.RecoveryKinds; len(k) != step+1 || k[step] != kind {
						t.Fatalf("%s: recovery kinds %v, want %s last", tag, k, kind)
					}
					matchQueues(t, tag, e, want)
					for _, v := range survivors {
						for x, task := range e.pending[v] {
							rows, cols := map[int]bool{}, map[int]bool{}
							for _, l := range task.patchRows {
								rows[int(l)] = true
							}
							for _, l := range task.patchCols {
								cols[int(l)] = true
							}
							if x == 0 && (!maps.Equal(rows, add[v].rows) || !maps.Equal(cols, add[v].cols)) {
								t.Fatalf("%s: %v's first task brings %d rows and %d columns, want %d and %d",
									tag, v, len(rows), len(cols), len(add[v].rows), len(add[v].cols))
							}
							if x > 0 && len(rows)+len(cols) > 0 {
								t.Fatalf("%s: %v's task %d brings lines too", tag, v, x)
							}
						}
					}
					if e.stats.RecoveryVolume != volume || e.stats.RemainderNeed != need {
						t.Fatalf("%s: RecoveryVolume %d, RemainderNeed %d; want %d, %d",
							tag, e.stats.RecoveryVolume, e.stats.RemainderNeed, volume, need)
					}
				}
				e.cancel()
			}
		}
	}
}

func TestDeliveryGate(t *testing.T) {
	// await lets a pivot chunk through only once the panel holding its
	// last pivot has landed, heartbeats while it waits, and gives up when
	// the run is cancelled.
	const n = 136 // three PIO panels, the last one ragged
	ratio := partition.MustRatio(3, 2, 1)
	g, err := partition.Build(partition.BlockRectangle, n, ratio)
	if err != nil {
		t.Fatal(err)
	}
	a, b := randomMatrices(n, 53)
	e, err := newEngine(context.Background(), Config{Machine: testMachine(ratio), Algorithm: model.PIO, HeartbeatEvery: time.Millisecond}, g, a, b)
	if err != nil {
		t.Fatal(err)
	}
	w := partition.R
	for range 3 {
		e.ready[w] = append(e.ready[w], make(chan struct{}))
	}
	through := make(chan bool, 1)
	go func() { through <- e.await(w, 2*matrix.PivotChunk) }() // pivots [64, 128): panel 1
	close(e.ready[w][0])
	e.beat(w)
	before := e.lastBeat(w)
	time.Sleep(20 * time.Millisecond)
	select {
	case <-through:
		t.Fatal("chunk ran before its panel landed")
	default:
	}
	if !e.lastBeat(w).After(before) {
		t.Error("a worker waiting at the gate stopped heartbeating")
	}
	close(e.ready[w][1])
	if !<-through {
		t.Fatal("chunk refused after its panel landed")
	}
	if !e.await(w, matrix.PivotChunk) {
		t.Fatal("landed panel 0 refused")
	}
	go func() { through <- e.await(w, n) }()
	e.cancel()
	if <-through {
		t.Fatal("gate opened on cancellation")
	}
}

// BenchmarkBandTasks measures the cutter on an N=512 multiply of a
// Block-Rectangle 5:2:1 partition at the default band height.
// "initial" is buildInitialTasks under SCB, the cut every multiply runs:
// all 262,144 cells cut into (band, owner) tasks from the plan's owner
// runs. "recovery" is the cut a loss re-plan runs when S is lost with
// nothing done: the skip mask built from every queued task, and every
// cell cut again on the two survivors' re-plan grid, whose owner runs
// are derived once, outside the timed loop.
func BenchmarkBandTasks(b *testing.B) {
	const n = 512
	ratio := partition.MustRatio(5, 2, 1)
	g, err := partition.Build(partition.BlockRectangle, n, ratio)
	if err != nil {
		b.Fatal(err)
	}
	x, y := randomMatrices(n, 1)
	e, err := newEngine(context.Background(), Config{Machine: testMachine(ratio), Algorithm: model.SCB}, g, x, y)
	if err != nil {
		b.Fatal(err)
	}
	defer e.cancel()
	initial := func() {
		e.nextID, e.stats.Blocks = 0, 0
		clear(e.pending)
		e.buildInitialTasks()
	}
	b.Run("initial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			initial()
			if e.stats.Blocks == 0 {
				b.Fatal("no tasks")
			}
		}
	})
	b.Run("recovery", func(b *testing.B) {
		initial()
		var queued []*blockTask
		for _, p := range partition.Procs {
			queued = append(queued, e.pending[p]...)
		}
		owners, _, err := e.replanOwners([]partition.Proc{partition.P, partition.R})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			skip, left := e.skipAllBut(queued)
			if tasks := e.cut(owners, skip, false); len(tasks) == 0 || left != n*n {
				b.Fatalf("%d tasks over %d cells", len(tasks), left)
			}
		}
	})
}
