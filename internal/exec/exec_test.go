package exec

import (
	"math/rand"
	"testing"

	"repro/internal/matrix"
	"repro/internal/model"
	"repro/internal/partition"
	"repro/internal/push"
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

// multiplyAlg runs cfg.Algorithm through its executor.
func multiplyAlg(cfg Config, g *partition.Grid, a, b *matrix.Dense) (*matrix.Dense, *Stats, error) {
	switch cfg.Algorithm {
	case model.SCB, model.PCB:
		return Multiply(cfg, g, a, b)
	case model.SCO, model.PCO:
		return MultiplyOverlap(cfg, g, a, b)
	default:
		return MultiplyPIO(cfg, g, a, b)
	}
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
				c, stats, err := multiplyAlg(Config{Machine: testMachine(ratio), Algorithm: alg}, g, a, b)
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
	// A raw random non-shape must also compute correctly.
	const n = 40
	ratio := partition.MustRatio(3, 2, 1)
	rng := rand.New(rand.NewSource(7))
	g := partition.NewRandom(n, ratio, rng)
	a, b := randomMatrices(n, 2)
	want := matrix.New(n)
	matrix.MulKIJ(want, a, b)
	c, stats, err := Multiply(Config{Machine: testMachine(ratio), Algorithm: model.PCB}, g, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Equal(want) {
		t.Error("random-partition product differs from serial kij")
	}
	if stats.TotalVolume != g.VoC() {
		t.Errorf("measured volume %d != VoC %d", stats.TotalVolume, g.VoC())
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
// model's, bit for bit, on every topology — star's relay and a link
// matrix included.
func TestMultiplyVirtualTimesMatchModel(t *testing.T) {
	const n = 60
	ratio := partition.MustRatio(4, 2, 1)
	g, err := partition.Build(partition.BlockRectangle, n, ratio)
	if err != nil {
		t.Fatal(err)
	}
	a, b := randomMatrices(n, 4)
	for _, topo := range []string{"fully-connected", "star", "3-island:10"} {
		spec, err := model.ParseTopologySpec(topo)
		if err != nil {
			t.Fatal(err)
		}
		m := spec.Apply(testMachine(ratio))
		for _, alg := range []model.Algorithm{model.SCB, model.PCB} {
			_, stats, err := Multiply(Config{Machine: m, Algorithm: alg}, g, a, b)
			if err != nil {
				t.Fatal(err)
			}
			want := model.EvaluateGrid(alg, m, g)
			if stats.VirtualComm != want.Comm || stats.VirtualComp != want.Comp || stats.VirtualExe != want.Total {
				t.Errorf("%s %v: virtual comm/comp/exe %g/%g/%g, model %g/%g/%g", topo, alg,
					stats.VirtualComm, stats.VirtualComp, stats.VirtualExe, want.Comm, want.Comp, want.Total)
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
	// Slowest worker: n³/T flops at 2e6 flops/s ≈ 6.5k/2e6... keep small.
	c, stats, err := Multiply(Config{
		Machine:         testMachine(ratio),
		Algorithm:       model.SCB,
		Pace:            true,
		PaceFlopsPerSec: 2e5,
	}, g, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Equal(want) {
		t.Error("paced product wrong")
	}
	// S computes ∈S·n = (n²/4)·n = 8192 ops at 2e5/s ≈ 41ms minimum.
	if stats.Wall.Seconds() < 0.02 {
		t.Errorf("paced run finished implausibly fast: %v", stats.Wall)
	}
}

func TestMultiplyArgumentValidation(t *testing.T) {
	ratio := partition.MustRatio(2, 1, 1)
	g := partition.NewGrid(8)
	a, b := randomMatrices(8, 7)
	if _, _, err := Multiply(Config{Machine: testMachine(ratio), Algorithm: model.PIO}, g, a, b); err == nil {
		t.Error("PIO should be rejected")
	}
	small, _ := randomMatrices(4, 7)
	if _, _, err := Multiply(Config{Machine: testMachine(ratio), Algorithm: model.SCB}, g, small, b); err == nil {
		t.Error("dimension mismatch should error")
	}
	if _, _, err := Multiply(Config{Algorithm: model.SCB}, g, a, b); err == nil {
		t.Error("invalid machine ratio should error")
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

func TestMultiplyPIOBitExact(t *testing.T) {
	// The interleaved pipeline must produce the serial kij product
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
		c, stats, err := MultiplyPIO(Config{Machine: testMachine(ratio), Algorithm: model.PIO}, g, a, b)
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
	c, stats, err := MultiplyPIO(Config{Machine: testMachine(ratio)}, g, a, b)
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
	if _, _, err := MultiplyPIO(Config{Machine: testMachine(partition.MustRatio(2, 1, 1))}, g, a, b); err == nil {
		t.Error("dimension mismatch should error")
	}
	a8, b8 := randomMatrices(8, 1)
	if _, _, err := MultiplyPIO(Config{}, g, a8, b8); err == nil {
		t.Error("invalid ratio should error")
	}
}

func TestMultiplyPIOAgreesWithBarrierVolumes(t *testing.T) {
	// PIO and SCB move the same total volume — just on different
	// schedules.
	const n = 36
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
	_, pio, err := MultiplyPIO(Config{Machine: testMachine(ratio)}, g, a, b)
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
	// The overlap and remainder masks partition the worker's cells: with
	// an all-P grid everything is overlap and no traffic flows.
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
	g := partition.NewGrid(8)
	a, b := randomMatrices(8, 17)
	if _, _, err := MultiplyOverlap(Config{Machine: testMachine(partition.MustRatio(2, 1, 1)), Algorithm: model.SCB}, g, a, b); err == nil {
		t.Error("SCB must be rejected by the overlap executor")
	}
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
