package exec

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/matrix"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/partition"
	"repro/internal/sim"
	"repro/internal/trace"
)

// fastFailover returns fault-detection timings for tests: 1ms
// heartbeats, and a lease sized to a loaded host's scheduling stalls, not
// to the test's speed. A worker the host deschedules for longer than the
// lease is declared lost, and on a shared 2-vCPU host a survivor was
// once lost beside the victim under a 20ms lease; 100ms leaves five
// times that. Each kill still costs only one lease of waiting.
func fastFailover(cfg Config) Config {
	cfg.HeartbeatEvery = time.Millisecond
	cfg.LeaseTimeout = 100 * time.Millisecond
	return cfg
}

func TestMultiplyKillRecoveryBitExact(t *testing.T) {
	// The acceptance chaos proof: a worker killed at {10,50,90}% of its
	// assigned work under each of the five algorithms strands its
	// remaining blocks, the lease expires, and the remainder is
	// re-planned on the two survivors with the prior work's optimal
	// two-processor shapes — and the final matrix is still bit-identical
	// to the serial kij kernel. The ragged case cuts the remainder into
	// 24-row bands that n=130 cuts short at the bottom edge, and PIO's
	// last pivot panel short too, so uneven recovery blocks and panels go
	// through the kernel and the delivery gate.
	ratio := partition.MustRatio(3, 2, 1)
	for _, tc := range []struct {
		n, blockSize int
		algs         []model.Algorithm
		fracs        []float64
		tag          string
	}{
		{n: 48, blockSize: 8, algs: model.AllAlgorithms[:], fracs: []float64{0.1, 0.5, 0.9}},
		{n: 130, blockSize: 24, algs: model.AllAlgorithms[:], fracs: []float64{0.5}, tag: "/ragged-n130"},
	} {
		n := tc.n
		a, b := randomMatrices(n, 11)
		want := matrix.New(n)
		matrix.MulKIJ(want, a, b)
		g, err := partition.Build(partition.SquareCorner, n, ratio)
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range tc.algs {
			for _, frac := range tc.fracs {
				for _, victim := range []partition.Proc{partition.R, partition.P} {
					t.Run(alg.String()+"/"+victim.String()+tc.tag, func(t *testing.T) {
						fp := sim.NewFaultPlan()
						if err := fp.AddWorkerKill(victim, frac); err != nil {
							t.Fatal(err)
						}
						reg := metrics.NewRegistry()
						cfg := fastFailover(Config{
							Machine:   testMachine(ratio),
							Algorithm: alg,
							BlockSize: tc.blockSize,
							Faults:    fp,
							Metrics:   reg,
							Trace:     trace.New(),
						})
						c, stats, err := Multiply(cfg, g, a, b)
						if err != nil {
							t.Fatal(err)
						}
						if !c.Equal(want) {
							d, _ := c.MaxDiff(want)
							t.Fatalf("kill %v@%g: product differs from serial kij (max diff %g)", victim, frac, d)
						}
						if len(stats.Lost) != 1 || stats.Lost[0] != victim {
							t.Fatalf("Lost = %v, want [%v]", stats.Lost, victim)
						}
						if stats.Survivors() != 2 {
							t.Fatalf("Survivors() = %d, want 2", stats.Survivors())
						}
						if stats.Recoveries != 1 || len(stats.RecoveryKinds) != 1 || stats.RecoveryKinds[0] != "replan-2proc" {
							t.Fatalf("Recoveries=%d kinds=%v, want one replan-2proc", stats.Recoveries, stats.RecoveryKinds)
						}
						// Planned-exchange accounting is untouched by recovery.
						if stats.TotalVolume != g.VoC() {
							t.Errorf("TotalVolume %d != VoC %d after recovery", stats.TotalVolume, g.VoC())
						}
						// The acceptance bound: redistribution for the re-planned
						// remainder stays under 2× what a from-scratch fault-free
						// redistribution of that remainder would move.
						if stats.RemainderNeed > 0 && stats.RecoveryVolume >= 2*stats.RemainderNeed {
							t.Errorf("RecoveryVolume %d ≥ 2×RemainderNeed %d", stats.RecoveryVolume, stats.RemainderNeed)
						}
						if stats.RecoveryLatency <= 0 {
							t.Error("RecoveryLatency not recorded")
						}
					})
				}
			}
		}
	}
}

func TestMultiplyKillInsideOnlyBlock(t *testing.T) {
	// A fate fires inside a block, not between blocks: with BlockSize ≥ n
	// each worker holds exactly one gated block, and R killed at half its work
	// must die holding it, unreported — lost, re-planned on the two
	// survivors, and the product still bit-exact. n = 96 gives each block
	// two pivot chunks, so the kill lands after the first.
	const n = 96
	ratio := partition.MustRatio(3, 2, 1)
	a, b := randomMatrices(n, 61)
	want := matrix.New(n)
	matrix.MulKIJ(want, a, b)
	g, err := partition.Build(partition.SquareCorner, n, ratio)
	if err != nil {
		t.Fatal(err)
	}
	// Under SCO and PCO, P also holds a local block where the corner
	// squares leave it whole rows and columns of its own.
	locals := 0
	for idx := range n * n {
		i, j := idx/n, idx%n
		if p := g.At(i, j); g.RowCount(i, p) == n && g.ColCount(j, p) == n {
			locals = 1
			break
		}
	}
	for _, alg := range model.AllAlgorithms {
		t.Run(alg.String(), func(t *testing.T) {
			fp := sim.NewFaultPlan()
			if err := fp.AddWorkerKill(partition.R, 0.5); err != nil {
				t.Fatal(err)
			}
			cfg := fastFailover(Config{Machine: testMachine(ratio), Algorithm: alg, BlockSize: 2 * n, Faults: fp})
			c, stats, err := Multiply(cfg, g, a, b)
			if err != nil {
				t.Fatal(err)
			}
			blocks := partition.NumProcs
			if alg == model.SCO || alg == model.PCO {
				blocks += locals
			}
			if stats.Blocks != blocks {
				t.Fatalf("Blocks = %d, want %d: one per worker, plus P's local block under SCO/PCO", stats.Blocks, blocks)
			}
			if !c.Equal(want) {
				t.Fatal("product differs from serial kij")
			}
			if len(stats.Lost) != 1 || stats.Lost[0] != partition.R {
				t.Fatalf("Lost = %v, want [R]", stats.Lost)
			}
			if stats.Recoveries != 1 || len(stats.RecoveryKinds) != 1 || stats.RecoveryKinds[0] != "replan-2proc" {
				t.Fatalf("Recoveries=%d kinds=%v, want one replan-2proc", stats.Recoveries, stats.RecoveryKinds)
			}
			if stats.TotalVolume != g.VoC() {
				t.Errorf("TotalVolume %d != VoC %d", stats.TotalVolume, g.VoC())
			}
		})
	}
}

func TestMultiplyDoubleKillSerialFallback(t *testing.T) {
	// Losing two workers degrades 3→2→1: the second re-plan is serial and
	// the sole survivor still finishes bit-exactly.
	const n = 32
	ratio := partition.MustRatio(2, 1, 1)
	a, b := randomMatrices(n, 13)
	want := matrix.New(n)
	matrix.MulKIJ(want, a, b)
	g, err := partition.Build(partition.SquareCorner, n, ratio)
	if err != nil {
		t.Fatal(err)
	}
	fp := sim.NewFaultPlan()
	if err := fp.AddWorkerKill(partition.R, 0.2); err != nil {
		t.Fatal(err)
	}
	if err := fp.AddWorkerKill(partition.S, 0.4); err != nil {
		t.Fatal(err)
	}
	for _, alg := range model.AllAlgorithms {
		t.Run(alg.String(), func(t *testing.T) {
			cfg := fastFailover(Config{Machine: testMachine(ratio), Algorithm: alg, BlockSize: 8, Faults: fp})
			c, stats, err := Multiply(cfg, g, a, b)
			if err != nil {
				t.Fatal(err)
			}
			if !c.Equal(want) {
				t.Fatal("double-kill product differs from serial kij")
			}
			if stats.Survivors() != 1 {
				t.Fatalf("Survivors() = %d, want 1", stats.Survivors())
			}
			kinds := strings.Join(stats.RecoveryKinds, ",")
			if !strings.Contains(kinds, "replan-serial") {
				t.Fatalf("RecoveryKinds = %v, want a replan-serial", stats.RecoveryKinds)
			}
			if stats.TotalVolume != g.VoC() {
				t.Errorf("TotalVolume %d != VoC %d", stats.TotalVolume, g.VoC())
			}
		})
	}
}

func TestMultiplyAllWorkersLost(t *testing.T) {
	// Killing all three workers must fail loudly, not hang.
	const n = 24
	ratio := partition.MustRatio(2, 1, 1)
	a, b := randomMatrices(n, 17)
	g, err := partition.Build(partition.SquareCorner, n, ratio)
	if err != nil {
		t.Fatal(err)
	}
	fp := sim.NewFaultPlan()
	for _, p := range partition.Procs {
		if err := fp.AddWorkerKill(p, 0); err != nil {
			t.Fatal(err)
		}
	}
	for _, alg := range model.AllAlgorithms {
		cfg := fastFailover(Config{Machine: testMachine(ratio), Algorithm: alg, BlockSize: 8, Faults: fp})
		_, _, err = Multiply(cfg, g, a, b)
		if err == nil || !strings.Contains(err.Error(), "all workers lost") {
			t.Fatalf("%v: err = %v, want all-workers-lost failure", alg, err)
		}
	}
}

func TestMultiplyHangRecovery(t *testing.T) {
	// A hung worker (alive goroutine, no heartbeats, lease held) is
	// treated like a dead one, and its blocked goroutine is released when
	// the run finishes — the -race build would catch a leak-induced
	// write-after-return.
	const n = 32
	ratio := partition.MustRatio(2, 1, 1)
	a, b := randomMatrices(n, 19)
	want := matrix.New(n)
	matrix.MulKIJ(want, a, b)
	g, err := partition.Build(partition.BlockRectangle, n, ratio)
	if err != nil {
		t.Fatal(err)
	}
	fp := sim.NewFaultPlan()
	if err := fp.AddWorkerHang(partition.P, 0.5); err != nil {
		t.Fatal(err)
	}
	for _, alg := range model.AllAlgorithms {
		t.Run(alg.String(), func(t *testing.T) {
			cfg := fastFailover(Config{Machine: testMachine(ratio), Algorithm: alg, BlockSize: 8, Faults: fp})
			c, stats, err := Multiply(cfg, g, a, b)
			if err != nil {
				t.Fatal(err)
			}
			if !c.Equal(want) {
				t.Fatal("hang-recovery product differs from serial kij")
			}
			if len(stats.Lost) != 1 || stats.Lost[0] != partition.P {
				t.Fatalf("Lost = %v, want [P]", stats.Lost)
			}
		})
	}
}

// TestRecoveryWidensAfterOwnPanelsLand: a survivor handed re-planned
// work outside its lines widens its views only once its own exchange has
// landed. R is lost before anything ran, so S's queue starts with a
// patched task, and S computes its queue beside its own PIO exchange,
// whose four panels land one at a time only after S is waiting. A
// worker that widened before its last panel would copy views the
// exchange is still writing — a race under -race — and compute from
// views that miss what lands later, so its cells would differ from the
// serial kij kernel's.
func TestRecoveryWidensAfterOwnPanelsLand(t *testing.T) {
	const n = 256 // four PIO panels
	const v = partition.S
	ratio := partition.MustRatio(3, 2, 1)
	a, b := randomMatrices(n, 73)
	want := matrix.New(n)
	matrix.MulKIJ(want, a, b)
	g, err := partition.Build(partition.SquareCorner, n, ratio)
	if err != nil {
		t.Fatal(err)
	}
	e, err := newEngine(context.Background(), Config{Machine: testMachine(ratio), Algorithm: model.PIO, HeartbeatEvery: time.Millisecond}, g, a, b)
	if err != nil {
		t.Fatal(err)
	}
	defer e.cancel()
	e.buildInitialTasks()
	if err := e.evict(partition.R, time.Now(), false); err != nil {
		t.Fatal(err)
	}
	queue := e.pending[v]
	if len(queue) == 0 || len(queue[0].patchRows)+len(queue[0].patchCols) == 0 {
		t.Fatal("the re-plan hands S no patched task first")
	}

	// S's side of the exchange, as exchange runs it, one panel per
	// release.
	e.views[v] = e.plan.seed(v, a, b)
	panels := n / matrix.PivotChunk
	release := make([]chan struct{}, panels)
	e.ready[v] = make([]chan struct{}, panels)
	for p := range panels {
		release[p], e.ready[v][p] = make(chan struct{}), make(chan struct{})
	}
	go func(own view) {
		for p := range panels {
			<-release[p]
			for _, w := range partition.Procs {
				if w != v {
					pk := e.plan.packet(w, v, p*matrix.PivotChunk, (p+1)*matrix.PivotChunk, a, b)
					pk.apply(own)
				}
			}
			close(e.ready[v][p])
		}
	}(e.views[v])

	results := make(chan []float64, len(queue))
	go func() {
		defer close(results)
		scratch := make([]float64, e.cfg.BlockSize*n)
		for _, task := range queue {
			vals, ok := e.computeBlock(v, task, nil, scratch, math.Inf(1))
			if !ok {
				t.Errorf("task %d did not finish", task.id)
				return
			}
			results <- vals
		}
	}()
	// S heartbeats only while it waits at the gate: once it has, land
	// the panels.
	for start := e.lastBeat(v); !e.lastBeat(v).After(start); {
		time.Sleep(time.Millisecond)
	}
	for p := range panels {
		close(release[p])
		<-e.ready[v][p]
	}
	x := 0
	for vals := range results {
		task := queue[x]
		for ci, idx := range cellsOf(task, n) {
			if w := want.Data()[idx]; vals[ci] != w {
				t.Fatalf("task %d: cell (%d,%d) is %v, want %v", task.id, int(idx)/n, int(idx)%n, vals[ci], w)
			}
		}
		x++
	}
	if x != len(queue) {
		t.Fatalf("S computed %d of its %d tasks", x, len(queue))
	}
}

// TestMultiplyStragglerNotLost: a straggler — S slowed 20×, paced so
// that its one task takes 1.5 leases — keeps heartbeating through its
// pacing and is never declared lost; the run waits for it, the product
// is bit-exact and the exchange moves exactly VoC.
func TestMultiplyStragglerNotLost(t *testing.T) {
	const n, slowdown = 32, 20
	ratio := partition.MustRatio(2, 1, 1)
	a, b := randomMatrices(n, 23)
	want := matrix.New(n)
	matrix.MulKIJ(want, a, b)
	g, err := partition.Build(partition.SquareCorner, n, ratio)
	if err != nil {
		t.Fatal(err)
	}
	fp := sim.NewFaultPlan()
	if err := fp.AddWorkerSlowdown(partition.S, slowdown); err != nil {
		t.Fatal(err)
	}
	lease := fastFailover(Config{}).LeaseTimeout
	flopsS := float64(g.Count(partition.S) * n)
	pace := flopsS / (1.5 * lease.Seconds()) * slowdown / ratio.Speed(partition.S)
	for _, alg := range model.AllAlgorithms {
		t.Run(alg.String(), func(t *testing.T) {
			cfg := fastFailover(Config{
				Machine:         testMachine(ratio),
				Algorithm:       alg,
				PaceFlopsPerSec: pace, // only the slowed worker is paced
				Faults:          fp,
			})
			c, stats, err := Multiply(cfg, g, a, b)
			if err != nil {
				t.Fatal(err)
			}
			if !c.Equal(want) {
				t.Fatal("straggler product differs from serial kij")
			}
			if len(stats.Lost) != 0 {
				t.Fatalf("straggler was declared lost: %v", stats.Lost)
			}
			if stats.Wall <= lease {
				t.Fatalf("run took %v, within one lease: the straggler never outlasted it", stats.Wall)
			}
			if stats.TotalVolume != g.VoC() {
				t.Errorf("TotalVolume %d != VoC %d", stats.TotalVolume, g.VoC())
			}
		})
	}
}

// BenchmarkRecoveryN512 is the recovery drill: the repository
// benchmark's two partitions at N=512 under SCB, P killed at half its
// work, with 1ms heartbeats and a 20ms lease. Each iteration is one
// multiply, checked bit for bit against serial kij; wall-ms is the
// median multiply's wall time, and recovery-elems and need-elems are the
// last multiply's RecoveryVolume and RemainderNeed.
func BenchmarkRecoveryN512(b *testing.B) {
	const n = 512
	x, y := randomMatrices(n, 1)
	want := matrix.New(n)
	matrix.MulKIJ(want, x, y)
	fp := sim.NewFaultPlan()
	if err := fp.AddWorkerKill(partition.P, 0.5); err != nil {
		b.Fatal(err)
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
			b.Fatal(err)
		}
		b.Run(pc.shape.String(), func(b *testing.B) {
			cfg := Config{Machine: testMachine(pc.ratio), Algorithm: model.SCB, Faults: fp,
				HeartbeatEvery: time.Millisecond, LeaseTimeout: 20 * time.Millisecond}
			var walls []time.Duration
			var stats *Stats
			for i := 0; i < b.N; i++ {
				c, st, err := Multiply(cfg, g, x, y)
				if err != nil {
					b.Fatal(err)
				}
				if !c.Equal(want) {
					b.Fatal("product differs from serial kij")
				}
				walls, stats = append(walls, st.Wall), st
			}
			slices.Sort(walls)
			b.ReportMetric(float64(walls[len(walls)/2].Microseconds())/1e3, "wall-ms")
			b.ReportMetric(float64(stats.RecoveryVolume), "recovery-elems")
			b.ReportMetric(float64(stats.RemainderNeed), "need-elems")
		})
	}
}

func TestMultiplyContextCancel(t *testing.T) {
	// Cancelling the context unwinds a paced run promptly — including
	// workers asleep in the throttle or waiting on the exchange — instead
	// of leaking them, and a context cancelled before the call stops the
	// run before it finishes.
	const n = 48
	ratio := partition.MustRatio(2, 1, 1)
	a, b := randomMatrices(n, 29)
	g, err := partition.Build(partition.SquareCorner, n, ratio)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range model.AllAlgorithms {
		t.Run(alg.String(), func(t *testing.T) {
			// Paced so slowly the run would take ~minutes if not cancelled.
			cfg := Config{Machine: testMachine(ratio), Algorithm: alg, Pace: true, PaceFlopsPerSec: 1e3}
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			defer cancel()
			start := time.Now()
			_, _, err := MultiplyContext(ctx, cfg, g, a, b)
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v, want context.DeadlineExceeded", err)
			}
			if waited := time.Since(start); waited > 2*time.Second {
				t.Fatalf("cancellation took %v, want prompt unwind", waited)
			}

			ctx, cancel = context.WithCancel(context.Background())
			cancel()
			if _, _, err := MultiplyContext(ctx, cfg, g, a, b); !errors.Is(err, context.Canceled) {
				t.Fatalf("pre-cancelled: err = %v, want context.Canceled", err)
			}
		})
	}
}

func TestMultiplyOverlapContextCancelled(t *testing.T) {
	const n = 16
	ratio := partition.MustRatio(2, 1, 1)
	a, b := randomMatrices(n, 31)
	g, err := partition.Build(partition.SquareCorner, n, ratio)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err = MultiplyContext(ctx, Config{Machine: testMachine(ratio), Algorithm: model.SCO}, g, a, b)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestPairVolumeMatchesVoCProperty(t *testing.T) {
	// Property: on fault-free runs, the measured pair-volume totals equal
	// the model's predicted volume of communication (Eq 1) for every
	// partition — canonical or random — under every algorithm.
	const n = 32
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 8; trial++ {
		rr := float64(1 + rng.Intn(2))
		ratio := partition.MustRatio(rr+float64(rng.Intn(4)), rr, 1)
		var g *partition.Grid
		if trial%2 == 0 {
			var err error
			g, err = partition.Build(partition.AllShapes[trial%len(partition.AllShapes)], n, ratio)
			if err != nil {
				continue
			}
		} else {
			g = partition.NewRandom(n, ratio, rng)
		}
		a, b := randomMatrices(n, int64(100+trial))
		for _, alg := range model.AllAlgorithms {
			_, stats, err := Multiply(Config{Machine: testMachine(ratio), Algorithm: alg}, g, a, b)
			if err != nil {
				t.Fatal(err)
			}
			var pairSum int64
			for _, w := range partition.Procs {
				for _, v := range partition.Procs {
					pairSum += stats.PairVolume[w][v]
				}
			}
			if pairSum != stats.TotalVolume {
				t.Fatalf("trial %d %v: PairVolume sum %d != TotalVolume %d", trial, alg, pairSum, stats.TotalVolume)
			}
			if pairSum != g.VoC() {
				t.Fatalf("trial %d %v: PairVolume sum %d != predicted VoC %d", trial, alg, pairSum, g.VoC())
			}
			if stats.RecoveryVolume != 0 || stats.BlocksDiscarded != 0 {
				t.Fatalf("trial %d %v: fault-free run reports recovery volume %d / %d discards",
					trial, alg, stats.RecoveryVolume, stats.BlocksDiscarded)
			}
		}
	}
}

func TestMultiplyCheckpointResume(t *testing.T) {
	// A full checkpointed run, truncated to its first k block records (a
	// process killed mid-journal), resumes bit-identically: recorded
	// blocks are replayed, only the rest is recomputed.
	const n = 32
	ratio := partition.MustRatio(3, 2, 1)
	a, b := randomMatrices(n, 41)
	want := matrix.New(n)
	matrix.MulKIJ(want, a, b)
	g, err := partition.Build(partition.RectangleCorner, n, ratio)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range model.AllAlgorithms {
		t.Run(alg.String(), func(t *testing.T) {
			dir := t.TempDir()
			full := filepath.Join(dir, "full.ckpt")
			cfg := Config{Machine: testMachine(ratio), Algorithm: alg, BlockSize: 8, Checkpoint: full}
			_, stats, err := Multiply(cfg, g, a, b)
			if err != nil {
				t.Fatal(err)
			}
			if stats.BlocksDone == 0 {
				t.Fatal("no blocks committed")
			}

			data, err := os.ReadFile(full)
			if err != nil {
				t.Fatal(err)
			}
			lines := strings.SplitAfter(string(data), "\n")
			// lines = header + one line per block record (+ empty tail).
			for _, keep := range []int{0, stats.BlocksDone / 2, stats.BlocksDone} {
				part := filepath.Join(dir, "part.ckpt")
				if err := os.WriteFile(part, []byte(strings.Join(lines[:1+keep], "")), 0o644); err != nil {
					t.Fatal(err)
				}
				rcfg := cfg
				rcfg.Checkpoint = part
				rcfg.Resume = true
				c, rs, err := Multiply(rcfg, g, a, b)
				if err != nil {
					t.Fatalf("resume with %d records: %v", keep, err)
				}
				if !c.Equal(want) {
					t.Fatalf("resume with %d records: product differs from serial kij", keep)
				}
				if rs.BlocksResumed != keep {
					t.Fatalf("BlocksResumed = %d, want %d", rs.BlocksResumed, keep)
				}
				if keep == stats.BlocksDone && rs.BlocksDone != 0 {
					t.Fatalf("fully-checkpointed resume recomputed %d blocks", rs.BlocksDone)
				}
				if rs.TotalVolume != g.VoC() {
					t.Fatalf("resume with %d records moved %d elements, VoC is %d", keep, rs.TotalVolume, g.VoC())
				}
				if err := os.Remove(part); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

func TestMultiplyCheckpointValidation(t *testing.T) {
	const n = 16
	ratio := partition.MustRatio(2, 1, 1)
	a, b := randomMatrices(n, 43)
	g, err := partition.Build(partition.SquareCorner, n, ratio)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	cfg := Config{Machine: testMachine(ratio), Algorithm: model.SCB, Checkpoint: path}
	if _, _, err := Multiply(cfg, g, a, b); err != nil {
		t.Fatal(err)
	}

	// Creating over an existing checkpoint must refuse, not clobber.
	if _, _, err := Multiply(cfg, g, a, b); err == nil {
		t.Fatal("re-run clobbered an existing checkpoint")
	}

	// Resuming with different inputs must refuse: the header hash pins
	// the run's matrices.
	a2, b2 := randomMatrices(n, 44)
	rcfg := cfg
	rcfg.Resume = true
	var ce *CheckpointError
	if _, _, err := Multiply(rcfg, g, a2, b2); !errors.As(err, &ce) {
		t.Fatalf("resume with wrong matrices: err = %v, want CheckpointError", err)
	}

	// Resume without a path is a config error.
	if _, _, err := Multiply(Config{Machine: testMachine(ratio), Algorithm: model.SCB, Resume: true}, g, a, b); !errors.As(err, &ce) {
		t.Fatalf("resume without path: err = %v, want CheckpointError", err)
	}
}

func TestMultiplyCheckpointAfterKillRecovery(t *testing.T) {
	// Checkpointing composes with loss recovery: a checkpoint written
	// during a faulted run replays into the same bits.
	const n = 32
	ratio := partition.MustRatio(2, 1, 1)
	a, b := randomMatrices(n, 47)
	want := matrix.New(n)
	matrix.MulKIJ(want, a, b)
	g, err := partition.Build(partition.SquareCorner, n, ratio)
	if err != nil {
		t.Fatal(err)
	}
	fp := sim.NewFaultPlan()
	if err := fp.AddWorkerKill(partition.R, 0.5); err != nil {
		t.Fatal(err)
	}
	for _, alg := range model.AllAlgorithms {
		t.Run(alg.String(), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "fault.ckpt")
			cfg := fastFailover(Config{Machine: testMachine(ratio), Algorithm: alg, BlockSize: 8, Faults: fp, Checkpoint: path})
			c, _, err := Multiply(cfg, g, a, b)
			if err != nil {
				t.Fatal(err)
			}
			if !c.Equal(want) {
				t.Fatal("faulted checkpointed product differs from serial kij")
			}
			rcfg := Config{Machine: testMachine(ratio), Algorithm: alg, BlockSize: 8, Checkpoint: path, Resume: true}
			c2, rs, err := Multiply(rcfg, g, a, b)
			if err != nil {
				t.Fatal(err)
			}
			if !c2.Equal(want) {
				t.Fatal("replayed checkpoint differs from serial kij")
			}
			if rs.BlocksDone != 0 {
				t.Fatalf("complete checkpoint still recomputed %d blocks", rs.BlocksDone)
			}
		})
	}
}
