package exec

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/journal"
	"repro/internal/matrix"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/partition"
	"repro/internal/sim"
)

// detected sums every way a corruption is caught so tests can assert
// nothing slipped through: corrected in place, discarded + recomputed,
// or rejected after its sender was quarantined.
func detected(s *Stats) int {
	return s.CorruptionsCorrected + s.BlocksRecomputed + s.ByzantineRejected
}

func TestVerifyCleanRun(t *testing.T) {
	// A fault-free run under Verify checks every band exactly once,
	// corrects nothing, and stays bit-exact — the integrity layer must
	// never fire on honest float rounding. Under every algorithm, and on
	// a Square-Corner where SCO's and PCO's local tasks split P's bands.
	const n, bs = 48, 8
	a, b := randomMatrices(n, 7)
	want := matrix.New(n)
	matrix.MulKIJ(want, a, b)
	for _, pc := range []struct {
		shape partition.Shape
		ratio partition.Ratio
	}{
		{partition.BlockRectangle, partition.MustRatio(3, 2, 1)},
		{partition.SquareCorner, partition.MustRatio(10, 1, 1)},
	} {
		g, err := partition.Build(pc.shape, n, pc.ratio)
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range model.AllAlgorithms {
			t.Run(pc.shape.String()+"/"+alg.String(), func(t *testing.T) {
				reg := metrics.NewRegistry()
				cfg := Config{Machine: testMachine(pc.ratio), Algorithm: alg, BlockSize: bs, Verify: true, Metrics: reg}
				c, stats, err := Multiply(cfg, g, a, b)
				if err != nil {
					t.Fatal(err)
				}
				if !c.Equal(want) {
					t.Fatal("verified clean run differs from serial kij")
				}
				if bands := n / bs; stats.IntegrityChecks != bands {
					t.Errorf("IntegrityChecks = %d, want %d (one per band)", stats.IntegrityChecks, bands)
				}
				if stats.CorruptionsCorrected != 0 || stats.BlocksRecomputed != 0 || len(stats.Byzantine) != 0 {
					t.Errorf("clean run reported corruption: corrected=%d recomputed=%d byzantine=%v",
						stats.CorruptionsCorrected, stats.BlocksRecomputed, stats.Byzantine)
				}
			})
		}
	}
}

func TestVerifyBandHoldsTileFloor(t *testing.T) {
	// The band check must not loosen the detection floor: a single cell
	// off by twice its 32-column tile floor — relTol × Σ_k |A[i][k]| × s_t,
	// s_t the largest 32-wide |B| row sum of the cell's column stripe t —
	// is flagged, localized and corrected bit-exactly, though a
	// full-width band row sums 8× as many cells as a tile row. The cell
	// sits in a light stripe when B's first stripe is 100× heavier (one
	// tolerance per row would let it pass), and in an all-zero stripe,
	// which is held to the lightest nonzero stripe's floor.
	const n, bs = 256, 32
	const i, j = 100, 77
	ratio := partition.MustRatio(10, 1, 1)
	g, err := partition.Build(partition.SquareCorner, n, ratio)
	if err != nil {
		t.Fatal(err)
	}
	scaleStripe := func(b *matrix.Dense, st int, f float64) {
		for k := 0; k < n; k++ {
			for jj := st * bs; jj < st*bs+bs; jj++ {
				b.Set(k, jj, f*b.At(k, jj))
			}
		}
	}
	for _, tc := range []struct {
		name          string
		heavy, zeroed bool
	}{
		{"even", false, false},
		{"heavy-first-stripe", true, false},
		{"zero-stripe-beside-heavy", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, b := randomMatrices(n, 67)
			if tc.heavy {
				scaleStripe(b, 0, 100)
			}
			if tc.zeroed {
				scaleStripe(b, j/bs, 0)
			}
			want := matrix.New(n)
			matrix.MulKIJ(want, a, b)
			e, err := newEngine(context.Background(), Config{Machine: testMachine(ratio), Algorithm: model.SCB, BlockSize: bs, Verify: true}, g, a, b)
			if err != nil {
				t.Fatal(err)
			}
			e.buildInitialTasks()

			rowAbsA := 0.0
			for k := 0; k < n; k++ {
				rowAbsA += math.Abs(a.At(i, k))
			}
			stripes := make([]float64, n/bs) // s_t
			for st := range stripes {
				for k := 0; k < n; k++ {
					s := 0.0
					for jj := st * bs; jj < st*bs+bs; jj++ {
						s += math.Abs(b.At(k, jj))
					}
					stripes[st] = max(stripes[st], s)
				}
			}
			floor := stripes[j/bs]
			if floor == 0 {
				floor = math.Inf(1)
				for _, s := range stripes {
					if s > 0 {
						floor = min(floor, s)
					}
				}
			}
			delta := 2 * relTol * rowAbsA * floor
			// Each block reports its cells as serial kij computes them;
			// the one holding (i, j) reports that cell off by delta.
			for _, p := range partition.Procs {
				for _, task := range e.pending[p] {
					cells := cellsOf(task, n)
					vals := make([]float64, len(cells))
					for ci, idx := range cells {
						vals[ci] = want.Data()[idx]
						if idx == int32(i*n+j) {
							vals[ci] += delta
						}
					}
					if err := e.commit(blockResult{task: task, from: p, vals: vals}); err != nil {
						t.Fatal(err)
					}
				}
			}
			if e.stats.IntegrityChecks != n/bs {
				t.Errorf("IntegrityChecks = %d, want %d (one per band)", e.stats.IntegrityChecks, n/bs)
			}
			if e.stats.CorruptionsCorrected != 1 || e.stats.BlocksRecomputed != 0 {
				t.Fatalf("corrected=%d recomputed=%d, want the one cell corrected in place",
					e.stats.CorruptionsCorrected, e.stats.BlocksRecomputed)
			}
			if !e.c.Equal(want) {
				t.Fatal("corrected product differs from serial kij")
			}
		})
	}
}

func TestVerifyMixedMagnitudesNoFalsePositive(t *testing.T) {
	// Honest rounding never trips the band check: mixed-sign inputs whose
	// magnitudes span 1e-3 to 1e3 verify clean, with every band checked
	// once and nothing corrected or recomputed.
	const n = 256
	ratio := partition.MustRatio(5, 2, 1)
	rng := rand.New(rand.NewSource(71))
	a, b := matrix.New(n), matrix.New(n)
	for _, m := range []*matrix.Dense{a, b} {
		for idx := range m.Data() {
			v := math.Pow(10, 6*rng.Float64()-3)
			if rng.Intn(2) == 0 {
				v = -v
			}
			m.Data()[idx] = v
		}
	}
	want := matrix.New(n)
	matrix.MulKIJ(want, a, b)
	g, err := partition.Build(partition.BlockRectangle, n, ratio)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []model.Algorithm{model.SCB, model.PCB} {
		c, stats, err := Multiply(Config{Machine: testMachine(ratio), Algorithm: alg, Verify: true}, g, a, b)
		if err != nil {
			t.Fatal(err)
		}
		if !c.Equal(want) {
			t.Fatalf("%v: verified product differs from serial kij", alg)
		}
		if stats.IntegrityChecks != n/defaultBlockSize {
			t.Errorf("%v: IntegrityChecks = %d, want %d", alg, stats.IntegrityChecks, n/defaultBlockSize)
		}
		if stats.CorruptionsCorrected != 0 || stats.BlocksRecomputed != 0 || len(stats.Byzantine) != 0 {
			t.Errorf("%v: clean run flagged: corrected=%d recomputed=%d byzantine=%v",
				alg, stats.CorruptionsCorrected, stats.BlocksRecomputed, stats.Byzantine)
		}
	}
}

func TestVerifyFlipDetectedAndCorrected(t *testing.T) {
	// A transiently flipping worker: every corruption must be detected
	// (the flip injector always perturbs far beyond tolerance) and the
	// final product must still be bit-identical to serial kij. Most
	// flips are single cells in their tile, so in-place correction must
	// actually fire.
	const n, bs = 64, 16
	ratio := partition.MustRatio(3, 2, 1)
	a, b := randomMatrices(n, 11)
	want := matrix.New(n)
	matrix.MulKIJ(want, a, b)
	g, err := partition.Build(partition.BlockRectangle, n, ratio)
	if err != nil {
		t.Fatal(err)
	}
	fp := sim.NewFaultPlan()
	if err := fp.AddWorkerFlip(partition.R, 1); err != nil {
		t.Fatal(err)
	}
	cfg := fastFailover(Config{Machine: testMachine(ratio), Algorithm: model.SCB, BlockSize: bs, Verify: true, Faults: fp})
	c, stats, err := Multiply(cfg, g, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Equal(want) {
		t.Fatal("flip-faulted product differs from serial kij")
	}
	if stats.InjectedCorruptions == 0 {
		t.Fatal("fault plan injected nothing at flip probability 1")
	}
	if stats.CorruptionsCorrected == 0 {
		t.Error("no single-cell correction fired")
	}
	if d := detected(stats); d < stats.InjectedCorruptions {
		t.Errorf("detected %d of %d injected corruptions", d, stats.InjectedCorruptions)
	}
}

func TestVerifyScaleQuarantinesByzantine(t *testing.T) {
	// A systematically scaling worker produces self-consistent garbage;
	// the supervisor's independent references must catch every block,
	// burn through the mismatch budget, quarantine the worker like a
	// lost one (replan on survivors), and still finish bit-exact. Bands
	// of 2 rows give the scaler more blocks than its budget.
	const n, bs = 48, 2
	ratio := partition.MustRatio(3, 2, 1)
	a, b := randomMatrices(n, 13)
	want := matrix.New(n)
	matrix.MulKIJ(want, a, b)
	g, err := partition.Build(partition.BlockRectangle, n, ratio)
	if err != nil {
		t.Fatal(err)
	}
	fp := sim.NewFaultPlan()
	if err := fp.AddWorkerScale(partition.S, 8); err != nil {
		t.Fatal(err)
	}
	// Slow the scaler down so it still holds unstarted work when the
	// mismatch budget runs out — the quarantine must then re-plan it.
	if err := fp.AddWorkerSlowdown(partition.S, 8); err != nil {
		t.Fatal(err)
	}
	for _, alg := range model.AllAlgorithms {
		t.Run(alg.String(), func(t *testing.T) {
			reg := metrics.NewRegistry()
			cfg := fastFailover(Config{Machine: testMachine(ratio), Algorithm: alg, BlockSize: bs, Verify: true, Faults: fp, Metrics: reg})
			c, stats, err := Multiply(cfg, g, a, b)
			if err != nil {
				t.Fatal(err)
			}
			if !c.Equal(want) {
				t.Fatal("scale-faulted product differs from serial kij")
			}
			if len(stats.Byzantine) != 1 || stats.Byzantine[0] != partition.S {
				t.Fatalf("Byzantine = %v, want [S]", stats.Byzantine)
			}
			if stats.Survivors() != 2 {
				t.Errorf("Survivors = %d, want 2", stats.Survivors())
			}
			if stats.Recoveries == 0 || stats.RecoveryKinds[0] != "replan-2proc" {
				t.Errorf("quarantine did not trigger the survivor re-plan: %v", stats.RecoveryKinds)
			}
			if stats.BlocksRecomputed <= defaultMismatchBudget {
				t.Errorf("BlocksRecomputed = %d, want > mismatch budget %d", stats.BlocksRecomputed, defaultMismatchBudget)
			}
			if d := detected(stats); d < stats.InjectedCorruptions {
				t.Errorf("detected %d of %d injected corruptions", d, stats.InjectedCorruptions)
			}
		})
	}
}

func TestVerifyCorruptionOnLastOutstandingBlock(t *testing.T) {
	// BlockSize ≥ n makes the whole matrix one tile whose verification
	// fires on the very last committed block — the path where detection,
	// localization, correction and run completion all collapse into the
	// final commit.
	const n = 24
	ratio := partition.MustRatio(3, 2, 1)
	a, b := randomMatrices(n, 17)
	want := matrix.New(n)
	matrix.MulKIJ(want, a, b)
	g, err := partition.Build(partition.BlockRectangle, n, ratio)
	if err != nil {
		t.Fatal(err)
	}
	fp := sim.NewFaultPlan()
	if err := fp.AddWorkerFlip(partition.P, 1); err != nil {
		t.Fatal(err)
	}
	cfg := fastFailover(Config{Machine: testMachine(ratio), Algorithm: model.SCB, BlockSize: n, Verify: true, Faults: fp})
	c, stats, err := Multiply(cfg, g, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Equal(want) {
		t.Fatal("single-tile flip run differs from serial kij")
	}
	if stats.IntegrityChecks == 0 {
		t.Fatal("single tile never verified")
	}
	if stats.InjectedCorruptions != 1 {
		t.Fatalf("InjectedCorruptions = %d, want 1 (P owns one block of the single tile)", stats.InjectedCorruptions)
	}
	if stats.CorruptionsCorrected != 1 {
		t.Errorf("CorruptionsCorrected = %d, want 1 (single cell, localized)", stats.CorruptionsCorrected)
	}
}

func TestVerifyKillFlipMatrix(t *testing.T) {
	// Corruption racing fail-stop loss, in both directions: a flipping
	// worker with a concurrent kill (corruption during an active lease,
	// then the lease re-plan), and a kill racing a scaling worker's
	// quarantine. Run under -race, this is the engine's concurrency
	// drill for the integrity path.
	const n, bs = 48, 8
	ratio := partition.MustRatio(3, 2, 1)
	a, b := randomMatrices(n, 19)
	want := matrix.New(n)
	matrix.MulKIJ(want, a, b)
	g, err := partition.Build(partition.BlockRectangle, n, ratio)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		spec string
	}{
		{"flip-and-kill-same-worker", "flip:R@1,kill:R@0.5"},
		{"flip-survivor-of-kill", "flip:P@0.5,kill:R@0.3"},
		{"scale-with-kill-elsewhere", "scale:S@8,kill:R@0.6"},
		{"flip-everyone-viable", "flip:P@0.3,flip:R@0.3,flip:S@0.3"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fp, err := sim.ParseWorkerFaults(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			for _, alg := range model.AllAlgorithms {
				t.Run(alg.String(), func(t *testing.T) {
					cfg := fastFailover(Config{Machine: testMachine(ratio), Algorithm: alg, BlockSize: bs, Verify: true, Faults: fp})
					c, stats, err := Multiply(cfg, g, a, b)
					if err != nil {
						t.Fatal(err)
					}
					if !c.Equal(want) {
						t.Fatalf("%s: product differs from serial kij", tc.spec)
					}
					if d := detected(stats); d < stats.InjectedCorruptions {
						t.Errorf("%s: detected %d of %d injected corruptions", tc.spec, d, stats.InjectedCorruptions)
					}
				})
			}
		})
	}
}

func TestVerifyQuarantineRacesHeartbeatMiss(t *testing.T) {
	// A worker that both scales its results and hangs: the mismatch
	// budget and the lease expiry race to evict it. Whichever wins, the
	// worker must be evicted exactly once (Lost and Byzantine are
	// mutually exclusive) and the run must stay bit-exact.
	const n, bs = 48, 8
	ratio := partition.MustRatio(3, 2, 1)
	a, b := randomMatrices(n, 23)
	want := matrix.New(n)
	matrix.MulKIJ(want, a, b)
	g, err := partition.Build(partition.BlockRectangle, n, ratio)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := sim.ParseWorkerFaults("scale:S@8,hang:S@0.6")
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastFailover(Config{Machine: testMachine(ratio), Algorithm: model.SCB, BlockSize: bs, Verify: true, Faults: fp})
	c, stats, err := Multiply(cfg, g, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Equal(want) {
		t.Fatal("scale+hang product differs from serial kij")
	}
	evictions := 0
	for _, p := range stats.Lost {
		if p == partition.S {
			evictions++
		}
	}
	for _, p := range stats.Byzantine {
		if p == partition.S {
			evictions++
		}
	}
	if evictions != 1 {
		t.Fatalf("S evicted %d times (Lost=%v Byzantine=%v), want exactly once", evictions, stats.Lost, stats.Byzantine)
	}
	if stats.Survivors() != 2 {
		t.Errorf("Survivors = %d, want 2", stats.Survivors())
	}
}

func TestVerifyCheckpointHoldsOnlyVerifiedBlocks(t *testing.T) {
	// Under Verify, journal appends are deferred to tile verification:
	// even with a worker flipping bits the whole run, every record in
	// the checkpoint must carry a valid content checksum and replay to
	// serial-exact values on resume.
	const n, bs = 32, 8
	ratio := partition.MustRatio(3, 2, 1)
	a, b := randomMatrices(n, 29)
	want := matrix.New(n)
	matrix.MulKIJ(want, a, b)
	g, err := partition.Build(partition.BlockRectangle, n, ratio)
	if err != nil {
		t.Fatal(err)
	}
	fp := sim.NewFaultPlan()
	if err := fp.AddWorkerFlip(partition.R, 1); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "verified.ckpt")
	cfg := fastFailover(Config{Machine: testMachine(ratio), Algorithm: model.SCB, BlockSize: bs,
		Verify: true, Faults: fp, Checkpoint: path})
	if _, _, err := Multiply(cfg, g, a, b); err != nil {
		t.Fatal(err)
	}
	_, rawRecs, err := journal.RecoverRaw(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, _, dropped, err := decodeCkptRecords(n, rawRecs)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 0 {
		t.Fatalf("%d records with bad checksums in a freshly written journal", dropped)
	}
	for _, r := range recs {
		for i, idx := range r.Cells {
			if r.Vals[i] != want.Data()[idx] {
				t.Fatalf("journal holds unverified value %v at cell %d (serial %v)", r.Vals[i], idx, want.Data()[idx])
			}
		}
	}
	// A clean resume replays everything without recomputation.
	rcfg := cfg
	rcfg.Faults = nil
	rcfg.Resume = true
	c, rs, err := Multiply(rcfg, g, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Equal(want) {
		t.Fatal("resume from verified checkpoint differs from serial kij")
	}
	if rs.BlocksDone != 0 {
		t.Errorf("resume recomputed %d blocks, want 0", rs.BlocksDone)
	}
}

func TestCheckpointCorruptRecordRecomputedNotReplayed(t *testing.T) {
	// The resume integrity guarantee: a journal record whose content was
	// silently corrupted (valid CRC framing, stale result checksum) is
	// dropped and its cells recomputed — never replayed into C.
	const n, bs = 32, 8
	ratio := partition.MustRatio(3, 2, 1)
	a, b := randomMatrices(n, 31)
	want := matrix.New(n)
	matrix.MulKIJ(want, a, b)
	g, err := partition.Build(partition.BlockRectangle, n, ratio)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "tampered.ckpt")
	cfg := Config{Machine: testMachine(ratio), Algorithm: model.SCB, BlockSize: bs, Checkpoint: path}
	_, stats, err := Multiply(cfg, g, a, b)
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild the journal with one record's values corrupted but its
	// original Sum kept — a silent post-write corruption that the CRC
	// framing alone cannot catch because the frame is rewritten whole.
	rawHdr, rawRecs, err := journal.RecoverRaw(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, _, _, err := decodeCkptRecords(n, rawRecs)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != stats.BlocksDone {
		t.Fatalf("journal has %d records, run committed %d", len(recs), stats.BlocksDone)
	}
	victim := recs[len(recs)/2]
	w, err := journal.CreateRaw(path+".rebuilt", json.RawMessage(rawHdr))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.Block == victim.Block {
			r.Vals = append([]float64(nil), r.Vals...)
			// Flip a mantissa bit (value stays finite and JSON-encodable);
			// r.Sum still describes the original values.
			r.Vals[0] = math.Float64frombits(math.Float64bits(r.Vals[0]) ^ 1<<51)
		}
		if err := w.AppendPayload(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rcfg := cfg
	rcfg.Checkpoint = path + ".rebuilt"
	rcfg.Resume = true
	rcfg.Verify = true
	c, rs, err := Multiply(rcfg, g, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if rs.CheckpointDropped != 1 {
		t.Fatalf("CheckpointDropped = %d, want 1", rs.CheckpointDropped)
	}
	if rs.BlocksResumed != len(recs)-1 {
		t.Errorf("BlocksResumed = %d, want %d", rs.BlocksResumed, len(recs)-1)
	}
	if rs.BlocksDone == 0 {
		t.Error("dropped record's cells were not recomputed")
	}
	if !c.Equal(want) {
		t.Fatal("resume after tampered record differs from serial kij")
	}
}

func TestVerifyFlipRatesStayBitExact(t *testing.T) {
	// The acceptance sweep in miniature: flip rates up to 10% of blocks
	// (and beyond) on every worker, under every algorithm — C must match
	// serial kij bit for bit in every run, and the detection accounting
	// must cover every delivered corruption.
	const n, bs = 48, 8
	ratio := partition.MustRatio(3, 2, 1)
	a, b := randomMatrices(n, 37)
	want := matrix.New(n)
	matrix.MulKIJ(want, a, b)
	g, err := partition.Build(partition.BlockRectangle, n, ratio)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range model.AllAlgorithms {
		for _, rate := range []float64{0.05, 0.1, 0.5} {
			t.Run(fmt.Sprintf("%v-%g", alg, rate), func(t *testing.T) {
				fp := sim.NewFaultPlan()
				for _, p := range partition.Procs {
					if err := fp.AddWorkerFlip(p, rate); err != nil {
						t.Fatal(err)
					}
				}
				cfg := fastFailover(Config{Machine: testMachine(ratio), Algorithm: alg, BlockSize: bs, Verify: true, Faults: fp})
				c, stats, err := Multiply(cfg, g, a, b)
				if err != nil {
					t.Fatal(err)
				}
				if !c.Equal(want) {
					t.Fatalf("%v flip@%g differs from serial kij", alg, rate)
				}
				if d := detected(stats); d < stats.InjectedCorruptions {
					t.Errorf("%v flip@%g: detected %d of %d", alg, rate, d, stats.InjectedCorruptions)
				}
			})
		}
	}
}
