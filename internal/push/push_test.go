package push

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/partition"
)

func ratio211() partition.Ratio { return partition.MustRatio(2, 1, 1) }

// randomStarts returns seeded random starts on 20×20 grids of 3
// processors (ratio 2:1:1) and of 2, 4 and 5.
func randomStarts(rng *rand.Rand) []*partition.Grid {
	gs := []*partition.Grid{partition.NewRandom(20, ratio211(), rng)}
	for _, s := range []partition.Speeds{{3, 1}, {4, 2, 1, 1}, {8, 4, 2, 1, 1}} {
		g, err := partition.NewRandomK(20, s, rng)
		if err != nil {
			panic(err)
		}
		gs = append(gs, g)
	}
	return gs
}

// slowProc draws one of g's slower processors.
func slowProc(g *partition.Grid, rng *rand.Rand) partition.Proc {
	return partition.Proc(rng.Intn(g.K() - 1))
}

func TestAttemptOnPFails(t *testing.T) {
	for _, g := range randomStarts(rand.New(rand.NewSource(2))) {
		for _, p := range []partition.Proc{g.Fastest(), partition.Proc(g.K())} {
			for _, d := range geom.AllDirections {
				if _, ok := AttemptAny(g, p, d, nil, nil); ok {
					t.Fatalf("k=%d: %v, the fastest or no processor, was pushed", g.K(), p)
				}
			}
		}
	}
}

func TestAttemptEmptyProcessorFails(t *testing.T) {
	g := partition.NewGrid(10) // R owns nothing
	for _, d := range geom.AllDirections {
		if _, ok := AttemptAny(g, partition.R, d, nil, nil); ok {
			t.Fatalf("push of empty processor succeeded in %v", d)
		}
	}
}

func TestAttemptSolidRectangleFails(t *testing.T) {
	// A processor whose region exactly fills its enclosing rectangle has
	// no interior slots: no Push is possible in any direction.
	g := partition.NewGrid(12)
	g.FillRect(geom.NewRect(3, 3, 7, 9), R())
	for _, d := range geom.AllDirections {
		for _, ty := range AllTypes {
			before := g.Fingerprint()
			if _, ok := Attempt(g, partition.R, d, ty, nil); ok {
				t.Fatalf("push of solid rectangle succeeded: %v %v", d, ty)
			}
			if g.Fingerprint() != before {
				t.Fatalf("failed push mutated the grid (%v %v)", d, ty)
			}
		}
	}
}

func R() partition.Proc { return partition.R }
func S() partition.Proc { return partition.S }

func TestPushDownMovesEdgeDown(t *testing.T) {
	// R occupies a 3×6 block with a ragged extra top row; its enclosing
	// rectangle's top row can be cleaned downward into the P slack.
	g := partition.NewGrid(12)
	g.FillRect(geom.NewRect(4, 2, 7, 8), R()) // 3 rows
	// Dirty top row of a taller rectangle: two R cells in row 3.
	g.Set(3, 2, R())
	g.Set(3, 3, R())
	// Give the rectangle interior some P holes so the push has slots.
	g.Set(5, 4, partition.P)
	g.Set(5, 5, partition.P)
	rectBefore := g.EnclosingRect(R())
	vocBefore := g.VoC()

	res, ok := AttemptAny(g, R(), geom.Down, nil, nil)
	if !ok {
		t.Fatal("expected a legal Push Down")
	}
	if res.Moved != 2 {
		t.Errorf("moved %d, want 2", res.Moved)
	}
	rectAfter := g.EnclosingRect(R())
	if rectAfter.Top != rectBefore.Top+1 {
		t.Errorf("top edge should advance: %v -> %v", rectBefore, rectAfter)
	}
	if g.VoC() > vocBefore {
		t.Errorf("VoC rose %d -> %d", vocBefore, g.VoC())
	}
	if g.VoC()-vocBefore != res.DeltaVoC {
		t.Errorf("reported delta %d, actual %d", res.DeltaVoC, g.VoC()-vocBefore)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPushPreservesCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, g := range append(randomStarts(rng), partition.NewRandom(24, ratio211(), rng)) {
		var before [partition.MaxProcs]int
		for p := range g.Fastest() + 1 {
			before[p] = g.Count(p)
		}
		pushes := 0
		for i := 0; i < 200; i++ {
			p := slowProc(g, rng)
			d := geom.AllDirections[rng.Intn(4)]
			if _, ok := AttemptAny(g, p, d, nil, nil); ok {
				pushes++
			}
			for q := range g.Fastest() + 1 {
				if g.Count(q) != before[q] {
					t.Fatalf("k=%d: push changed Count(%v): %d -> %d", g.K(), q, before[q], g.Count(q))
				}
			}
		}
		if pushes == 0 {
			t.Fatalf("k=%d: expected at least one successful push", g.K())
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPushNeverIncreasesVoC(t *testing.T) {
	// The paper's core guarantee, exercised across ratios and seeds, and
	// on 2, 4 and 5 processors.
	var starts []*partition.Grid
	for _, ratio := range partition.PaperRatios[:6] {
		for seed := int64(0); seed < 3; seed++ {
			starts = append(starts, partition.NewRandom(20, ratio, rand.New(rand.NewSource(seed))))
		}
	}
	for seed := int64(0); seed < 3; seed++ {
		starts = append(starts, randomStarts(rand.New(rand.NewSource(seed)))[1:]...)
	}
	for x, g := range starts {
		rng := rand.New(rand.NewSource(int64(x)))
		voc := g.VoC()
		committed := 0
		for i := 0; i < 400; i++ {
			p := slowProc(g, rng)
			d := geom.AllDirections[rng.Intn(4)]
			ty := AllTypes[rng.Intn(len(AllTypes))]
			res, ok := Attempt(g, p, d, ty, nil)
			if !ok {
				continue
			}
			committed++
			if g.VoC() > voc {
				t.Fatalf("start %d (k=%d): VoC rose %d -> %d via %+v", x, g.K(), voc, g.VoC(), res)
			}
			if res.DeltaVoC > 0 {
				t.Fatalf("positive reported delta: %+v", res)
			}
			voc = g.VoC()
		}
		if committed == 0 {
			t.Fatalf("start %d (k=%d): no push committed", x, g.K())
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPushTypeContracts(t *testing.T) {
	// Types 1–4 must strictly decrease VoC; 5–6 may leave it equal.
	rng := rand.New(rand.NewSource(3))
	g := partition.NewRandom(24, ratio211(), rng)
	for i := 0; i < 600; i++ {
		p := partition.Procs[rng.Intn(2)]
		d := geom.AllDirections[rng.Intn(4)]
		ty := AllTypes[rng.Intn(len(AllTypes))]
		res, ok := Attempt(g, p, d, ty, nil)
		if !ok {
			continue
		}
		switch ty {
		case TypeOne, TypeTwo, TypeThree, TypeFour:
			if res.DeltaVoC >= 0 {
				t.Fatalf("%v committed with delta %d", ty, res.DeltaVoC)
			}
		default:
			if res.DeltaVoC > 0 {
				t.Fatalf("%v committed with delta %d", ty, res.DeltaVoC)
			}
		}
	}
}

func TestActiveRectangleNeverGrows(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, g := range append(randomStarts(rng), partition.NewRandom(22, ratio211(), rng)) {
		for i := 0; i < 400; i++ {
			p := slowProc(g, rng)
			d := geom.AllDirections[rng.Intn(4)]
			before := g.EnclosingRect(p)
			if _, ok := AttemptAny(g, p, d, nil, nil); ok {
				after := g.EnclosingRect(p)
				if !before.ContainsRect(after) {
					t.Fatalf("k=%d: active rect grew: %v -> %v", g.K(), before, after)
				}
				if after.Eq(before) {
					t.Fatalf("k=%d: successful push left active rect unchanged: %v", g.K(), before)
				}
			}
		}
	}
}

func TestFailedAttemptIsByteExactNoOp(t *testing.T) {
	// Failure injection: exhaust pushes, then verify every further attempt
	// leaves the grid byte-for-byte untouched (rollback correctness).
	res, err := Run(Config{N: 18, Ratio: ratio211(), Seed: 5, Beautify: true})
	if err != nil {
		t.Fatal(err)
	}
	g := res.Final
	// Drain any remaining pushes with the full plan.
	for {
		moved := false
		for _, p := range [2]partition.Proc{partition.R, partition.S} {
			for _, d := range geom.AllDirections {
				if _, ok := AttemptAny(g, p, d, nil, nil); ok {
					moved = true
				}
			}
		}
		if !moved {
			break
		}
	}
	snap := g.Encode()
	for _, p := range [2]partition.Proc{partition.R, partition.S} {
		for _, d := range geom.AllDirections {
			for _, ty := range AllTypes {
				if _, ok := Attempt(g, p, d, ty, nil); ok {
					t.Fatalf("grid was supposed to be fully condensed (%v %v %v)", p, d, ty)
				}
				now := g.Encode()
				for i := range snap {
					if snap[i] != now[i] {
						t.Fatalf("failed attempt mutated cell %d (%v %v %v)", i, p, d, ty)
					}
				}
			}
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAcceptVeto(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := partition.NewRandom(20, ratio211(), rng)
	before := g.Fingerprint()
	vetoed := false
	res, ok := AttemptAny(g, partition.R, geom.Down, nil, func(*partition.Grid) bool {
		vetoed = true
		return false
	})
	if ok {
		t.Fatalf("vetoed push reported success: %+v", res)
	}
	if !vetoed {
		t.Skip("no push was available to veto")
	}
	if g.Fingerprint() != before {
		t.Fatal("vetoed push left mutations behind")
	}
}

func TestRunConvergesAllPaperRatios(t *testing.T) {
	for _, ratio := range partition.PaperRatios {
		res, err := Run(Config{N: 30, Ratio: ratio, Seed: 7})
		if err != nil {
			t.Fatalf("ratio %v: %v", ratio, err)
		}
		if !res.Converged {
			t.Errorf("ratio %v: did not converge in %d steps", ratio, res.Steps)
		}
		if res.FinalVoC > res.InitialVoC {
			t.Errorf("ratio %v: VoC rose", ratio)
		}
		if err := res.Final.Validate(); err != nil {
			t.Errorf("ratio %v: %v", ratio, err)
		}
		counts := ratio.Counts(30)
		for _, p := range partition.Procs {
			if res.Final.Count(p) != counts[p] {
				t.Errorf("ratio %v: count(%v) drifted", ratio, p)
			}
		}
	}
}

func TestRunFixedPointIsCondensed(t *testing.T) {
	res, err := Run(Config{N: 26, Ratio: partition.MustRatio(3, 2, 1), Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if !Condensed(res.Final, res.Plan, nil) {
		t.Fatal("Run returned a state that still admits a push within its plan")
	}
}

func TestRunDeterministicPerSeed(t *testing.T) {
	a, err := Run(Config{N: 24, Ratio: ratio211(), Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Config{N: 24, Ratio: ratio211(), Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Final.Equal(b.Final) || a.Steps != b.Steps {
		t.Fatal("same seed must reproduce the same run")
	}
}

func TestRunFromSuppliedStart(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	start := partition.NewRandom(20, ratio211(), rng)
	orig := start.Clone()
	res, err := Run(Config{N: 20, Ratio: ratio211(), Seed: 1, Start: start})
	if err != nil {
		t.Fatal(err)
	}
	if !start.Equal(orig) {
		t.Fatal("Run must not mutate the supplied start grid")
	}
	if res.InitialVoC != orig.VoC() {
		t.Fatal("InitialVoC should reflect the supplied start")
	}
}

func TestRunArgumentValidation(t *testing.T) {
	if _, err := Run(Config{N: 1, Ratio: ratio211()}); err == nil {
		t.Error("N=1 should error")
	}
	if _, err := Run(Config{N: 10, Ratio: partition.Ratio{}}); err == nil {
		t.Error("zero ratio should error")
	}
	small := partition.NewGrid(5)
	if _, err := Run(Config{N: 10, Ratio: ratio211(), Start: small}); err == nil {
		t.Error("mismatched start size should error")
	}
}

func TestRunSnapshotHook(t *testing.T) {
	var steps []int
	res, err := Run(Config{
		N: 20, Ratio: ratio211(), Seed: 3,
		Snapshot: func(step int, g *partition.Grid) {
			steps = append(steps, step)
			if g == nil {
				t.Fatal("nil grid in snapshot")
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != res.Steps+1 {
		t.Fatalf("snapshot called %d times, want %d (steps+start)", len(steps), res.Steps+1)
	}
	if steps[0] != 0 {
		t.Fatal("first snapshot must be the start state")
	}
	for i := 1; i < len(steps); i++ {
		if steps[i] != steps[i-1]+1 {
			t.Fatal("snapshot steps must be consecutive")
		}
	}
}

func TestRunClusteredStart(t *testing.T) {
	res, err := Run(Config{N: 24, Ratio: ratio211(), Seed: 2, Clustered: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("clustered run did not converge")
	}
}

func TestBeautifyNeverWorsens(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		plain, err := Run(Config{N: 24, Ratio: ratio211(), Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		pretty, err := Run(Config{N: 24, Ratio: ratio211(), Seed: seed, Beautify: true})
		if err != nil {
			t.Fatal(err)
		}
		if pretty.FinalVoC > plain.FinalVoC {
			t.Errorf("seed %d: beautify raised VoC %d -> %d", seed, plain.FinalVoC, pretty.FinalVoC)
		}
	}
}

func TestMaxStepsBackstop(t *testing.T) {
	res, err := Run(Config{N: 24, Ratio: ratio211(), Seed: 1, MaxSteps: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Fatal("3 steps cannot be enough to converge from a random start")
	}
	if res.Steps != 3 {
		t.Fatalf("steps = %d, want exactly MaxSteps", res.Steps)
	}
}

func TestTypeStrings(t *testing.T) {
	if TypeOne.String() != "Type1" || TypeSix.String() != "Type6" {
		t.Error("type names")
	}
	if Type(0).String() != "Type(0)" {
		t.Error("invalid type name")
	}
}

func TestQuickPushInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := partition.NewRandom(14, ratio211(), rng)
		voc := g.VoC()
		for i := 0; i < 60; i++ {
			p := partition.Procs[rng.Intn(2)]
			d := geom.AllDirections[rng.Intn(4)]
			ty := AllTypes[rng.Intn(len(AllTypes))]
			Attempt(g, p, d, ty, nil)
			if g.VoC() > voc {
				return false
			}
			voc = g.VoC()
		}
		return g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRunDFA(b *testing.B) {
	for _, n := range []int{40, 80} {
		b.Run("n"+string(rune('0'+n/40)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Run(Config{N: n, Ratio: ratio211(), Seed: int64(i)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAttempt(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := partition.NewRandom(100, ratio211(), rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := partition.Procs[i%2]
		d := geom.AllDirections[i%4]
		AttemptAny(g, p, d, nil, nil)
	}
}
