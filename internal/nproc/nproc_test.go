// Package nproc_test holds the K-processor tests of the former nproc
// engine, a second grid, Push and search loop for any processor count.
// That engine is gone: partition's grid carries its processor count and
// push runs the search for any K. These tests keep their names and now
// drive the one engine.
//
// nproc numbered the fastest processor 0 and the slower ones 1…K−1. The
// one engine numbers the slower ones Proc(0)…Proc(K−2), in decreasing
// speed, and the fastest Proc(K−1), so nproc's processor p is Proc(p−1).
package nproc_test

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/partition"
	"repro/internal/push"
)

func ratio4() partition.Speeds { return partition.Speeds{4, 2, 1, 1} }

// run searches from a random start of the given speeds, drawn with seed,
// as npush does. Every such search must end in a valid, condensed grid
// with the start's processor count and counts, and a condensed state
// should have shed a large share of the start's communication volume.
func run(t *testing.T, n int, speeds partition.Speeds, seed int64) *push.RunResult {
	t.Helper()
	start, err := partition.NewRandomK(n, speeds, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := push.Run(push.Config{N: n, Seed: seed, Start: start, Beautify: true})
	if err != nil {
		t.Fatal(err)
	}
	g := res.Final
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
	if g.K() != len(speeds) || !push.Condensed(g, push.FullPlan(len(speeds)), nil) {
		t.Errorf("%v seed %d: K=%d, not condensed after %d steps", speeds, seed, g.K(), res.Steps)
	}
	for p := range g.Fastest() + 1 {
		if g.Count(p) != start.Count(p) {
			t.Errorf("%v seed %d: Count(%v) drifted", speeds, seed, p)
		}
	}
	if drop := 1 - float64(res.FinalVoC)/float64(res.InitialVoC); drop < 0.2 {
		t.Errorf("%v seed %d: only %.0f%% VoC drop", speeds, seed, 100*drop)
	}
	return res
}

func TestGridPanics(t *testing.T) {
	for _, f := range []func(){
		func() { partition.NewGridK(0, 3) },
		func() { partition.NewGridK(5, 1) },
		func() { partition.NewGridK(5, 99) },
		func() { partition.NewGridK(5, 3).Set(0, 0, partition.Proc(7)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestNewRandomCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g, err := partition.NewRandomK(40, ratio4(), rng)
	if err != nil {
		t.Fatal(err)
	}
	if g.K() != 4 {
		t.Fatalf("K = %d", g.K())
	}
	counts := ratio4().Counts(40)
	for p, want := range counts {
		if g.Count(partition.Proc(p)) != want {
			t.Errorf("Count(%d) = %d, want %d", p, g.Count(partition.Proc(p)), want)
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := partition.NewRandomK(10, partition.Speeds{1, 2}, rng); err == nil {
		t.Error("invalid ratio should error")
	}
}

func TestPushNeverIncreasesVoC4Proc(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g, err := partition.NewRandomK(24, ratio4(), rng)
	if err != nil {
		t.Fatal(err)
	}
	voc := g.VoC()
	committed := 0
	for i := 0; i < 500; i++ {
		p := partition.Proc(rng.Intn(3))
		d := geom.AllDirections[rng.Intn(4)]
		if _, ok := push.AttemptAny(g, p, d, nil, nil); ok {
			committed++
		}
		if g.VoC() > voc {
			t.Fatalf("VoC rose %d -> %d", voc, g.VoC())
		}
		voc = g.VoC()
	}
	if committed == 0 {
		t.Fatal("expected some pushes")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPushInvariants4Proc(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g, err := partition.NewRandomK(20, ratio4(), rng)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 4)
	for p := range counts {
		counts[p] = g.Count(partition.Proc(p))
	}
	for i := 0; i < 300; i++ {
		p := partition.Proc(rng.Intn(3))
		d := geom.AllDirections[rng.Intn(4)]
		before := g.EnclosingRect(p)
		if _, ok := push.AttemptAny(g, p, d, nil, nil); ok {
			if !before.ContainsRect(g.EnclosingRect(p)) {
				t.Fatal("active rect grew")
			}
		}
		for q := range counts {
			if g.Count(partition.Proc(q)) != counts[q] {
				t.Fatalf("count(%d) changed", q)
			}
		}
	}
}

func TestPushRejectsProcessorZero(t *testing.T) {
	g := partition.NewGridK(10, 3)
	if _, ok := push.AttemptAny(g, g.Fastest(), geom.Down, nil, nil); ok {
		t.Fatal("the fastest processor must never be pushed")
	}
	if _, ok := push.AttemptAny(g, partition.Proc(5), geom.Down, nil, nil); ok {
		t.Fatal("out-of-range processor must fail")
	}
}

func TestRunConverges4Proc(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		res := run(t, 36, ratio4(), seed)
		if !res.Converged {
			t.Errorf("seed %d: no convergence in %d steps", seed, res.Steps)
		}
		if res.FinalVoC > res.InitialVoC {
			t.Errorf("seed %d: VoC rose", seed)
		}
	}
}

func TestRunFiveProcessors(t *testing.T) {
	for _, seed := range []int64{0, 1, 2} {
		res := run(t, 40, partition.Speeds{8, 4, 2, 1, 1}, seed)
		if !res.Converged {
			t.Fatalf("seed %d: 5-processor run did not converge", seed)
		}
		if res.FinalVoC >= res.InitialVoC {
			t.Fatalf("seed %d: expected VoC reduction", seed)
		}
	}
}

func TestRunTwoProcessorsMatchesPriorWork(t *testing.T) {
	// With K=2 the engine is the prior work's two-processor Push: the
	// slow processor condenses toward a compact region.
	for _, seed := range []int64{0, 1, 3} {
		res := run(t, 40, partition.Speeds{3, 1}, seed)
		if !res.Converged {
			t.Fatalf("seed %d: 2-processor run did not converge", seed)
		}
		slow := res.Final.EnclosingRect(0)
		slack := slow.Area() - res.Final.Count(0)
		if float64(slack) > 0.25*float64(res.Final.Count(0)) {
			t.Errorf("seed %d: slow processor far from compact: rect %v area %d count %d",
				seed, slow, slow.Area(), res.Final.Count(0))
		}
	}
}

func TestRunValidation(t *testing.T) {
	one := partition.NewGridK(1, 2)
	if _, err := push.Run(push.Config{N: 1, Start: one}); err == nil {
		t.Error("N=1 should error")
	}
	if _, err := partition.NewRandomK(20, partition.Speeds{1, 2}, rand.New(rand.NewSource(1))); err == nil {
		t.Error("bad ratio should error")
	}
}

func TestRenderASCII4Proc(t *testing.T) {
	g := partition.NewGridK(40, 4)
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			g.Set(i, j, 0)
			g.Set(i+20, j+20, 1)
			g.Set(i, j+30, 2)
		}
	}
	out := g.RenderASCII(20)
	for _, glyph := range []string{"1", "2", "3", "."} {
		if !strings.Contains(out, glyph) {
			t.Errorf("render missing %q:\n%s", glyph, out)
		}
	}
	if strings.ContainsAny(out, "RS") {
		t.Errorf("four-processor render uses three-processor glyphs:\n%s", out)
	}
	// Downsample keeps the processor count and takes each box's majority.
	if d := g.Downsample(20); d.K() != 4 || d.At(0, 0) != 0 || d.At(0, 19) != 2 || d.At(19, 19) != g.Fastest() {
		t.Errorf("downsample: K=%d corners %v %v %v", d.K(), d.At(0, 0), d.At(0, 19), d.At(19, 19))
	}
}

func TestQuickGridMutations(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := partition.NewGridK(12, 4)
		for i := 0; i < 200; i++ {
			g.Set(rng.Intn(12), rng.Intn(12), partition.Proc(rng.Intn(4)))
		}
		sum := 0
		for p := range partition.Proc(4) {
			sum += g.Count(p)
		}
		return sum == 144 && g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
