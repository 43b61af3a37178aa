package push

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/partition"
)

// snapshotCounters captures every piece of derived state a rollback must
// restore alongside the raw cells.
type counterSnapshot struct {
	fp       uint64
	voc      int64
	total    [partition.MaxProcs]int
	rowsWith [partition.MaxProcs]int
	colsWith [partition.MaxProcs]int
	rects    [partition.MaxProcs]geom.Rect
}

func snapshot(g *partition.Grid) counterSnapshot {
	var s counterSnapshot
	s.fp = g.Fingerprint()
	s.voc = g.VoC()
	for p := range g.Fastest() + 1 {
		s.total[p] = g.Count(p)
		s.rowsWith[p] = g.RowsWith(p)
		s.colsWith[p] = g.ColsWith(p)
		s.rects[p] = g.EnclosingRect(p)
	}
	return s
}

// TestUndoLogRestoresEverything is the rollback property: after an
// arbitrary sequence of recorded logical-coordinate mutations through any
// view, rollback restores the cells, the fingerprint, and every occupancy
// counter bit-exactly. The sizes straddle 64-bit word boundaries, the
// grids hold 3 processors and 2, 4 and 5, and the cell bit sets are built
// before the mutations, part-way through, or never; Validate checks them
// against the cells after every step.
func TestUndoLogRestoresEverything(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, size := range []struct{ n, k, trials int }{
		{32, 3, 200}, {63, 3, 30}, {64, 3, 30}, {65, 3, 30}, {130, 3, 15},
		{32, 2, 60}, {63, 4, 30}, {64, 5, 30}, {65, 4, 30}, {130, 5, 15},
	} {
		n, k := size.n, size.k
		for trial := 0; trial < size.trials; trial++ {
			build := trial % 3 // 0: before, 1: during, 2: never
			g, err := partition.NewRandomK(n, partition.Speeds{8, 4, 2, 1, 1}[:k], rng)
			if k == partition.NumProcs {
				g = partition.NewRandom(n, partition.MustRatio(3, 2, 1), rng)
			}
			if err != nil {
				t.Fatal(err)
			}
			if build == 0 {
				g.CellBits(0)
			}
			ref := g.Clone()
			before := snapshot(g)

			dir := geom.AllDirections[rng.Intn(geom.NumDirections)]
			vg := vgrid{g: g, v: geom.NewView(n, dir)}
			var undo undoLog
			muts := 1 + rng.Intn(60)
			for m := 0; m < muts; m++ {
				if build == 1 && m == muts/2 {
					g.CellBits(partition.Proc(k - 2))
				}
				i, j := rng.Intn(n), rng.Intn(n)
				pi, pj := vg.v.Apply(i, j)
				undo.record(i, j, g.At(pi, pj))
				vg.set(i, j, partition.Proc(rng.Intn(k)))
				if err := g.Validate(); err != nil {
					t.Fatalf("n=%d k=%d trial %d mutation %d: %v", n, k, trial, m, err)
				}
			}
			undo.rollback(vg)

			if !g.Equal(ref) {
				t.Fatalf("n=%d trial %d: rollback left different cells", n, trial)
			}
			if after := snapshot(g); after != before {
				t.Fatalf("n=%d trial %d: rollback left different counters:\nbefore %+v\nafter  %+v", n, trial, before, after)
			}
			if g.Fingerprint() != g.FingerprintRescan() {
				t.Fatalf("n=%d trial %d: fingerprint drifted from rescan after rollback", n, trial)
			}
			if err := g.Validate(); err != nil {
				t.Fatalf("n=%d trial %d: %v", n, trial, err)
			}
		}
	}
}

// TestFailedAttemptRestoresFingerprint drives the real Attempt machinery:
// a vetoed or structurally failing Push must leave the fingerprint (and
// hence the condense loop's plateau bookkeeping) exactly as it was.
func TestFailedAttemptRestoresFingerprint(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const n = 40
	g := partition.NewRandom(n, partition.MustRatio(2, 1, 1), rng)
	veto := func(*partition.Grid) bool { return false }
	for i := 0; i < 400; i++ {
		before := snapshot(g)
		p := partition.Procs[rng.Intn(2)]
		d := geom.AllDirections[rng.Intn(geom.NumDirections)]
		tp := AllTypes[rng.Intn(len(AllTypes))]
		if _, ok := Attempt(g, p, d, tp, veto); ok {
			t.Fatal("vetoing accept must fail the attempt")
		}
		if after := snapshot(g); after != before {
			t.Fatalf("attempt %d (%v %v %v): failed push changed state:\nbefore %+v\nafter  %+v",
				i, p, d, tp, before, after)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("attempt %d (%v %v %v): %v", i, p, d, tp, err)
		}
	}
}
