package atlas

import (
	"context"
	"testing"

	"repro/internal/model"
	"repro/internal/partition"
)

// testAtlas builds a small atlas once for the package's tests.
func testAtlas(t testing.TB, scale int, prMax, rrMax float64, n int) *Atlas {
	t.Helper()
	g, err := NewGrid(scale, prMax, rrMax)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Build(context.Background(), BuildConfig{
		Algorithm: model.SCB,
		Topology:  model.FullyConnected,
		N:         n,
		Grid:      g,
	})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestBuildMatchesEvaluateCell(t *testing.T) {
	a := testAtlas(t, 2, 4, 3, 40)
	checked := 0
	for pi := 0; pi < a.grid.PrCells; pi++ {
		for ri := 0; ri < a.grid.RrCells; ri++ {
			c := Cell{Pi: pi, Ri: ri}
			rec, ok := a.At(c)
			if !a.grid.Valid(c) {
				if ok {
					t.Fatalf("invalid cell %+v has a record", c)
				}
				continue
			}
			if !ok {
				t.Fatalf("valid cell %+v not computed", c)
			}
			// The legacy machine, built explicitly: the default platform
			// for the cell's ratio on the atlas's topology.
			m := model.DefaultMachine(a.grid.Ratio(c))
			m.Topology = a.Topology()
			cands, best, err := model.Compare(a.Algorithm(), m, a.N())
			if err != nil {
				if rec.Feasible {
					t.Fatalf("cell %+v: atlas feasible but Compare failed: %v", c, err)
				}
				continue
			}
			want := cands[best]
			if !rec.Feasible || rec.Shape != want.Shape || rec.VoC != want.VoC ||
				rec.Total != want.Breakdown.Total || rec.Comm != want.Breakdown.Comm {
				t.Fatalf("cell %+v: atlas %+v, live %+v", c, rec, want)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no cells checked")
	}
}

func TestLookup(t *testing.T) {
	a := testAtlas(t, 2, 4, 3, 40)

	r := partition.MustRatio(2.5, 1.5, 1)
	rec, c, ok := a.Lookup(r)
	if !ok {
		t.Fatalf("Lookup(%v) missed", r)
	}
	if got := a.grid.Ratio(c); got != r {
		t.Fatalf("Lookup snapped %v to cell at %v", r, got)
	}
	if !rec.Feasible || rec.VoC <= 0 {
		t.Fatalf("Lookup(%v) returned implausible record %+v", r, rec)
	}

	for _, miss := range []partition.Ratio{
		{Pr: 2.51, Rr: 1.5, Sr: 1},  // off-lattice
		{Pr: 2.5, Rr: 1.5, Sr: 1.1}, // Sr not one
		{Pr: 9, Rr: 1, Sr: 1},       // beyond grid
	} {
		if _, _, ok := a.Lookup(miss); ok {
			t.Fatalf("Lookup(%+v) hit, want off-atlas", miss)
		}
	}
}

func TestBuildValidatesConfig(t *testing.T) {
	g, err := NewGrid(1, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(context.Background(), BuildConfig{N: 3, Grid: g}); err == nil {
		t.Fatal("Build accepted n=3")
	}
	if _, err := Build(context.Background(), BuildConfig{N: 40}); err == nil {
		t.Fatal("Build accepted zero grid")
	}
}

func TestBuildCancellation(t *testing.T) {
	g, err := NewGrid(100, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Build(ctx, BuildConfig{
		Algorithm: model.SCB, Topology: model.FullyConnected, N: 40, Grid: g,
	}); err == nil {
		t.Fatal("Build ignored cancelled context")
	}
}

func TestWinnerCountsSumToValidFeasibleCells(t *testing.T) {
	a := testAtlas(t, 2, 4, 3, 40)
	sum := 0
	for _, n := range a.WinnerCounts() {
		sum += n
	}
	feasible := 0
	for i, rec := range a.recs {
		if a.valid[i] && rec.Feasible {
			feasible++
		}
	}
	if sum != feasible {
		t.Fatalf("winner counts sum to %d, want %d feasible cells", sum, feasible)
	}
	if feasible == 0 {
		t.Fatal("atlas has no feasible cells")
	}
}

// BenchmarkLookup certifies the acceptance criterion that the atlas-hit
// path allocates nothing: a snap, an index, and a record copy.
func BenchmarkLookup(b *testing.B) {
	a := testAtlas(b, 10, 4, 3, 40)
	ratios := []partition.Ratio{
		partition.MustRatio(2.5, 1.5, 1),
		partition.MustRatio(1, 1, 1),
		partition.MustRatio(3.7, 2.2, 1),
		partition.MustRatio(4, 3, 1),
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink int64
	for i := 0; i < b.N; i++ {
		rec, _, ok := a.Lookup(ratios[i%len(ratios)])
		if !ok {
			b.Fatal("lookup missed")
		}
		sink += rec.VoC
	}
	_ = sink
}

func TestLookupZeroAllocs(t *testing.T) {
	a := testAtlas(t, 10, 4, 3, 40)
	r := partition.MustRatio(2.5, 1.5, 1)
	allocs := testing.AllocsPerRun(1000, func() {
		if _, _, ok := a.Lookup(r); !ok {
			t.Fatal("lookup missed")
		}
	})
	if allocs != 0 {
		t.Fatalf("Lookup allocates %v objects per call, want 0", allocs)
	}
}
