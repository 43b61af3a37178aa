package partition

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

func TestNewGridAllP(t *testing.T) {
	g := NewGrid(8)
	if g.N() != 8 {
		t.Fatalf("N = %d", g.N())
	}
	if g.Count(P) != 64 || g.Count(R) != 0 || g.Count(S) != 0 {
		t.Fatalf("counts = %d %d %d", g.Count(P), g.Count(R), g.Count(S))
	}
	if g.VoC() != 0 {
		t.Fatalf("single-processor grid must have VoC 0, got %d", g.VoC())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestNewGridInvalidSizePanics covers every misuse the grid refuses by
// panicking: a non-positive size, a processor count outside [2, MaxProcs],
// a processor the grid does not hold, a copy between grids of different
// processor counts, the fastest processor's (absent) cell bit sets, and
// the three-processor readers on any other count.
func TestNewGridInvalidSizePanics(t *testing.T) {
	for name, f := range map[string]func(){
		"NewGrid(0)":             func() { NewGrid(0) },
		"NewGridK(0, 4)":         func() { NewGridK(0, 4) },
		"NewGridK(5, 1)":         func() { NewGridK(5, 1) },
		"NewGridK(5, 11)":        func() { NewGridK(5, MaxProcs+1) },
		"Set(Proc(7)) on K=3":    func() { NewGrid(5).Set(0, 0, Proc(7)) },
		"Set(Proc(4)) on K=4":    func() { NewGridK(5, 4).Set(0, 0, Proc(4)) },
		"CopyFrom K=4 into K=3":  func() { NewGrid(5).CopyFrom(NewGridK(5, 4)) },
		"CellBits of fastest":    func() { NewGridK(5, 4).CellBits(Proc(3)) },
		"Snapshot on K=4":        func() { NewGridK(5, 4).Snapshot() },
		"PairVolumes on K=2":     func() { NewGridK(5, 2).PairVolumes() },
		"Encode on K=2":          func() { NewGridK(5, 2).Encode() },
		"WritePGM on K=4":        func() { _ = NewGridK(5, 4).WritePGM(&bytes.Buffer{}) },
		"RandomizeInto with K=4": func() { RandomizeInto(NewGridK(5, 4), MustRatio(2, 1, 1), rand.New(rand.NewSource(1))) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s should panic", name)
				}
			}()
			f()
		}()
	}
}

// TestGridK exercises a grid of four processors: the fastest, Proc(3),
// starts with every cell, and Set, the counters, Eq 1's VoC, Validate,
// Clone, Equal and the fingerprints work as on three.
func TestGridK(t *testing.T) {
	g := NewGridK(10, 4)
	if g.N() != 10 || g.K() != 4 || g.Fastest() != Proc(3) {
		t.Fatalf("N=%d K=%d fastest=%v", g.N(), g.K(), g.Fastest())
	}
	if g.Count(Proc(3)) != 100 || g.VoC() != 0 {
		t.Fatal("initial state")
	}
	g.Set(3, 4, Proc(1))
	if g.At(3, 4) != Proc(1) || g.Count(Proc(1)) != 1 || g.Count(Proc(3)) != 99 {
		t.Fatal("Set/At/Count")
	}
	if g.VoC() != 20 { // one shared row + one shared column
		t.Fatalf("VoC = %d", g.VoC())
	}
	if g.RowProcs(3) != 2 || g.ColProcs(4) != 2 || g.RowsWith(Proc(1)) != 1 {
		t.Fatal("occupancy")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	c := g.Clone()
	c.Set(0, 0, Proc(0))
	if g.At(0, 0) != Proc(3) {
		t.Fatal("clone leak")
	}
	if g.Equal(c) || !g.Equal(g.Clone()) {
		t.Fatal("Equal")
	}
	if g.Fingerprint() == c.Fingerprint() || c.Fingerprint() != c.FingerprintRescan() {
		t.Fatal("fingerprints")
	}
	// The same cells over another processor count are a different grid.
	three := NewGrid(10)
	if three.Equal(NewGridK(10, 4)) || three.Fingerprint() == NewGridK(10, 4).Fingerprint() {
		t.Fatal("grids of 3 and 4 processors must differ")
	}
}

func TestSetUpdatesCounters(t *testing.T) {
	g := NewGrid(4)
	g.Set(1, 2, R)
	if g.At(1, 2) != R {
		t.Fatal("At after Set")
	}
	if g.Count(R) != 1 || g.Count(P) != 15 {
		t.Fatalf("counts %d %d", g.Count(R), g.Count(P))
	}
	if !g.RowHas(1, R) || !g.ColHas(2, R) {
		t.Fatal("RowHas/ColHas")
	}
	if g.RowProcs(1) != 2 || g.ColProcs(2) != 2 {
		t.Fatal("occupancy")
	}
	// Row 1 and column 2 each now host 2 processors: VoC = N*(1) + N*(1).
	if g.VoC() != 8 {
		t.Fatalf("VoC = %d, want 8", g.VoC())
	}
	if g.RowsWith(R) != 1 || g.ColsWith(R) != 1 {
		t.Fatal("rowsWith/colsWith")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Setting the same value is a no-op.
	g.Set(1, 2, R)
	if g.VoC() != 8 || g.Count(R) != 1 {
		t.Fatal("idempotent Set changed state")
	}
}

func TestSetInvalidProcPanics(t *testing.T) {
	g := NewGrid(2)
	defer func() {
		if recover() == nil {
			t.Error("Set with invalid proc should panic")
		}
	}()
	g.Set(0, 0, Proc(7))
}

func TestVoCMatchesDefinition(t *testing.T) {
	// Randomised cross-check of the incremental VoC against Eq 1 computed
	// from scratch.
	rng := rand.New(rand.NewSource(7))
	g := NewGrid(16)
	for k := 0; k < 2000; k++ {
		g.Set(rng.Intn(16), rng.Intn(16), Procs[rng.Intn(3)])
		if k%97 == 0 {
			want := int64(g.VoCRows()+g.VoCCols()) * int64(g.N())
			if g.VoC() != want {
				t.Fatalf("step %d: incremental VoC %d != definition %d", k, g.VoC(), want)
			}
			if err := g.Validate(); err != nil {
				t.Fatalf("step %d: %v", k, err)
			}
		}
	}
}

func TestSwap(t *testing.T) {
	g := NewGrid(4)
	g.Set(0, 0, R)
	g.Set(3, 3, S)
	g.Swap(0, 0, 3, 3)
	if g.At(0, 0) != S || g.At(3, 3) != R {
		t.Fatal("Swap did not exchange")
	}
	if g.Count(R) != 1 || g.Count(S) != 1 {
		t.Fatal("Swap changed counts")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestEnclosingRect(t *testing.T) {
	g := NewGrid(10)
	if !g.EnclosingRect(R).IsEmpty() {
		t.Fatal("empty processor must have empty rect")
	}
	g.Set(2, 3, R)
	g.Set(7, 5, R)
	got := g.EnclosingRect(R)
	want := geom.NewRect(2, 3, 8, 6)
	if got != want {
		t.Fatalf("rect = %v, want %v", got, want)
	}
	// P's enclosing rectangle is the whole matrix.
	if g.EnclosingRect(P) != geom.NewRect(0, 0, 10, 10) {
		t.Fatal("P rect should be full matrix")
	}
}

// TestConcurrentReaders has several goroutines read one shared grid at
// once, as the server's plan cache does with its built plans: the read
// accessors must not write, which -race checks. One grid is a canonical
// build that has never had cell bit sets; the other had them built by a
// search before it was shared.
func TestConcurrentReaders(t *testing.T) {
	built, err := Build(SquareCorner, 130, MustRatio(10, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	searched := NewRandom(65, MustRatio(3, 2, 1), rand.New(rand.NewSource(5)))
	searched.CellBits(R)
	for _, g := range []*Grid{built, searched} {
		// The expected values come from a copy, so the shared grid is
		// first read by the racing goroutines.
		ref := g.Clone()
		var rects [NumProcs]geom.Rect
		for _, p := range Procs {
			rects[p] = ref.EnclosingRect(p)
		}
		snap, enc := ref.Snapshot(), ref.Encode()
		var wg sync.WaitGroup
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := 0; k < 20; k++ {
					for _, p := range Procs {
						if got := g.EnclosingRect(p); got != rects[p] {
							t.Errorf("rect of %v = %v, want %v", p, got, rects[p])
						}
					}
					if g.Snapshot() != snap {
						t.Error("Snapshot changed under concurrent reads")
					}
					if !bytes.Equal(g.Encode(), enc) {
						t.Error("Encode changed under concurrent reads")
					}
				}
			}()
		}
		wg.Wait()
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	g := NewGrid(6)
	g.Set(1, 1, R)
	c := g.Clone()
	if !c.Equal(g) {
		t.Fatal("clone differs")
	}
	c.Set(2, 2, S)
	if g.At(2, 2) != P {
		t.Fatal("clone mutation leaked")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Equal(c) {
		t.Fatal("Equal should detect difference")
	}
}

func TestEqualDifferentSizes(t *testing.T) {
	if NewGrid(3).Equal(NewGrid(4)) {
		t.Fatal("grids of different sizes cannot be equal")
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	g := NewGrid(8)
	f0 := g.Fingerprint()
	g.Set(4, 4, S)
	if g.Fingerprint() == f0 {
		t.Fatal("fingerprint should change with cells")
	}
	h := NewGrid(8)
	h.Set(4, 4, S)
	if h.Fingerprint() != g.Fingerprint() {
		t.Fatal("equal grids must share fingerprints")
	}
}

func TestFillRect(t *testing.T) {
	g := NewGrid(6)
	r := geom.NewRect(1, 2, 4, 5)
	g.FillRect(r, S)
	if g.Count(S) != r.Area() {
		t.Fatalf("Count(S) = %d, want %d", g.Count(S), r.Area())
	}
	if g.EnclosingRect(S) != r {
		t.Fatalf("rect = %v", g.EnclosingRect(S))
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestOverlapCount(t *testing.T) {
	// P owns everything except a 2×2 S block: P has no fully-owned rows
	// through the S rows, and no fully-owned columns through the S cols.
	g := NewGrid(6)
	g.FillRect(geom.NewRect(0, 0, 2, 2), S)
	// Fully-P rows: 2..5 (4 rows). Fully-P cols: 2..5 (4 cols).
	// Overlap(P) = 4*4 = 16 cells.
	if got := g.OverlapCount(P); got != 16 {
		t.Fatalf("Overlap(P) = %d, want 16", got)
	}
	if got := g.OverlapCount(S); got != 0 {
		t.Fatalf("Overlap(S) = %d, want 0", got)
	}
	// A full-width S band: S fully owns its rows but no full columns.
	g2 := NewGrid(6)
	g2.FillRect(geom.NewRect(4, 0, 6, 6), S)
	if got := g2.OverlapCount(S); got != 0 {
		t.Fatalf("band Overlap(S) = %d, want 0 (no full columns)", got)
	}
	// Single-processor grid: everything is overlap.
	g3 := NewGrid(4)
	if got := g3.OverlapCount(P); got != 16 {
		t.Fatalf("all-P Overlap = %d, want 16", got)
	}
}

func TestSnapshot(t *testing.T) {
	g := NewGrid(5)
	g.FillRect(geom.NewRect(0, 0, 2, 2), R)
	m := g.Snapshot()
	if m.N != 5 {
		t.Fatal("N")
	}
	if m.Elements[R] != 4 || m.Elements[P] != 21 {
		t.Fatalf("elements %v", m.Elements)
	}
	if m.Rows[R] != 2 || m.Cols[R] != 2 {
		t.Fatalf("rows/cols %v %v", m.Rows, m.Cols)
	}
	if m.VoC != g.VoC() {
		t.Fatal("VoC mismatch")
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	g := NewGrid(4)
	g.Set(1, 1, R)
	// Corrupt the raw cells behind the counters' back.
	g.cells[0] = S
	if err := g.Validate(); err == nil {
		t.Fatal("Validate must detect corrupted cells")
	}
}

func TestQuickRandomMutationInvariants(t *testing.T) {
	for _, k := range []int{3, 2, 4, 10} {
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			g := NewGridK(9, k)
			for x := 0; x < 300; x++ {
				g.Set(rng.Intn(9), rng.Intn(9), Proc(rng.Intn(k)))
			}
			sum := 0
			for p := range Proc(k) {
				sum += g.Count(p)
			}
			return sum == 81 && g.Validate() == nil
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
	}
}

func TestProcString(t *testing.T) {
	if R.String() != "R" || S.String() != "S" || P.String() != "P" {
		t.Fatal("proc names")
	}
	if Proc(9).Valid() {
		t.Fatal("Proc(9) should be invalid")
	}
}

func BenchmarkSet(b *testing.B) {
	g := NewGrid(1000)
	rng := rand.New(rand.NewSource(1))
	idx := make([][2]int, 4096)
	for i := range idx {
		idx[i] = [2]int{rng.Intn(1000), rng.Intn(1000)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := idx[i%len(idx)]
		g.Set(c[0], c[1], Procs[i%3])
	}
}

func BenchmarkVoC(b *testing.B) {
	g := NewGrid(1000)
	g.FillRect(geom.NewRect(0, 0, 300, 300), R)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if g.VoC() < 0 {
			b.Fatal("impossible")
		}
	}
}

func BenchmarkSnapshot(b *testing.B) {
	g := NewGrid(500)
	g.FillRect(geom.NewRect(0, 0, 150, 150), R)
	g.FillRect(geom.NewRect(350, 350, 500, 500), S)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.Snapshot()
	}
}

func TestSendsSumToVoC(t *testing.T) {
	// The unicast send volumes decompose Eq 1's VoC exactly, for any
	// arrangement of elements.
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		g := NewRandom(24, PaperRatios[trial%len(PaperRatios)], rng)
		snap := g.Snapshot()
		var sum int64
		for _, p := range Procs {
			sum += snap.Sends[p]
		}
		if sum != g.VoC() {
			t.Fatalf("trial %d: Σ sends = %d, VoC = %d", trial, sum, g.VoC())
		}
	}
}
