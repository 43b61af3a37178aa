package partition

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// TestFingerprintIncrementalMatchesRescan is the equivalence property for
// the O(1) fingerprint: after any sequence of random mutations, the
// incrementally maintained Zobrist hash equals the full-rescan oracle.
func TestFingerprintIncrementalMatchesRescan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{2, 3, 16, 40} {
		g := NewRandom(n, MustRatio(2, 1, 1), rng)
		if got, want := g.Fingerprint(), g.FingerprintRescan(); got != want {
			t.Fatalf("n=%d: fresh random grid fp %#x, rescan %#x", n, got, want)
		}
		for step := 0; step < 2000; step++ {
			switch rng.Intn(10) {
			case 0:
				g.Swap(rng.Intn(n), rng.Intn(n), rng.Intn(n), rng.Intn(n))
			default:
				g.Set(rng.Intn(n), rng.Intn(n), Proc(rng.Intn(NumProcs)))
			}
			if got, want := g.Fingerprint(), g.FingerprintRescan(); got != want {
				t.Fatalf("n=%d step %d: incremental fp %#x, rescan %#x", n, step, got, want)
			}
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

// TestFingerprintSurvivesLifecycle checks the fingerprint and the bit
// sets across every non-Set mutation path: Reset, CopyFrom, Clone, Decode
// and FillRect must all leave the incremental hash equal to the rescan
// oracle, equal grids must agree on it however they were produced, and
// Validate must pass after every step of random lifecycles.
func TestFingerprintSurvivesLifecycle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n = 24
	g := NewRandomClustered(n, MustRatio(3, 2, 1), rng)

	clone := g.Clone()
	if clone.Fingerprint() != g.Fingerprint() {
		t.Fatal("clone changed the fingerprint")
	}

	dec, err := Decode(g.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if dec.Fingerprint() != g.Fingerprint() {
		t.Fatalf("decode round-trip fp %#x, want %#x", dec.Fingerprint(), g.Fingerprint())
	}

	fresh := NewGrid(n)
	base := fresh.Fingerprint()
	clone.Reset()
	if clone.Fingerprint() != base {
		t.Fatalf("reset fp %#x, want the all-P fingerprint %#x", clone.Fingerprint(), base)
	}
	if clone.Fingerprint() != clone.FingerprintRescan() {
		t.Fatal("reset fingerprint diverges from rescan")
	}

	clone.CopyFrom(g)
	if clone.Fingerprint() != g.Fingerprint() || !clone.Equal(g) {
		t.Fatal("CopyFrom did not reproduce the source grid and fingerprint")
	}

	tr := g.Transpose()
	if tr.Fingerprint() != tr.FingerprintRescan() {
		t.Fatal("transpose fingerprint diverges from rescan")
	}

	g.FillRect(geom.Rect{Top: 2, Left: 3, Bottom: 9, Right: 14}, S)
	if g.Fingerprint() != g.FingerprintRescan() {
		t.Fatal("FillRect fingerprint diverges from rescan")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}

	// Random lifecycles on both sides of a 64-bit word boundary, on grids
	// of 3 processors and of 2, 4 and 5, with the cell bit sets built
	// before the sequence, part-way through, or never. Validate checks the
	// counters, the fingerprint and both kinds of bit set against the cells
	// after every step, and EnclosingRect is checked against a scan of the
	// cells.
	for _, size := range []struct{ n, k int }{{63, 3}, {64, 3}, {65, 3}, {130, 3}, {63, 2}, {64, 4}, {65, 5}, {130, 4}} {
		n, k := size.n, size.k
		for _, build := range []string{"before", "during", "never"} {
			var g, other *Grid
			if k == NumProcs {
				g = NewRandom(n, MustRatio(3, 2, 1), rng)
				other = NewRandomClustered(n, MustRatio(5, 2, 1), rng)
			} else {
				speeds := Speeds{8, 4, 2, 1, 1}[:k]
				g, _ = NewRandomK(n, speeds, rng)
				other, _ = NewRandomK(n, Speeds{3, 3, 2, 2, 1}[:k], rng)
			}
			if build == "before" {
				g.CellBits(0)
			}
			check := func(step int, what string) {
				t.Helper()
				for _, h := range []*Grid{g, other} {
					if err := h.Validate(); err != nil {
						t.Fatalf("n=%d k=%d build %s step %d (%s): %v", n, k, build, step, what, err)
					}
					for p := range Proc(k) {
						if got, want := h.EnclosingRect(p), scanRect(h, p); got != want {
							t.Fatalf("n=%d k=%d build %s step %d (%s): rect of %v = %v, scan %v", n, k, build, step, what, p, got, want)
						}
					}
				}
			}
			for step := 0; step < 40; step++ {
				if build == "during" && step == 20 {
					g.CellBits(Proc(k - 2))
					check(step, "build")
				}
				switch op := rng.Intn(7); op {
				case 0, 1: // Sets, then a rollback in reverse order
					type prior struct {
						i, j int
						p    Proc
					}
					var log []prior
					fp := g.Fingerprint()
					for m := 1 + rng.Intn(40); m > 0; m-- {
						i, j := rng.Intn(n), rng.Intn(n)
						if op == 1 { // near the edges, where words split
							i, j = n-1-rng.Intn(3), 62+rng.Intn(n-62)
						}
						log = append(log, prior{i, j, g.At(i, j)})
						g.Set(i, j, Proc(rng.Intn(k)))
					}
					check(step, "set")
					for x := len(log) - 1; x >= 0; x-- {
						g.Set(log[x].i, log[x].j, log[x].p)
					}
					if g.Fingerprint() != fp {
						t.Fatalf("n=%d k=%d build %s step %d: rollback did not restore the fingerprint", n, k, build, step)
					}
					check(step, "rollback")
				case 2:
					g.Reset()
					check(step, "reset")
				case 3:
					g.CopyFrom(other)
					check(step, "copy in")
				case 4:
					other.CopyFrom(g)
					check(step, "copy out")
				case 5:
					c := g.Clone()
					c.Set(rng.Intn(n), rng.Intn(n), Proc(rng.Intn(k)))
					if err := c.Validate(); err != nil {
						t.Fatalf("n=%d k=%d build %s step %d: clone: %v", n, k, build, step, err)
					}
					check(step, "clone")
				default: // the other grid gets its own cell bit sets
					other.CellBits(0)
					check(step, "build other")
				}
			}
		}
	}
}

// scanRect is EnclosingRect computed from the cells alone.
func scanRect(g *Grid, p Proc) geom.Rect {
	r := geom.EmptyRect
	for i := 0; i < g.N(); i++ {
		for j := 0; j < g.N(); j++ {
			if g.At(i, j) != p {
				continue
			}
			if r.IsEmpty() {
				r = geom.NewRect(i, j, i+1, j+1)
			} else {
				r = geom.NewRect(min(r.Top, i), min(r.Left, j), max(r.Bottom, i+1), max(r.Right, j+1))
			}
		}
	}
	return r
}

// TestFingerprintDiscriminates sanity-checks that the hash actually
// separates nearby states: flipping any single cell changes it, and
// flipping it back restores it.
func TestFingerprintDiscriminates(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 12
	g := NewRandom(n, MustRatio(2, 1, 1), rng)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			before := g.Fingerprint()
			old := g.At(i, j)
			g.Set(i, j, (old+1)%NumProcs)
			if g.Fingerprint() == before {
				t.Fatalf("fingerprint blind to cell (%d,%d)", i, j)
			}
			g.Set(i, j, old)
			if g.Fingerprint() != before {
				t.Fatalf("fingerprint not restored at (%d,%d)", i, j)
			}
		}
	}
}
