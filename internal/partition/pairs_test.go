package partition

import (
	"math/rand"
	"testing"
)

// pairVolumesOracle recomputes V[p][q] by brute force over cells.
func pairVolumesOracle(g *Grid) [NumProcs][NumProcs]int64 {
	var v [NumProcs][NumProcs]int64
	n := g.N()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			p := g.At(i, j)
			for _, q := range Procs {
				if q == p {
					continue
				}
				if g.RowHas(i, q) {
					v[p][q]++
				}
				if g.ColHas(j, q) {
					v[p][q]++
				}
			}
		}
	}
	return v
}

// sendsOracle is the pre-PairVolumes Snapshot loop, kept as the reference
// for the per-processor send volumes.
func sendsOracle(g *Grid) [NumProcs]int64 {
	var sends [NumProcs]int64
	for i := 0; i < g.N(); i++ {
		rowOthers := int64(g.RowProcs(i) - 1)
		for j := 0; j < g.N(); j++ {
			p := g.At(i, j)
			sends[p] += rowOthers + int64(g.ColProcs(j)-1)
		}
	}
	return sends
}

func randomPairGrid(t *testing.T, rng *rand.Rand, n int) *Grid {
	t.Helper()
	g := NewGrid(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			g.Set(i, j, Procs[rng.Intn(NumProcs)])
		}
	}
	return g
}

func TestPairVolumesIdentities(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	grids := []*Grid{NewGrid(8)} // all-P: no communication at all
	for _, n := range []int{5, 16, 33} {
		grids = append(grids, randomPairGrid(t, rng, n))
	}
	for _, s := range AllShapes {
		if g, err := Build(s, 24, Ratio{Pr: 5, Rr: 2, Sr: 1}); err == nil {
			grids = append(grids, g)
		}
	}
	for gi, g := range grids {
		v := g.PairVolumes()
		want := pairVolumesOracle(g)
		if v != want {
			t.Fatalf("grid %d: PairVolumes = %v, oracle %v", gi, v, want)
		}
		var total int64
		var rowSums [NumProcs]int64
		for _, p := range Procs {
			if v[p][p] != 0 {
				t.Fatalf("grid %d: diagonal V[%v][%v] = %d, want 0", gi, p, p, v[p][p])
			}
			for _, q := range Procs {
				total += v[p][q]
				rowSums[p] += v[p][q]
			}
		}
		if total != g.VoC() {
			t.Fatalf("grid %d: ΣV = %d, VoC = %d", gi, total, g.VoC())
		}
		if rowSums != sendsOracle(g) {
			t.Fatalf("grid %d: row sums %v, sends oracle %v", gi, rowSums, sendsOracle(g))
		}
		snap := g.Snapshot()
		if snap.PairSends != v {
			t.Fatalf("grid %d: Snapshot.PairSends disagrees with PairVolumes", gi)
		}
		if snap.Sends != rowSums {
			t.Fatalf("grid %d: Snapshot.Sends %v, want %v", gi, snap.Sends, rowSums)
		}
	}
}
