package partition

// This file breaks Eq 1's Volume of Communication down by ordered
// processor pair, the granularity a per-link cost model needs. A cell of
// p in row i is sent once to every *other* processor present in row i
// (its share of the A pivot row) and once to every other processor in its
// column (B pivot column); attributing each of those unicast sends to its
// receiver gives the directed volume
//
//	V[p][q] = Σ_i cnt_p(i)·[cnt_q(i) > 0] + Σ_j cnt_p(j)·[cnt_q(j) > 0]   (p ≠ q)
//
// with the row/column sums running over lines where both p and q appear.
// Row-summing recovers the per-processor send volumes (Σ_q V[p][q] =
// Sends[p]) and the grand total recovers VoC exactly — both are integer
// identities, not approximations, which the tests assert.

// PairVolumes returns the directed communication volumes V[from][to] in
// elements of a three-processor grid; it panics on any other processor
// count. The diagonal is zero. Cost is O(N·NumProcs²) using the grid's
// per-line occupancy counters — no cell scan.
func (g *Grid) PairVolumes() [NumProcs][NumProcs]int64 {
	g.mustBeThree("PairVolumes")
	var v [NumProcs][NumProcs]int64
	n := g.n
	for line := 0; line < n; line++ {
		rowBase := line * NumProcs
		for p := 0; p < NumProcs; p++ {
			if rc := g.rowCnt[rowBase+p]; rc > 0 {
				for q := 0; q < NumProcs; q++ {
					if q != p && g.rowCnt[rowBase+q] > 0 {
						v[p][q] += int64(rc)
					}
				}
			}
			if cc := g.colCnt[rowBase+p]; cc > 0 {
				for q := 0; q < NumProcs; q++ {
					if q != p && g.colCnt[rowBase+q] > 0 {
						v[p][q] += int64(cc)
					}
				}
			}
		}
	}
	return v
}
