package matrix

// Run is one horizontal strip of C cells: row Row, columns [J0, J1). A
// set of disjoint runs describes an arbitrary region of C — a partition
// owner's cells, the part of them computable before an exchange lands,
// or one block task's cells — at a cost proportional to its row
// boundaries, not to n².
type Run struct {
	Row, J0, J1 int
}

// PivotChunk is how many pivots MulRuns applies per sweep over its runs:
// a chunk's PivotChunk rows of B stay in cache while every run passes
// over them. Callers that interleave other work with a multiply use the
// same step: the execution engine heartbeats and paces once per chunk,
// and the interleaved pipeline sends one chunk of pivot steps (a panel)
// ahead of the one it computes.
const PivotChunk = 64

// MulRuns computes C[i][j] += Σ_{k∈[kLo,kHi)} A[i][k]·B[k][j] for every
// cell of every run and touches no other cell of C. The runs must be
// disjoint. It returns how many cell updates (one per cell per pivot)
// went through the four-row tile; the rest went through the one-row
// kernel.
//
// Each cell adds its products in strictly ascending k, skipping zero
// A[i][k] exactly as MulKIJ does, so applying [0, n) — in one call or as
// consecutive sub-ranges — leaves every covered cell bit-identical to
// MulKIJ's. The kernels keep segments of C in register accumulators
// across a whole chunk of pivots. Where the CPU has AVX, a run that
// repeats with the same columns in the next three rows — each row's
// whole run list, in the order given, must repeat — has its full
// 8-column groups computed as 4×8 tiles, so four rows share each load of
// B; a tile is taken only if none of its four A rows holds a ±0 pivot in
// the chunk, since it skips none. Every other segment goes through the
// one-row kernel: 16, then 4, columns per segment in AVX registers, 8 in
// the portable Go kernel, which skips zero pivots per row. Every
// accumulator still receives its own cell's products one pivot at a
// time, each product and sum rounded alone, so the blocking changes
// which memory is read when, never the order of any cell's sum. Where
// two NaNs meet, Go leaves which payload survives to the compiler; the
// vector kernels keep the one MulKIJ's compiled code keeps.
func MulRuns(c, a, b *Dense, runs []Run, kLo, kHi int) int {
	checkTriple(c, a, b)
	return mulRuns(c.data, 0, a, b, runs, kLo, kHi, mulRun, vectorTile())
}

// MulRunsBand is MulRuns with C held as a band of rows: c holds C's rows
// from row0 on, row-major at A's width, and every run must lie in those
// rows. c must not share memory with A or B.
func MulRunsBand(c []float64, row0 int, a, b *Dense, runs []Run, kLo, kHi int) int {
	if a.n != b.n {
		panic("matrix: dimension mismatch")
	}
	return mulRuns(c, row0, a, b, runs, kLo, kHi, mulRun, vectorTile())
}

// rowKernel is the one-row kernel: see mulRun.
type rowKernel func(crow, arow, bp []float64, n, j0, j1 int)

// tileKernel computes the full 8-column groups of columns [j0, j1) in
// four consecutive rows and returns the first column it left. c starts
// at the first row of C, a at the first row's A[i][k0], bp at B's row
// k0; all three have row stride n, and kc is the chunk's pivot count.
// None of the four A rows may hold a ±0 in the chunk.
type tileKernel func(c, a, bp []float64, n, kc, j0, j1 int) int

// mulRuns is MulRuns over C's rows from c0 on, held in c, with the
// one-row kernel and the tile kernel as parameters, so that tests can
// run the portable kernel alone (tile nil: every row runs alone) beside
// the dispatching ones.
func mulRuns(c []float64, c0 int, a, b *Dense, runs []Run, kLo, kHi int, kernel rowKernel, tile tileKernel) (tiled int) {
	n := a.n
	if kLo < 0 || kHi > n || kLo > kHi {
		panic("matrix: pivot range out of bounds")
	}
	rows := 0
	if n > 0 {
		rows = len(c) / n
	}
	for _, r := range runs {
		if r.Row < max(c0, 0) || r.Row >= min(c0+rows, n) || r.J0 < 0 || r.J1 > n || r.J0 > r.J1 {
			panic("matrix: run out of bounds")
		}
	}
	for k0 := kLo; k0 < kHi; k0 += PivotChunk {
		k1 := min(k0+PivotChunk, kHi)
		bp := b.data[k0*n:]
		one := func(r Run) {
			row := r.Row * n
			crow := c[(r.Row-c0)*n:]
			kernel(crow[:n], a.data[row+k0:row+k1], bp, n, r.J0, r.J1)
		}
		for rest := runs; len(rest) > 0; {
			// rest[:span] is one row's runs, or four rows' when they
			// repeat; those four go to the tile unless a pivot is ±0.
			m := rowRuns(rest)
			span, i := m, rest[0].Row
			if tile != nil && repeatsBelow(rest, m) {
				span = 4 * m
				if !zeroPivot(a, i, k0, k1) {
					for _, r := range rest[:m] {
						j := tile(c[(i-c0)*n:], a.data[i*n+k0:], bp, n, k1-k0, r.J0, r.J1)
						tiled += 4 * (j - r.J0) * (k1 - k0)
						for d := range 4 {
							one(Run{Row: i + d, J0: j, J1: r.J1})
						}
					}
					rest = rest[span:]
					continue
				}
			}
			for _, r := range rest[:span] {
				one(r)
			}
			rest = rest[span:]
		}
	}
	return tiled
}

// rowRuns returns how many runs at the head of runs share its first
// run's row.
func rowRuns(runs []Run) int {
	m := 1
	for m < len(runs) && runs[m].Row == runs[0].Row {
		m++
	}
	return m
}

// repeatsBelow reports whether the m runs at the head of runs, one row's
// runs, are followed by the same columns in each of the next three rows,
// m runs per row.
func repeatsBelow(runs []Run, m int) bool {
	if len(runs) < 4*m {
		return false
	}
	for d := 1; d < 4; d++ {
		for x, r := range runs[:m] {
			if runs[d*m+x] != (Run{Row: r.Row + d, J0: r.J0, J1: r.J1}) {
				return false
			}
		}
	}
	return true
}

// zeroPivot reports whether A holds a ±0 in rows [i, i+4) at pivots
// [k0, k1): the prescan that sends a tile's rows to the one-row kernel,
// which skips such pivots as MulKIJ does.
func zeroPivot(a *Dense, i, k0, k1 int) bool {
	for r := i; r < i+4; r++ {
		for _, v := range a.data[r*a.n+k0 : r*a.n+k1] {
			if v == 0 {
				return true
			}
		}
	}
	return false
}

// mulRun adds Σ_t arow[t]·bp[t·n + j] to crow[j] for j in [j0, j1): arow
// is A's row cut to one pivot chunk and bp starts at the chunk's first
// row of B. The vector kernel takes the run's full 4-column groups where
// there is one; the portable kernel takes the rest.
func mulRun(crow, arow, bp []float64, n, j0, j1 int) {
	j0 = mulRunVector(crow, arow, bp, n, j0, j1)
	mulRunGo(crow, arow, bp, n, j0, j1)
}

// mulRunGo is mulRun in portable Go, the only kernel off amd64 and on
// CPUs without AVX. Full 8-column segments accumulate in registers; the
// last j1−j0 mod 8 columns update C in place with MulKIJ's own
// statement, so they compile to MulKIJ's operand order and the columns
// the vector kernel leaves keep MulKIJ's NaN payloads too.
func mulRunGo(crow, arow, bp []float64, n, j0, j1 int) {
	j := j0
	for ; j+8 <= j1; j += 8 {
		cs := crow[j : j+8 : j+8]
		c0, c1, c2, c3 := cs[0], cs[1], cs[2], cs[3]
		c4, c5, c6, c7 := cs[4], cs[5], cs[6], cs[7]
		off := j
		for _, aik := range arow {
			if aik != 0 {
				bs := bp[off : off+8 : off+8]
				c0 += aik * bs[0]
				c1 += aik * bs[1]
				c2 += aik * bs[2]
				c3 += aik * bs[3]
				c4 += aik * bs[4]
				c5 += aik * bs[5]
				c6 += aik * bs[6]
				c7 += aik * bs[7]
			}
			off += n
		}
		cs[0], cs[1], cs[2], cs[3] = c0, c1, c2, c3
		cs[4], cs[5], cs[6], cs[7] = c4, c5, c6, c7
	}
	if j == j1 {
		return // no tail: skip the pivot loop over an empty one
	}
	tail := crow[j:j1]
	for t, aik := range arow {
		if aik == 0 {
			continue
		}
		brow := bp[t*n+j : t*n+j1]
		for x := range tail {
			tail[x] += aik * brow[x]
		}
	}
}

// MaskRuns returns the row runs of a row-major n×n mask's true cells.
func MaskRuns(mask []bool, n int) []Run {
	var runs []Run
	for i := 0; i < n; i++ {
		row := mask[i*n : (i+1)*n]
		for j := 0; j < n; {
			if !row[j] {
				j++
				continue
			}
			j0 := j
			for j < n && row[j] {
				j++
			}
			runs = append(runs, Run{Row: i, J0: j0, J1: j})
		}
	}
	return runs
}

// CellRuns groups distinct row-major cell indices of an n×n matrix into
// row runs, merging each index into the previous run when it directly
// follows it in the same row. Ascending indices give the fewest runs.
func CellRuns(cells []int32, n int) []Run {
	var runs []Run
	for _, idx := range cells {
		i, j := int(idx)/n, int(idx)%n
		if m := len(runs) - 1; m >= 0 && runs[m].Row == i && runs[m].J1 == j {
			runs[m].J1++
			continue
		}
		runs = append(runs, Run{Row: i, J0: j, J1: j + 1})
	}
	return runs
}
