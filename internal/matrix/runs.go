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
// disjoint.
//
// Each cell adds its products in strictly ascending k, skipping zero
// A[i][k] exactly as MulKIJ does, so applying [0, n) — in one call or as
// consecutive sub-ranges — leaves every covered cell bit-identical to
// MulKIJ's. The kernel keeps a segment of a run in register
// accumulators across a whole chunk of pivots — 16, then 4, columns per
// segment in AVX registers where the CPU has them, 8 in the portable Go
// kernel: every accumulator still receives its own cell's products one
// pivot at a time, each product and sum rounded alone, so the blocking
// changes which memory is read when, never the order of any cell's sum.
// Where two NaNs meet, Go leaves which payload survives to the compiler;
// the vector kernel keeps the one MulKIJ's compiled code keeps.
func MulRuns(c, a, b *Dense, runs []Run, kLo, kHi int) {
	mulRuns(c, a, b, runs, kLo, kHi, mulRun)
}

// mulRuns is MulRuns with the per-run kernel as a parameter, so that
// tests can run the portable kernel alone beside the dispatching one.
func mulRuns(c, a, b *Dense, runs []Run, kLo, kHi int, kernel func(crow, arow, bp []float64, n, j0, j1 int)) {
	checkTriple(c, a, b)
	n := a.n
	if kLo < 0 || kHi > n || kLo > kHi {
		panic("matrix: pivot range out of bounds")
	}
	for _, r := range runs {
		if r.Row < 0 || r.Row >= n || r.J0 < 0 || r.J1 > n || r.J0 > r.J1 {
			panic("matrix: run out of bounds")
		}
	}
	for k0 := kLo; k0 < kHi; k0 += PivotChunk {
		k1 := min(k0+PivotChunk, kHi)
		bp := b.data[k0*n:]
		for _, r := range runs {
			row := r.Row * n
			kernel(c.data[row:row+n], a.data[row+k0:row+k1], bp, n, r.J0, r.J1)
		}
	}
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
