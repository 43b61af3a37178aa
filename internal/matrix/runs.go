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
	ops := operands{n: a.n, a: a.data, b: b.data, bStride: a.n}
	return mulRuns(c.data, 0, ops, runs, kLo, kHi, mulRun, vectorTile())
}

// MulRunsLines is MulRuns on operands held as some of their lines, as
// the execution engine's workers hold them: C as a band of rows, A as
// some of its rows and B as some of its columns. n is len(aRow) and must
// equal len(bCol). c holds C's rows from row0 on, row-major at width n.
// a holds A's rows at width n, row i from a[aRow[i]·n]; b holds B's
// columns at row stride len(b)/n, column j of pivot row k at
// b[k·stride + bCol[j]]. A negative slot marks a line not held. Every
// run's row and columns must be held, and a run's columns must sit side
// by side in b, as they do when the slots rise with the line index; a
// run that breaks either rule panics. Four rows that sit side by side in
// a, as rows held in line order do, share the tile as in MulRuns, so the
// tile count and every cell are MulRuns' on the whole matrices. c must
// not share memory with a or b.
func MulRunsLines(c []float64, row0 int, a []float64, aRow []int32, b []float64, bCol []int32, runs []Run, kLo, kHi int) int {
	n := len(aRow)
	if len(bCol) != n {
		panic("matrix: dimension mismatch")
	}
	ops := operands{n: n, a: a, aRow: aRow, b: b, bCol: bCol}
	if n > 0 {
		ops.bStride = len(b) / n
	}
	return mulRuns(c, row0, ops, runs, kLo, kHi, mulRun, vectorTile())
}

// operands is where the kernels find A and B. A's row i is a[slot·n:]
// with slot aRow[i], B's pivot row k is b[k·bStride:] and its column j
// is at slot bCol[j]; a nil aRow or bCol holds every line at its own
// index.
type operands struct {
	n          int
	a, b       []float64
	aRow, bCol []int32
	bStride    int
}

func (o *operands) aSlot(i int) int {
	if o.aRow == nil {
		return i
	}
	return int(o.aRow[i])
}

func (o *operands) bSlot(j int) int {
	if o.bCol == nil {
		return j
	}
	return int(o.bCol[j])
}

// rowKernel is the one-row kernel: see mulRun.
type rowKernel func(crow, arow, bp []float64, stride int)

// tileKernel computes the full 8-column groups of a run w cells wide in
// four consecutive rows and returns how many columns it took. c starts
// at the first row's first cell of C, a at the first row's A[i][k0],
// both at row stride n; bp starts at the run's first column in B's row
// k0, at row stride bStride; kc is the chunk's pivot count. None of the
// four A rows may hold a ±0 in the chunk.
type tileKernel func(c, a, bp []float64, n, bStride, kc, w int) int

// mulRuns is MulRuns over C's rows from c0 on, held in c, with the
// operands as ops holds them and the one-row kernel and the tile kernel
// as parameters, so that tests can run the portable kernel alone (tile
// nil: every row runs alone) beside the dispatching ones.
func mulRuns(c []float64, c0 int, ops operands, runs []Run, kLo, kHi int, kernel rowKernel, tile tileKernel) (tiled int) {
	n := ops.n
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
		if r.J0 < r.J1 && (ops.aSlot(r.Row) < 0 || ops.bSlot(r.J0) < 0 || ops.bSlot(r.J1-1)-ops.bSlot(r.J0) != r.J1-1-r.J0) {
			panic("matrix: run outside the lines held")
		}
	}
	for k0 := kLo; k0 < kHi; k0 += PivotChunk {
		k1 := min(k0+PivotChunk, kHi)
		bp := ops.b[k0*ops.bStride:]
		one := func(r Run) {
			if r.J0 == r.J1 {
				return
			}
			row := ops.aSlot(r.Row) * n
			crow := c[(r.Row-c0)*n:]
			kernel(crow[r.J0:r.J1], ops.a[row+k0:row+k1], bp[ops.bSlot(r.J0):], ops.bStride)
		}
		for rest := runs; len(rest) > 0; {
			// rest[:span] is one row's runs, or four rows' when they
			// repeat; those four go to the tile unless a pivot is ±0 or
			// their A rows are not side by side.
			m := rowRuns(rest)
			span, i := m, rest[0].Row
			if tile != nil && repeatsBelow(rest, m) {
				span = 4 * m
				if ai := ops.aSlot(i); ai >= 0 && ops.aSlot(i+3) == ai+3 && !zeroPivot(ops.a[ai*n:], n, k0, k1) {
					for _, r := range rest[:m] {
						j := r.J0
						if r.J0 < r.J1 {
							j += tile(c[(i-c0)*n+r.J0:], ops.a[ai*n+k0:], bp[ops.bSlot(r.J0):], n, ops.bStride, k1-k0, r.J1-r.J0)
						}
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

// zeroPivot reports whether a, four A rows at stride n, holds a ±0 at
// pivots [k0, k1): the prescan that sends a tile's rows to the one-row
// kernel, which skips such pivots as MulKIJ does.
func zeroPivot(a []float64, n, k0, k1 int) bool {
	for r := 0; r < 4; r++ {
		for _, v := range a[r*n+k0 : r*n+k1] {
			if v == 0 {
				return true
			}
		}
	}
	return false
}

// mulRun adds Σ_t arow[t]·bp[t·stride + x] to crow[x] for every x in
// crow: crow is one run of C, arow is A's row cut to one pivot chunk and
// bp starts at the run's first column in the chunk's first row of B. The
// vector kernel takes the run's full 4-column groups where there is one;
// the portable kernel takes the rest.
func mulRun(crow, arow, bp []float64, stride int) {
	j := mulRunVector(crow, arow, bp, stride)
	mulRunGo(crow[j:], arow, bp[j:], stride)
}

// mulRunGo is mulRun in portable Go, the only kernel off amd64 and on
// CPUs without AVX. Full 8-column segments accumulate in registers; the
// last len(crow) mod 8 columns update C in place with MulKIJ's own
// statement, so they compile to MulKIJ's operand order and the columns
// the vector kernel leaves keep MulKIJ's NaN payloads too.
func mulRunGo(crow, arow, bp []float64, stride int) {
	j, j1 := 0, len(crow)
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
			off += stride
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
		brow := bp[t*stride+j : t*stride+j1]
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
