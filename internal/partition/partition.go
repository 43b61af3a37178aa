// Package partition implements the data-partition grid at the heart of the
// paper: the assignment q(i,j) ∈ {R, S, P} of every element of an N×N
// matrix to one of three heterogeneous processors, together with the
// communication metrics the Push operation and the performance models are
// defined over — per-row/per-column processor occupancy, the Volume of
// Communication (Eq 1), enclosing rectangles, and the candidate canonical
// shapes of Section IX. The same grid holds a partition over any number K
// of processors, 2 ≤ K ≤ MaxProcs, for the §XI extension.
package partition

import (
	"fmt"
	"hash/fnv"
	"math/bits"
	"slices"

	"repro/internal/geom"
)

// Proc identifies one of the heterogeneous processors. The numeric
// values follow the paper's partition function q (Section IV):
// q = 0 for R, 1 for S, 2 for P. A grid of K processors numbers its
// slower processors 0…K−2 in decreasing speed and its fastest K−1, so at
// K=3 the fastest is P.
type Proc uint8

const (
	// R is the middle-speed processor (ratio Rr).
	R Proc = 0
	// S is the slowest processor (ratio Sr = 1).
	S Proc = 1
	// P is the fastest processor (ratio Pr ≥ Rr ≥ Sr).
	P Proc = 2
	// NumProcs is the number of processors in the three-processor study.
	NumProcs = 3
	// MaxProcs bounds the processor count of a grid.
	MaxProcs = 10
)

// Procs lists all processors in q-value order.
var Procs = [NumProcs]Proc{R, S, P}

func (p Proc) String() string {
	switch p {
	case R:
		return "R"
	case S:
		return "S"
	case P:
		return "P"
	}
	return fmt.Sprintf("Proc(%d)", uint8(p))
}

// Valid reports whether p is one of R, S, P.
func (p Proc) Valid() bool { return p < NumProcs }

// Grid is a concrete partition shape: the assignment of every cell of an
// n×n matrix to one of k processors, with occupancy counters maintained
// incrementally so that the Volume of Communication (Eq 1) and the
// per-processor communication metrics are O(1) to read and O(1) to update
// per cell mutation. The per-processor arrays hold k entries.
//
// The bit sets below hold bit x at bit x%64 of word x/64. A set over the
// rows, over the columns, or over the cells of one line is ⌈n/64⌉ words.
type Grid struct {
	n, k  int
	cells []Proc
	// rowCnt[i*k+p] = number of cells of processor p in row i.
	rowCnt []int32
	colCnt []int32
	// rowProcs[i] has bit p set iff row i holds a cell of p; its popcount
	// is c_i in Eq 1. colProcs likewise for columns.
	rowProcs []uint16
	colProcs []uint16
	total    [MaxProcs]int
	// rowsWith[p] = number of rows containing at least one cell of p (i_X).
	rowsWith [MaxProcs]int
	colsWith [MaxProcs]int
	// voc is Eq 1 divided by N: Σ_i (c_i − 1) + Σ_j (c_j − 1).
	voc int
	// fp is the incrementally maintained Zobrist fingerprint: the XOR of
	// zobristKey(idx, cells[idx]) over every cell, updated in O(1) by Set.
	fp uint64
	// baseFP is fp for the all-fastest start state, cached so Reset is
	// alloc- and hash-free.
	baseFP uint64
	// words is the length of one bit set, ⌈n/64⌉.
	words int
	// rowBits[p·words:(p+1)·words] has bit i set iff row i holds a cell of
	// p; colBits likewise for columns. Set updates them only where a line
	// count goes 0↔1, so EnclosingRect reads 2⌈n/64⌉ words instead of 2n
	// counters.
	rowBits, colBits []uint64
	// cellRows[p][i·words:(i+1)·words] has bit j set iff cell (i, j) holds
	// p, and cellCols[p][j·words:(j+1)·words] has bit i set likewise. They
	// exist for every processor but the fastest, whose cells are the
	// complement of the others', and only once CellBits has built them
	// (cellBits); Set keeps them current from then on. Building them lazily
	// keeps the cost off the shape builds that never search.
	cellRows, cellCols [MaxProcs][]uint64
	cellBits           bool
}

// zobristKey returns the 64-bit Zobrist key for (cell index, processor)
// on a grid of k processors. Rather than storing an n²×k key table per
// grid size, keys are computed on demand with the splitmix64 finalizer
// over the pair's ordinal — a few arithmetic ops, no memory, and
// identical keys for every grid of every size, so fingerprints of
// equal-size grids with equal assignments always agree.
func zobristKey(idx, k int, p Proc) uint64 {
	x := (uint64(idx)*uint64(k) + uint64(p) + 1) * 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// NewGrid returns an n×n three-processor grid entirely assigned to
// processor P — the start state of the paper's randomised initialisation
// (Section VI-A.2).
func NewGrid(n int) *Grid { return NewGridK(n, NumProcs) }

// NewGridK returns an n×n grid of k processors, 2 ≤ k ≤ MaxProcs, entirely
// assigned to the fastest, Proc(k−1).
func NewGridK(n, k int) *Grid {
	if n <= 0 {
		panic("partition: grid size must be positive")
	}
	if k < 2 || k > MaxProcs {
		panic(fmt.Sprintf("partition: processor count %d outside [2, %d]", k, MaxProcs))
	}
	words := (n + 63) / 64
	g := &Grid{
		n:        n,
		k:        k,
		cells:    make([]Proc, n*n),
		rowCnt:   make([]int32, n*k),
		colCnt:   make([]int32, n*k),
		rowProcs: make([]uint16, n),
		colProcs: make([]uint16, n),
		words:    words,
		rowBits:  make([]uint64, k*words),
		colBits:  make([]uint64, k*words),
	}
	f := g.Fastest()
	var fp uint64
	for i := range g.cells {
		g.cells[i] = f
		fp ^= zobristKey(i, k, f)
	}
	g.baseFP = fp
	g.countAllFastest()
	return g
}

// Reset returns the grid to the all-fastest start state of NewGridK
// without allocating, so pooled grids can be reused across search runs.
func (g *Grid) Reset() {
	f := g.Fastest()
	for i := range g.cells {
		g.cells[i] = f
	}
	clear(g.rowCnt)
	clear(g.colCnt)
	clear(g.rowBits)
	clear(g.colBits)
	for p := range g.k { // no-ops while the cell bit sets are unbuilt
		clear(g.cellRows[p])
		clear(g.cellCols[p])
	}
	g.countAllFastest()
}

// countAllFastest sets the counters, line bit sets and fingerprint of a
// grid whose every cell holds the fastest processor, over line counts and
// line bit sets that are all zero.
func (g *Grid) countAllFastest() {
	n, f := g.n, int(g.Fastest())
	for i := 0; i < n; i++ {
		g.rowCnt[i*g.k+f] = int32(n)
		g.colCnt[i*g.k+f] = int32(n)
		g.rowProcs[i] = 1 << f
		g.colProcs[i] = 1 << f
		setBit(g.rowBits[f*g.words:], i)
		setBit(g.colBits[f*g.words:], i)
	}
	g.total = [MaxProcs]int{}
	g.rowsWith = [MaxProcs]int{}
	g.colsWith = [MaxProcs]int{}
	g.total[f] = n * n
	g.rowsWith[f] = n
	g.colsWith[f] = n
	g.voc = 0
	g.fp = g.baseFP
}

// CopyFrom overwrites g with src's assignment and counters without
// allocating. The two grids must have the same dimension and processor
// count.
func (g *Grid) CopyFrom(src *Grid) {
	if g.n != src.n || g.k != src.k {
		panic(fmt.Sprintf("partition: CopyFrom of a %d×%d grid of %d processors into a %d×%d grid of %d",
			src.n, src.n, src.k, g.n, g.n, g.k))
	}
	copy(g.cells, src.cells)
	copy(g.rowCnt, src.rowCnt)
	copy(g.colCnt, src.colCnt)
	copy(g.rowProcs, src.rowProcs)
	copy(g.colProcs, src.colProcs)
	g.total = src.total
	g.rowsWith = src.rowsWith
	g.colsWith = src.colsWith
	g.voc = src.voc
	g.fp = src.fp
	copy(g.rowBits, src.rowBits)
	copy(g.colBits, src.colBits)
	if g.cellBits {
		g.fillCellBits()
	}
}

// N returns the matrix dimension.
func (g *Grid) N() int { return g.n }

// K returns the processor count.
func (g *Grid) K() int { return g.k }

// Fastest returns the fastest processor, Proc(K−1): P on a
// three-processor grid.
func (g *Grid) Fastest() Proc { return Proc(g.k - 1) }

// At returns the processor assigned to cell (i, j).
func (g *Grid) At(i, j int) Proc { return g.cells[i*g.n+j] }

// AtIndex returns the processor assigned to the cell with row-major index
// idx = i·N + j, for hot loops that walk row-major indices instead of
// coordinates.
func (g *Grid) AtIndex(idx int) Proc { return g.cells[idx] }

// Raw exposes the grid's internal cell and counter slices for READ-ONLY
// use by hot loops: cells is row-major (idx = i·N + j) and the counters
// are indexed [line·K + proc] as documented on Grid. All mutation
// must still go through Set — writing these slices directly desynchronises
// every derived counter and the fingerprint. The slices stay valid (same
// backing arrays) across Set/Reset/CopyFrom.
func (g *Grid) Raw() (cells []Proc, rowCnt, colCnt []int32) {
	return g.cells, g.rowCnt, g.colCnt
}

// LineProcs exposes the lines' processor sets for READ-ONLY use by hot
// loops: bit p of rows[i] is set iff row i holds a cell of p, and of
// cols[j] iff column j does. Like Raw, the slices stay valid across
// Set/Reset/CopyFrom.
func (g *Grid) LineProcs() (rows, cols []uint16) { return g.rowProcs, g.colProcs }

// LineBits exposes p's line bit sets for READ-ONLY use by hot loops: rows
// has bit i set iff row i holds a cell of p, cols bit j iff column j does.
// Like Raw, the slices stay valid across Set/Reset/CopyFrom.
func (g *Grid) LineBits(p Proc) (rows, cols []uint64) {
	w := g.words
	return g.rowBits[int(p)*w : (int(p)+1)*w], g.colBits[int(p)*w : (int(p)+1)*w]
}

// CellBits exposes p's cells as bit sets for READ-ONLY use by hot loops:
// byRow[i·W+j/64] has bit j%64 set iff cell (i, j) holds p, and
// byCol[j·W+i/64] has bit i%64 set likewise, where W = ⌈N/64⌉. p must not
// be the fastest processor, whose cells are the complement of the others'.
// The first call builds the bit sets of every processor in O(N²) and Set
// keeps them current from then on, so unlike the other accessors that
// first call writes the grid: make it only on a grid no one else reads
// concurrently. The slices stay valid across Set/Reset/CopyFrom.
func (g *Grid) CellBits(p Proc) (byRow, byCol []uint64) {
	if int(p) >= g.k-1 {
		panic(fmt.Sprintf("partition: CellBits of %v on a grid of %d processors", p, g.k))
	}
	if !g.cellBits {
		for q := range g.k - 1 {
			g.cellRows[q] = make([]uint64, g.n*g.words)
			g.cellCols[q] = make([]uint64, g.n*g.words)
		}
		g.cellBits = true
		g.fillCellBits()
	}
	return g.cellRows[p], g.cellCols[p]
}

// fillCellBits rebuilds the cell bit sets from the cells.
func (g *Grid) fillCellBits() {
	for p := range g.k {
		clear(g.cellRows[p])
		clear(g.cellCols[p])
	}
	for i := 0; i < g.n; i++ {
		for j, p := range g.cells[i*g.n : (i+1)*g.n] {
			g.flipCellBit(i, j, p)
		}
	}
}

// flipCellBit toggles cell (i, j) in p's cell bit sets; the fastest
// processor has none.
func (g *Grid) flipCellBit(i, j int, p Proc) {
	rows, cols := g.cellRows[p], g.cellCols[p]
	if rows == nil {
		return
	}
	rows[i*g.words+j>>6] ^= 1 << (j & 63)
	cols[j*g.words+i>>6] ^= 1 << (i & 63)
}

func setBit(set []uint64, k int)   { set[k>>6] |= 1 << (k & 63) }
func clearBit(set []uint64, k int) { set[k>>6] &^= 1 << (k & 63) }

// Set assigns cell (i, j) to processor p, updating all occupancy counters
// in O(1).
func (g *Grid) Set(i, j int, p Proc) {
	k := g.k
	if int(p) >= k {
		panic("partition: invalid processor")
	}
	idx := i*g.n + j
	old := g.cells[idx]
	if old == p {
		return
	}
	g.cells[idx] = p
	g.fp ^= zobristKey(idx, k, old) ^ zobristKey(idx, k, p)
	g.total[old]--
	g.total[p]++
	if g.cellBits {
		g.flipCellBit(i, j, old)
		g.flipCellBit(i, j, p)
	}

	w := g.words
	ro := i*k + int(old)
	rn := i*k + int(p)
	g.rowCnt[ro]--
	if g.rowCnt[ro] == 0 {
		g.rowProcs[i] &^= 1 << old
		g.voc--
		g.rowsWith[old]--
		clearBit(g.rowBits[int(old)*w:], i)
	}
	if g.rowCnt[rn] == 0 {
		g.rowProcs[i] |= 1 << p
		g.voc++
		g.rowsWith[p]++
		setBit(g.rowBits[int(p)*w:], i)
	}
	g.rowCnt[rn]++

	co := j*k + int(old)
	cn := j*k + int(p)
	g.colCnt[co]--
	if g.colCnt[co] == 0 {
		g.colProcs[j] &^= 1 << old
		g.voc--
		g.colsWith[old]--
		clearBit(g.colBits[int(old)*w:], j)
	}
	if g.colCnt[cn] == 0 {
		g.colProcs[j] |= 1 << p
		g.voc++
		g.colsWith[p]++
		setBit(g.colBits[int(p)*w:], j)
	}
	g.colCnt[cn]++
}

// Swap exchanges the processors of cells a and b.
func (g *Grid) Swap(ai, aj, bi, bj int) {
	pa := g.At(ai, aj)
	pb := g.At(bi, bj)
	g.Set(ai, aj, pb)
	g.Set(bi, bj, pa)
}

// Count returns ∈p — the number of cells assigned to p.
func (g *Grid) Count(p Proc) int { return g.total[p] }

// RowCount returns the number of cells of p in row i.
func (g *Grid) RowCount(i int, p Proc) int { return int(g.rowCnt[i*g.k+int(p)]) }

// ColCount returns the number of cells of p in column j.
func (g *Grid) ColCount(j int, p Proc) int { return int(g.colCnt[j*g.k+int(p)]) }

// RowHas reports whether row i contains any cell of p — the paper's
// row(q, i, X) metric (Section VI-B).
func (g *Grid) RowHas(i int, p Proc) bool { return g.rowCnt[i*g.k+int(p)] > 0 }

// ColHas reports whether column j contains any cell of p — col(q, j, X).
func (g *Grid) ColHas(j int, p Proc) bool { return g.colCnt[j*g.k+int(p)] > 0 }

// RowProcs returns c_i — the number of distinct processors in row i.
func (g *Grid) RowProcs(i int) int { return bits.OnesCount16(g.rowProcs[i]) }

// ColProcs returns c_j — the number of distinct processors in column j.
func (g *Grid) ColProcs(j int) int { return bits.OnesCount16(g.colProcs[j]) }

// RowsWith returns i_X — the number of rows containing elements of p
// (Eq 6).
func (g *Grid) RowsWith(p Proc) int { return g.rowsWith[p] }

// ColsWith returns j_X — the number of columns containing elements of p.
func (g *Grid) ColsWith(p Proc) int { return g.colsWith[p] }

// VoC returns the Volume of Communication of Eq 1 in elements:
//
//	VoC = Σ_i N(c_i − 1) + Σ_j N(c_j − 1)
//
// maintained incrementally, so this is O(1).
func (g *Grid) VoC() int64 { return int64(g.voc) * int64(g.n) }

// VoCRows returns only the row term of Eq 1 divided by N: Σ_i (c_i − 1).
func (g *Grid) VoCRows() int {
	s := 0
	for i := 0; i < g.n; i++ {
		s += g.RowProcs(i) - 1
	}
	return s
}

// VoCCols returns only the column term of Eq 1 divided by N.
func (g *Grid) VoCCols() int {
	s := 0
	for j := 0; j < g.n; j++ {
		s += g.ColProcs(j) - 1
	}
	return s
}

// EnclosingRect returns processor p's enclosing rectangle: the smallest
// rectangle strictly large enough to encompass all of p's cells
// (Section II). Returns the empty rectangle when p owns no cells. It only
// reads the grid, so cached grids may serve it concurrently.
func (g *Grid) EnclosingRect(p Proc) geom.Rect {
	if g.total[p] == 0 {
		return geom.EmptyRect
	}
	rows, cols := g.LineBits(p)
	top, bottom := bitSpan(rows)
	left, right := bitSpan(cols)
	return geom.NewRect(top, left, bottom, right)
}

// bitSpan returns the lowest set bit of a non-empty bit set and one past
// the highest.
func bitSpan(set []uint64) (lo, hi int) {
	w := 0
	for set[w] == 0 {
		w++
	}
	lo = w*64 + bits.TrailingZeros64(set[w])
	w = len(set) - 1
	for set[w] == 0 {
		w--
	}
	return lo, w*64 + 64 - bits.LeadingZeros64(set[w])
}

// Clone returns a deep copy of the grid. The copy's cell bit sets stay
// unbuilt until CellBits is called on it.
func (g *Grid) Clone() *Grid {
	c := &Grid{
		n:        g.n,
		k:        g.k,
		cells:    append([]Proc(nil), g.cells...),
		rowCnt:   append([]int32(nil), g.rowCnt...),
		colCnt:   append([]int32(nil), g.colCnt...),
		rowProcs: append([]uint16(nil), g.rowProcs...),
		colProcs: append([]uint16(nil), g.colProcs...),
		total:    g.total,
		rowsWith: g.rowsWith,
		colsWith: g.colsWith,
		voc:      g.voc,
		fp:       g.fp,
		baseFP:   g.baseFP,
		words:    g.words,
		rowBits:  append([]uint64(nil), g.rowBits...),
		colBits:  append([]uint64(nil), g.colBits...),
	}
	return c
}

// Equal reports whether two grids hold identical cell assignments over
// the same processor count.
func (g *Grid) Equal(o *Grid) bool {
	if g.n != o.n || g.k != o.k {
		return false
	}
	for i, v := range g.cells {
		if v != o.cells[i] {
			return false
		}
	}
	return true
}

// Fingerprint returns the 64-bit Zobrist hash of the cell assignment, used
// by the DFA runner to detect cycles among VoC-plateau states. The hash is
// maintained incrementally by Set, so this is O(1) — no cell scan.
func (g *Grid) Fingerprint() uint64 { return g.fp }

// FingerprintRescan recomputes the Zobrist hash from the raw cells in
// O(N²). It is the slow oracle the property tests compare the incremental
// Fingerprint against after random mutation/rollback sequences.
func (g *Grid) FingerprintRescan() uint64 {
	var fp uint64
	for i, p := range g.cells {
		fp ^= zobristKey(i, g.k, p)
	}
	return fp
}

// FingerprintFNV is the pre-Zobrist content hash (FNV-1a over the cell
// bytes), kept as an independent slow reference: two grids with equal
// assignments must agree under both hash families.
func (g *Grid) FingerprintFNV() uint64 {
	h := fnv.New64a()
	buf := make([]byte, len(g.cells))
	for i, p := range g.cells {
		buf[i] = byte(p)
	}
	h.Write(buf)
	return h.Sum64()
}

// Transpose returns a new grid with rows and columns exchanged:
// q'(i,j) = q(j,i). The Volume of Communication is invariant under
// transposition (Eq 1 is symmetric in rows and columns), which tests use
// to validate the Push engine's direction views.
func (g *Grid) Transpose() *Grid {
	t := NewGridK(g.n, g.k)
	for i := 0; i < g.n; i++ {
		for j := 0; j < g.n; j++ {
			t.Set(j, i, g.At(i, j))
		}
	}
	return t
}

// FillRect assigns every cell of r to p.
func (g *Grid) FillRect(r geom.Rect, p Proc) {
	for i := r.Top; i < r.Bottom; i++ {
		for j := r.Left; j < r.Right; j++ {
			g.Set(i, j, p)
		}
	}
}

// OverlapCount returns the number of p's cells (i, j) such that processor p
// owns the entire row i and the entire column j — the elements computable
// with no communication at all, which the bulk-overlap algorithms (SCO,
// PCO) compute while communication is in flight.
func (g *Grid) OverlapCount(p Proc) int {
	n := g.n
	fullCols := make([]bool, n)
	anyFull := false
	for j := 0; j < n; j++ {
		if g.ColCount(j, p) == n {
			fullCols[j] = true
			anyFull = true
		}
	}
	if !anyFull {
		return 0
	}
	count := 0
	for i := 0; i < n; i++ {
		if g.RowCount(i, p) != n {
			continue
		}
		for j := 0; j < n; j++ {
			if fullCols[j] {
				count++
			}
		}
	}
	return count
}

// Validate recomputes every counter from the raw cells and reports the
// first inconsistency found. It is the integrity oracle used by tests and
// failure-injection checks; a healthy grid always returns nil.
func (g *Grid) Validate() error {
	n, k := g.n, g.k
	var total [MaxProcs]int
	rowCnt := make([]int32, n*k)
	colCnt := make([]int32, n*k)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			p := g.cells[i*n+j]
			if int(p) >= k {
				return fmt.Errorf("cell (%d,%d) holds invalid processor %d", i, j, p)
			}
			total[p]++
			rowCnt[i*k+int(p)]++
			colCnt[j*k+int(p)]++
		}
	}
	if total != g.total {
		return fmt.Errorf("total counts drifted: cached %v, actual %v", g.total[:k], total[:k])
	}
	voc := 0
	var rowsWith, colsWith [MaxProcs]int
	for i := 0; i < n; i++ {
		var procs uint16
		for p := 0; p < k; p++ {
			if rowCnt[i*k+p] != g.rowCnt[i*k+p] {
				return fmt.Errorf("row %d count for %v drifted", i, Proc(p))
			}
			if rowCnt[i*k+p] > 0 {
				procs |= 1 << p
				rowsWith[p]++
			}
		}
		if procs != g.rowProcs[i] {
			return fmt.Errorf("row %d processor set drifted: cached %b, actual %b", i, g.rowProcs[i], procs)
		}
		voc += bits.OnesCount16(procs) - 1
	}
	for j := 0; j < n; j++ {
		var procs uint16
		for p := 0; p < k; p++ {
			if colCnt[j*k+p] != g.colCnt[j*k+p] {
				return fmt.Errorf("col %d count for %v drifted", j, Proc(p))
			}
			if colCnt[j*k+p] > 0 {
				procs |= 1 << p
				colsWith[p]++
			}
		}
		if procs != g.colProcs[j] {
			return fmt.Errorf("col %d processor set drifted: cached %b, actual %b", j, g.colProcs[j], procs)
		}
		voc += bits.OnesCount16(procs) - 1
	}
	if voc != g.voc {
		return fmt.Errorf("VoC drifted: cached %d, actual %d", g.voc, voc)
	}
	if rowsWith != g.rowsWith {
		return fmt.Errorf("rowsWith drifted: cached %v, actual %v", g.rowsWith[:k], rowsWith[:k])
	}
	if colsWith != g.colsWith {
		return fmt.Errorf("colsWith drifted: cached %v, actual %v", g.colsWith[:k], colsWith[:k])
	}
	if fp := g.FingerprintRescan(); fp != g.fp {
		return fmt.Errorf("fingerprint drifted: cached %#x, rescan %#x", g.fp, fp)
	}
	w := g.words
	for p := range Proc(k) {
		wantRows, wantCols := make([]uint64, w), make([]uint64, w)
		for x := 0; x < n; x++ {
			if rowCnt[x*k+int(p)] > 0 {
				setBit(wantRows, x)
			}
			if colCnt[x*k+int(p)] > 0 {
				setBit(wantCols, x)
			}
		}
		rows, cols := g.LineBits(p)
		if !slices.Equal(rows, wantRows) || !slices.Equal(cols, wantCols) {
			return fmt.Errorf("line bit sets of %v drifted from its line counts", p)
		}
		if !g.cellBits || p == g.Fastest() {
			continue
		}
		byRow, byCol := make([]uint64, n*w), make([]uint64, n*w)
		for idx, q := range g.cells {
			if q == p {
				i, j := idx/n, idx%n
				setBit(byRow[i*w:], j)
				setBit(byCol[j*w:], i)
			}
		}
		if !slices.Equal(g.cellRows[p], byRow) || !slices.Equal(g.cellCols[p], byCol) {
			return fmt.Errorf("cell bit sets of %v drifted from the cells", p)
		}
	}
	return nil
}

// Metrics is a snapshot of the per-processor quantities the performance
// models of Section IV-B consume.
type Metrics struct {
	N int
	// Elements[p] is ∈p.
	Elements [NumProcs]int
	// Rows[p] is i_p, Cols[p] is j_p (rows/cols containing p).
	Rows, Cols [NumProcs]int
	// Overlap[p] counts p's cells in fully-p rows and columns.
	Overlap [NumProcs]int
	// Sends[p] counts the elements p must send, unicast: each cell of p
	// is sent once per *other* processor present in its row (A data) and
	// once per other processor in its column (B data), i.e. the cell
	// contributes (c_i − 1) + (c_j − 1). Summed over processors this
	// equals Eq 1's VoC exactly, and it is zero when p is alone. It is
	// the exact quantity the paper's d_X (Eq 6) approximates.
	Sends [NumProcs]int64
	// PairSends[p][q] splits Sends[p] by receiver (see PairVolumes):
	// Σ_q PairSends[p][q] == Sends[p] and the grand total is VoC, both
	// exact integer identities.
	PairSends [NumProcs][NumProcs]int64
	// VoC is Eq 1 in elements.
	VoC int64
}

// Snapshot gathers the model inputs from a three-processor grid; it
// panics on any other processor count, which the models do not cover.
func (g *Grid) Snapshot() Metrics {
	g.mustBeThree("Snapshot")
	m := Metrics{N: g.n, VoC: g.VoC()}
	for _, p := range Procs {
		m.Elements[p] = g.Count(p)
		m.Rows[p] = g.RowsWith(p)
		m.Cols[p] = g.ColsWith(p)
		m.Overlap[p] = g.OverlapCount(p)
	}
	m.PairSends = g.PairVolumes()
	for _, p := range Procs {
		for _, q := range Procs {
			m.Sends[p] += m.PairSends[p][q]
		}
	}
	return m
}

// mustBeThree panics unless g is a three-processor grid: the readers that
// index by R, S and P would misread any other.
func (g *Grid) mustBeThree(what string) {
	if g.k != NumProcs {
		panic(fmt.Sprintf("partition: %s of a grid of %d processors; it reads three-processor grids only", what, g.k))
	}
}
