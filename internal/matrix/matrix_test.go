package matrix

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func randomPair(n int, seed int64) (*Dense, *Dense) {
	rng := rand.New(rand.NewSource(seed))
	a := New(n)
	b := New(n)
	a.FillRandom(rng)
	b.FillRandom(rng)
	return a, b
}

func TestNewZeroed(t *testing.T) {
	m := New(5)
	if m.N() != 5 {
		t.Fatalf("N = %d, want 5", m.N())
	}
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("New not zeroed at (%d,%d)", i, j)
			}
		}
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(-1) should panic")
		}
	}()
	New(-1)
}

func TestSetAtRow(t *testing.T) {
	m := New(4)
	m.Set(2, 3, 7.5)
	if got := m.At(2, 3); got != 7.5 {
		t.Errorf("At = %v, want 7.5", got)
	}
	row := m.Row(2)
	if row[3] != 7.5 {
		t.Errorf("Row slice = %v", row)
	}
	row[0] = -1 // live slice
	if m.At(2, 0) != -1 {
		t.Error("Row must return a live slice")
	}
}

func TestFromRows(t *testing.T) {
	m, err := FromRows([][]float64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 1) != 2 || m.At(1, 0) != 3 {
		t.Errorf("FromRows content wrong: %v", m)
	}
	if _, err := FromRows([][]float64{{1, 2}, {3}}); err == nil {
		t.Error("ragged rows should error")
	}
}

func TestCloneIndependence(t *testing.T) {
	m := New(3)
	m.Set(1, 1, 5)
	c := m.Clone()
	c.Set(1, 1, 9)
	if m.At(1, 1) != 5 {
		t.Error("Clone must be independent")
	}
	if !m.Equal(m.Clone()) {
		t.Error("Clone must equal original")
	}
}

func TestIdentityMultiplication(t *testing.T) {
	const n = 9
	a, _ := randomPair(n, 3)
	id := Identity(n)
	c := New(n)
	MulKIJ(c, a, id)
	if !c.ApproxEqual(a, 0) {
		t.Error("A·I != A under kij")
	}
	c.Zero()
	MulKIJ(c, id, a)
	if !c.ApproxEqual(a, 0) {
		t.Error("I·A != A under kij")
	}
}

func TestTranspose(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	tr := m.Transpose()
	if tr.At(0, 1) != 3 || tr.At(1, 0) != 2 {
		t.Errorf("Transpose wrong: %v", tr)
	}
	if !m.Transpose().Transpose().Equal(m) {
		t.Error("double transpose must be identity")
	}
}

func TestKernelsAgree(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 16, 33, 64, 100} {
		a, b := randomPair(n, int64(n))
		want := New(n)
		MulIJK(want, a, b)

		kij := New(n)
		MulKIJ(kij, a, b)
		if d, _ := kij.MaxDiff(want); d > 1e-12*float64(n) {
			t.Errorf("n=%d: kij vs ijk max diff %g", n, d)
		}

		blk := New(n)
		MulBlocked(blk, a, b, 8)
		if d, _ := blk.MaxDiff(want); d > 1e-12*float64(n) {
			t.Errorf("n=%d: blocked vs ijk max diff %g", n, d)
		}

		par := New(n)
		MulParallel(par, a, b, 4)
		if !par.Equal(kij) {
			t.Errorf("n=%d: parallel kij must be bit-identical to serial kij", n)
		}
	}
}

func TestMulBlockedDefaultBlock(t *testing.T) {
	n := 70
	a, b := randomPair(n, 9)
	want := New(n)
	MulKIJ(want, a, b)
	got := New(n)
	MulBlocked(got, a, b, 0) // DefaultBlock
	if d, _ := got.MaxDiff(want); d > 1e-10 {
		t.Errorf("default block diff %g", d)
	}
}

// fullRuns covers every cell of an n×n matrix, one run per row.
func fullRuns(n int) []Run {
	runs := make([]Run, n)
	for i := range runs {
		runs[i] = Run{Row: i, J0: 0, J1: n}
	}
	return runs
}

func TestMulRunsPivotStepsAccumulate(t *testing.T) {
	const n = 12
	a, b := randomPair(n, 11)
	want := New(n)
	MulKIJ(want, a, b)
	got := New(n)
	for k := 0; k < n; k++ {
		MulRuns(got, a, b, fullRuns(n), k, k+1)
	}
	if !got.Equal(want) {
		t.Error("sum of single-pivot steps must equal full kij (identical order)")
	}
}

func TestMulRunsOutOfRangePanics(t *testing.T) {
	a := New(3)
	b := New(3)
	c := New(3)
	for name, f := range map[string]func(){
		"kHi past n":     func() { MulRuns(c, a, b, fullRuns(3), 0, 4) },
		"negative kLo":   func() { MulRuns(c, a, b, fullRuns(3), -1, 2) },
		"kLo above kHi":  func() { MulRuns(c, a, b, fullRuns(3), 2, 1) },
		"row past n":     func() { MulRuns(c, a, b, []Run{{Row: 3, J0: 0, J1: 1}}, 0, 3) },
		"column past n":  func() { MulRuns(c, a, b, []Run{{Row: 0, J0: 1, J1: 4}}, 0, 3) },
		"inverted run":   func() { MulRuns(c, a, b, []Run{{Row: 0, J0: 2, J1: 1}}, 0, 3) },
		"aliased output": func() { MulRuns(a, a, b, fullRuns(3), 0, 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestMulRunsCoversExactlyRegion(t *testing.T) {
	const n = 10
	a, b := randomPair(n, 21)
	full := New(n)
	MulKIJ(full, a, b)
	c := New(n)
	MulRuns(c, a, b, rectRuns(2, 6, 3, 9), 0, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			inside := i >= 2 && i < 6 && j >= 3 && j < 9
			if inside && c.At(i, j) != full.At(i, j) {
				t.Fatalf("(%d,%d) inside region differs", i, j)
			}
			if !inside && c.At(i, j) != 0 {
				t.Fatalf("(%d,%d) outside region was touched", i, j)
			}
		}
	}
}

func TestMulRunsTiling(t *testing.T) {
	// Two disjoint row bands covering the matrix reproduce the full
	// product exactly (this is what a rectangular partition computes).
	const n = 8
	a, b := randomPair(n, 5)
	want := New(n)
	MulKIJ(want, a, b)
	got := New(n)
	MulRuns(got, a, b, rectRuns(0, 5, 0, n), 0, n)
	MulRuns(got, a, b, rectRuns(5, n, 0, n), 0, n)
	if !got.Equal(want) {
		t.Error("row-band tiling must reproduce the full product")
	}
}

func TestMulMaskedMatchesSub(t *testing.T) {
	const n = 9
	a, b := randomPair(n, 8)
	mask := make([]bool, n*n)
	for i := 1; i < 5; i++ {
		for j := 2; j < 7; j++ {
			mask[i*n+j] = true
		}
	}
	viaMask := New(n)
	MulMasked(viaMask, a, b, mask)
	viaRuns := New(n)
	MulRuns(viaRuns, a, b, rectRuns(1, 5, 2, 7), 0, n)
	if !viaMask.Equal(viaRuns) {
		t.Error("masked kernel must match the runs kernel on a sub-rectangle")
	}
}

// randomRuns returns disjoint runs 1–17 cells long, with about a quarter
// of the rows left empty.
func randomRuns(rng *rand.Rand, n int) []Run {
	var runs []Run
	for i := 0; i < n; i++ {
		if rng.Intn(4) == 0 {
			continue
		}
		for j := rng.Intn(3); j < n; {
			j1 := min(j+1+rng.Intn(17), n)
			runs = append(runs, Run{Row: i, J0: j, J1: j1})
			j = j1 + rng.Intn(4) // 0 leaves two runs back to back
		}
	}
	rng.Shuffle(len(runs), func(x, y int) { runs[x], runs[y] = runs[y], runs[x] })
	return runs
}

// randomCuts splits [0, n) into consecutive pivot ranges of 0–99 pivots,
// so most ranges start and end inside a PivotChunk and some are empty.
func randomCuts(rng *rand.Rand, n int) []int {
	cuts := []int{0}
	for k := 0; k < n; {
		k = min(k+rng.Intn(100), n)
		cuts = append(cuts, k)
	}
	return cuts
}

// groupEdgeRuns returns one run per (width, start) pair for widths
// 1–40 and starts at every offset mod 16 — every way a run can meet the
// vector kernel's 16- and 4-column groups and the scalar tail — packed
// into batches of disjoint runs, at most one per row.
func groupEdgeRuns(rng *rand.Rand, n int) [][]Run {
	var batches [][]Run
	var batch []Run
	for s := 0; s < 16; s++ {
		for w := 1; w <= 40 && s+w <= n; w++ {
			j0 := s + 16*rng.Intn((n-s-w)/16+1)
			batch = append(batch, Run{Row: len(batch), J0: j0, J1: j0 + w})
			if len(batch) == n {
				batches = append(batches, batch)
				batch = nil
			}
		}
	}
	if len(batch) > 0 {
		batches = append(batches, batch)
	}
	return batches
}

// tileEdgeRuns returns run sets in row order, the order the engine's
// band tasks hand runs in, around the four-row tile's edges: rectangles
// of every height 1–11 (4k+{0..3} rows) at each width 1–23 (8k+{0..7}
// columns), and rectangles whose rows hold two runs, as SCO's and PCO's
// band tasks do. Rectangles stack down the rows, some back to back with
// different columns. want[x] is how many of set x's cells the tile
// computes where the CPU has one and no pivot is ±0: four rows times the
// full 8-column groups of each run, for each whole group of four rows.
func tileEdgeRuns(rng *rand.Rand, n int) (sets [][]Run, want []int) {
	var set []Run
	row, cells, prevJ0 := 0, 0, -1
	flush := func() {
		if len(set) > 0 {
			sets, want = append(sets, set), append(want, cells)
		}
		set, row, cells, prevJ0 = nil, 0, 0, -1
	}
	// rect adds h rows of runs at the given (start, width) pairs.
	rect := func(h int, cols ...[2]int) {
		if row > 0 && (cols[0][0] == prevJ0 || rng.Intn(2) == 0) {
			row++ // an empty row; same-column neighbours always get one
		}
		if row+h > n {
			flush()
		}
		if h > n {
			return
		}
		for i := row; i < row+h; i++ {
			for _, c := range cols {
				set = append(set, Run{Row: i, J0: c[0], J1: c[0] + c[1]})
			}
		}
		for _, c := range cols {
			cells += 4 * (h / 4) * (c[1] &^ 7)
		}
		row += h
		prevJ0 = cols[0][0]
	}
	for w := 1; w <= min(23, n); w++ {
		for h := 1; h <= 11; h++ {
			rect(h, [2]int{rng.Intn(n - w + 1), w})
		}
		flush()
	}
	for h := 1; h <= 11; h++ {
		w1, w2, gap := 1+rng.Intn(23), 1+rng.Intn(23), 1+rng.Intn(3)
		if w1+gap+w2 > n {
			continue
		}
		j0 := rng.Intn(n - w1 - gap - w2 + 1)
		rect(h, [2]int{j0, w1}, [2]int{j0 + w1 + gap, w2})
	}
	flush()
	return sets, want
}

// runsCover returns the row-major mask of the cells the runs cover.
func runsCover(runs []Run, n int) []bool {
	covered := make([]bool, n*n)
	for _, r := range runs {
		for j := r.J0; j < r.J1; j++ {
			covered[r.Row*n+j] = true
		}
	}
	return covered
}

// whole holds A and B as MulRuns does: every line at its own index.
func whole(a, b *Dense) operands {
	return operands{n: a.n, a: a.data, b: b.data, bStride: a.n}
}

// heldLines holds A and B as an executor does: only the A rows and B
// columns the runs touch, in line order, after pad unused slots of each,
// so every row is remapped and B's stride is its columns plus pad. The
// unused slots hold NaN, which a read of the wrong slot would carry into
// C.
func heldLines(a, b *Dense, runs []Run, pad int) operands {
	n := a.n
	o := operands{n: n, aRow: make([]int32, n), bCol: make([]int32, n)}
	for i := range o.aRow {
		o.aRow[i], o.bCol[i] = -1, -1
	}
	for _, r := range runs {
		if r.J0 < r.J1 {
			o.aRow[r.Row] = 0
			for j := r.J0; j < r.J1; j++ {
				o.bCol[j] = 0
			}
		}
	}
	rows, cols := pad, pad
	for i := range o.aRow {
		if o.aRow[i] == 0 {
			o.aRow[i], rows = int32(rows), rows+1
		}
		if o.bCol[i] == 0 {
			o.bCol[i], cols = int32(cols), cols+1
		}
	}
	o.a, o.b, o.bStride = make([]float64, rows*n), make([]float64, n*cols), cols
	for x := range o.a {
		o.a[x] = math.NaN()
	}
	for x := range o.b {
		o.b[x] = math.NaN()
	}
	for i, s := range o.aRow {
		if s >= 0 {
			copy(o.a[int(s)*n:int(s+1)*n], a.Row(i))
		}
	}
	for k := 0; k < n; k++ {
		for j, s := range o.bCol {
			if s >= 0 {
				o.b[k*cols+int(s)] = b.At(k, j)
			}
		}
	}
	return o
}

// TestMulRunsDifferential checks both run kernels against MulKIJ across
// chunk boundaries: MulRuns, which takes the vector kernels where the
// CPU has them, and the portable Go kernel called directly, each on the
// whole matrices and on A and B held as the lines the runs need
// (heldLines: A's rows remapped, B at its own stride), as MulRunsLines
// takes them. The cases are random run sets, runs at every width and
// start offset around the vector groups, and row-ordered rectangles
// around the four-row tile's edges, applied over random pivot
// sub-ranges, and random masks through MulMasked. Covered cells must be
// bit-identical to MulKIJ's product; uncovered cells must keep their
// prior contents bit for bit. On the rectangles the dispatching kernels
// must also report exactly the cell updates the tile owes them, so a
// tile that is never taken fails here.
func TestMulRunsDifferential(t *testing.T) {
	t.Logf("vector kernel: %v, tile: %v", hasVectorKernel(), vectorTile() != nil)
	if hasVectorKernel() != (vectorTile() != nil) {
		t.Fatal("the tile must be taken exactly where the one-row vector kernel is")
	}
	kernels := []struct {
		name string
		tile bool // whether the kernel takes the tile where the CPU has one
		mul  func(c, a, b *Dense, runs []Run, kLo, kHi int) int
	}{
		{"MulRuns", true, MulRuns},
		{"mulRunGo", false, func(c, a, b *Dense, runs []Run, kLo, kHi int) int {
			return mulRuns(c.data, 0, whole(a, b), runs, kLo, kHi, mulRunGo, nil)
		}},
		{"MulRunsLines", true, func(c, a, b *Dense, runs []Run, kLo, kHi int) int {
			o := heldLines(a, b, runs, 3)
			return MulRunsLines(c.data, 0, o.a, o.aRow, o.b, o.bCol, runs, kLo, kHi)
		}},
		{"mulRunGo lines", false, func(c, a, b *Dense, runs []Run, kLo, kHi int) int {
			return mulRuns(c.data, 0, heldLines(a, b, runs, 3), runs, kLo, kHi, mulRunGo, nil)
		}},
	}
	for _, n := range []int{1, 3, 4, 15, 16, 17, 63, 64, 65, 130} {
		a, b := randomPair(n, int64(100+n))
		want := New(n)
		MulKIJ(want, a, b)
		rng := rand.New(rand.NewSource(int64(n)))
		runSets := [][]Run{randomRuns(rng, n), randomRuns(rng, n), randomRuns(rng, n)}
		runSets = append(runSets, groupEdgeRuns(rng, n)...)
		tileSets, tileCells := tileEdgeRuns(rng, n)
		firstTileSet := len(runSets)
		runSets = append(runSets, tileSets...)
		for x, runs := range runSets {
			covered := runsCover(runs, n)
			cuts := randomCuts(rng, n)
			for _, k := range kernels {
				c := New(n)
				fillUncovered(c, covered)
				tiled := 0
				for y := 0; y+1 < len(cuts); y++ {
					tiled += k.mul(c, a, b, runs, cuts[y], cuts[y+1])
				}
				name := fmt.Sprintf("%s n=%d run set %d", k.name, n, x)
				checkCells(t, name, c, want, covered)
				if x < firstTileSet {
					continue
				}
				wantTiled := 0
				if k.tile && vectorTile() != nil {
					wantTiled = tileCells[x-firstTileSet] * n
				}
				if tiled != wantTiled {
					t.Fatalf("%s: %d cell updates through the tile, want %d", name, tiled, wantTiled)
				}
			}
		}
		for trial := 0; trial < 3; trial++ {
			covered := make([]bool, n*n)
			for idx := range covered {
				covered[idx] = rng.Intn(3) > 0
			}
			c := New(n)
			fillUncovered(c, covered)
			MulMasked(c, a, b, covered)
			checkCells(t, fmt.Sprintf("MulMasked n=%d mask %d", n, trial), c, want, covered)
		}
	}
}

// checkCells fails unless every covered cell of c is bit-identical to
// want's and every uncovered cell still holds its fill value.
func checkCells(t *testing.T, name string, c, want *Dense, covered []bool) {
	t.Helper()
	n := c.n
	for idx, in := range covered {
		got, ref := c.data[idx], want.data[idx]
		if !in {
			ref = uncoveredValue(idx)
		}
		if math.Float64bits(got) != math.Float64bits(ref) {
			t.Fatalf("%s: cell (%d,%d) covered=%v is %v (%#x), want %v (%#x)",
				name, idx/n, idx%n, in, got, math.Float64bits(got), ref, math.Float64bits(ref))
		}
	}
}

func uncoveredValue(idx int) float64 { return float64(idx) + 0.25 }

func fillUncovered(c *Dense, covered []bool) {
	for idx, in := range covered {
		if !in {
			c.data[idx] = uncoveredValue(idx)
		}
	}
}

// hasVectorKernel reports whether MulRuns takes the vector kernel on
// this CPU: it then takes a 4-cell run whole.
func hasVectorKernel() bool {
	return mulRunVector(make([]float64, 4), []float64{1}, make([]float64, 4), 4) == 4
}

// kijOrdered is MulKIJ with the operands' order made explicit where two
// NaNs meet, and x86 keeps the first source's payload: a product keeps
// B's and a sum the product's. MulKIJ's compiled code does the same in
// an ordinary build, but the Go spec leaves that choice to the compiler,
// and under -race MulKIJ keeps the running sum's.
func kijOrdered(a, b *Dense) *Dense {
	n := a.n
	c := New(n)
	first := func(x, y, r float64) float64 {
		if math.IsNaN(x) && math.IsNaN(y) {
			return x
		}
		return r
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			aik := a.At(i, k)
			if aik == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				p := first(b.At(k, j), aik, b.At(k, j)*aik)
				c.Set(i, j, first(p, c.At(i, j), p+c.At(i, j)))
			}
		}
	}
	return c
}

func TestMulRunsSkipsZeroPivotsLikeKIJ(t *testing.T) {
	// MulKIJ skips A[i][k] == ±0, so an infinite or NaN B[k][j] never
	// meets a zero multiplier there. The run kernels must skip the same
	// pivots, or 0·Inf would turn those cells into NaN, must not skip a
	// NaN pivot, and must round subnormals alike. n=37 gives each full
	// row two 16-column groups, a 4-column group and a scalar tail.
	//
	// Where two NaNs meet, the payload that survives shows the operand
	// order. Rows i%4==2 multiply a NaN A[i][13] by a NaN B[13][j]
	// (j%3==0); rows i%4==1 carry A[i][11]'s NaN into a sum that then
	// meets B[13][j]'s and B[17][j]'s (j%7==2). Go fixes no order there,
	// so against MulKIJ such a cell need only be NaN; the vector kernel
	// fixes its order, and its cells must match kijOrdered bit for bit.
	const n = 37
	a, b := randomPair(n, 31)
	negZero := math.Copysign(0, -1)
	nan := func(payload uint64) float64 { return math.Float64frombits(0x7ff8000000000000 | payload) }
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			if i%3 == 0 {
				a.Set(i, k, 0)
				if k%2 == 0 {
					a.Set(i, k, negZero)
				}
			}
			if i == 4 {
				a.Set(i, k, math.SmallestNonzeroFloat64*float64(k+1))
			}
		}
		a.Set(i, 5, negZero)
		if i%4 == 1 {
			a.Set(i, 11, nan(0xa00|uint64(i)))
		}
		if i%4 == 2 {
			a.Set(i, 13, nan(0xa00|uint64(i)))
		}
	}
	for j := 0; j < n; j++ {
		b.Set(5, j, math.Inf(1))
		if j%5 == 0 {
			b.Set(7, j, math.Inf(1-2*(j%2)))
		}
		b.Set(9, j, 0x1p-1060*float64(j+1))
		if j%3 == 0 {
			b.Set(13, j, nan(0xb00|uint64(j)))
		}
		if j%7 == 2 {
			b.Set(17, j, nan(0xc00|uint64(j)))
		}
	}
	want := New(n)
	MulKIJ(want, a, b)
	for name, mul := range map[string]func(c *Dense){
		"MulRuns":  func(c *Dense) { MulRuns(c, a, b, fullRuns(n), 0, n) },
		"mulRunGo": func(c *Dense) { mulRuns(c.data, 0, whole(a, b), fullRuns(n), 0, n, mulRunGo, nil) },
	} {
		got := New(n)
		mul(got)
		for idx, g := range got.data {
			ref := want.data[idx]
			if math.Float64bits(g) != math.Float64bits(ref) && !(math.IsNaN(g) && math.IsNaN(ref)) {
				t.Fatalf("%s: cell (%d,%d) is %v (%#x), MulKIJ gives %v (%#x)",
					name, idx/n, idx%n, g, math.Float64bits(g), ref, math.Float64bits(ref))
			}
		}
	}
	if !hasVectorKernel() {
		return
	}
	const w = n &^ 3 // every column of these runs is in a vector group
	ordered := kijOrdered(a, b)
	got := New(n)
	MulRuns(got, a, b, rectRuns(0, n, 0, w), 0, n)
	for i := 0; i < n; i++ {
		for j := 0; j < w; j++ {
			if g, o := got.At(i, j), ordered.At(i, j); math.Float64bits(g) != math.Float64bits(o) {
				t.Fatalf("vector kernel: cell (%d,%d) is %v (%#x), want %v (%#x)",
					i, j, g, math.Float64bits(g), o, math.Float64bits(o))
			}
		}
	}
}

// tilePaths are the ways a run set reaches the kernels: through MulRuns
// and through MulRunsLines on the lines the runs touch (heldLines), each
// with the vector kernels where the CPU has them (tile reports whether
// it does), and the same two through the portable kernel alone.
func tilePaths(a, b *Dense, runs []Run) []struct {
	name string
	tile bool
	mul  func(c *Dense, kLo, kHi int) int
} {
	lines := heldLines(a, b, runs, 5)
	return []struct {
		name string
		tile bool
		mul  func(c *Dense, kLo, kHi int) int
	}{
		{"MulRuns", vectorTile() != nil, func(c *Dense, kLo, kHi int) int { return MulRuns(c, a, b, runs, kLo, kHi) }},
		{"MulRunsLines", vectorTile() != nil, func(c *Dense, kLo, kHi int) int {
			return MulRunsLines(c.data, 0, lines.a, lines.aRow, lines.b, lines.bCol, runs, kLo, kHi)
		}},
		{"mulRunGo", false, func(c *Dense, kLo, kHi int) int {
			return mulRuns(c.data, 0, whole(a, b), runs, kLo, kHi, mulRunGo, nil)
		}},
		{"mulRunGo lines", false, func(c *Dense, kLo, kHi int) int {
			return mulRuns(c.data, 0, lines, runs, kLo, kHi, mulRunGo, nil)
		}},
	}
}

// TestMulRunsTileZeroPivot puts one ±0 pivot in one row of one tile:
// that tile's four rows must take the one-row kernel for that chunk
// only, and skip the pivot as MulKIJ does, or 0·Inf in B would turn
// their cells into NaN. Every other tile, and that one in the next
// chunk, is still taken. The portable kernel takes no tile and must skip
// the pivot too.
func TestMulRunsTileZeroPivot(t *testing.T) {
	const n, zi, zk = 70, 5, 10 // rows 4–7 are the second tile; pivot 10 is in chunk [0, 64)
	for _, zero := range []float64{0, math.Copysign(0, -1)} {
		a, b := randomPair(n, 41)
		a.Set(zi, zk, zero)
		for j := 0; j < n; j += 3 {
			b.Set(zk, j, math.Inf(1))
		}
		want := New(n)
		MulKIJ(want, a, b)
		runs := rectRuns(0, 12, 3, 3+17) // three tiles of 16 columns, and a column left over
		covered := runsCover(runs, n)
		for _, path := range tilePaths(a, b, runs) {
			got := New(n)
			fillUncovered(got, covered)
			tiled := path.mul(got, 0, n)
			checkCells(t, fmt.Sprintf("%s zero %v", path.name, zero), got, want, covered)
			w := 0
			if path.tile {
				w = 4 * 16 * (2*PivotChunk + 3*(n-PivotChunk))
			}
			if tiled != w {
				t.Errorf("%s zero %v: %d cell updates through the tile, want %d", path.name, zero, tiled, w)
			}
		}
	}
}

// TestMulRunsTileNaNPayloads sends NaN payloads in A and B through the
// tile: every cell of these runs is in a tile or a 4-column vector
// group, so every cell must match kijOrdered bit for bit, payloads
// included. Every row multiplies a NaN A[i][13] by B[13][j], a NaN where
// j%3==0. Even rows then carry that NaN into a sum that meets
// B[70][j]'s, in the next pivot chunk; odd rows carry A[i][11]'s NaN
// into the sum that meets pivot 13's product. So each of a tile's four
// rows, in both halves of its eight columns, checks the operand order
// of both its multiply and its add. Go leaves that order to the
// compiler, so the portable kernel must match kijOrdered bit for bit
// wherever the result is not NaN, and be NaN where it is.
func TestMulRunsTileNaNPayloads(t *testing.T) {
	const n = 75
	const rows, cols = n &^ 3, n &^ 3 // 18 tiles down, 9 across, one 4-column group
	a, b := randomPair(n, 43)
	nan := func(payload uint64) float64 { return math.Float64frombits(0x7ff8000000000000 | payload) }
	for i := 0; i < n; i++ {
		a.Set(i, 13, nan(0xa00|uint64(i)))
		if i%2 == 1 {
			a.Set(i, 11, nan(0xd00|uint64(i)))
		}
	}
	for j := 0; j < n; j++ {
		if j%3 == 0 {
			b.Set(13, j, nan(0xb00|uint64(j)))
		}
		if j%7 == 2 {
			b.Set(70, j, nan(0xc00|uint64(j)))
		}
	}
	ordered := kijOrdered(a, b)
	for _, path := range tilePaths(a, b, rectRuns(0, rows, 0, cols)) {
		got := New(n)
		tiled := path.mul(got, 0, n)
		w := 0
		if path.tile {
			w = rows * (cols &^ 7) * n
		}
		if tiled != w {
			t.Fatalf("%s: %d cell updates through the tile, want %d", path.name, tiled, w)
		}
		vector := hasVectorKernel() && !strings.HasPrefix(path.name, "mulRunGo")
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				g, o := got.At(i, j), ordered.At(i, j)
				if math.Float64bits(g) != math.Float64bits(o) && (vector || !math.IsNaN(g) || !math.IsNaN(o)) {
					t.Fatalf("%s: cell (%d,%d) is %v (%#x), want %v (%#x)",
						path.name, i, j, g, math.Float64bits(g), o, math.Float64bits(o))
				}
			}
		}
	}
}

// TestMulRunsBand: C held as a band of rows, and A and B held as the
// lines the runs touch, get the cells MulRuns gives the full matrices,
// through as many tile updates; a run outside the band, or outside the
// lines held, panics.
func TestMulRunsBand(t *testing.T) {
	const n, row0, h = 40, 8, 12
	a, b := randomPair(n, 45)
	runs := append(rectRuns(row0, row0+8, 3, 37), rectRuns(row0+8, row0+h, 0, 9)...)
	full := New(n)
	wantTiled := MulRuns(full, a, b, runs, 0, n)
	lines := heldLines(a, b, runs, 2)
	band := make([]float64, h*n)
	if got := MulRunsLines(band, row0, lines.a, lines.aRow, lines.b, lines.bCol, runs, 0, n); got != wantTiled {
		t.Errorf("band: %d cell updates through the tile, full C: %d", got, wantTiled)
	}
	for x, v := range band {
		if w := full.data[row0*n+x]; math.Float64bits(v) != math.Float64bits(w) {
			t.Fatalf("band cell (%d,%d) is %v, want %v", row0+x/n, x%n, v, w)
		}
	}
	gap := heldLines(a, b, []Run{{row0, 0, 3}, {row0 + 1, 5, 9}}, 0) // columns 3 and 4 not held
	for name, f := range map[string]func(){
		"above the band": func() {
			MulRunsLines(band, row0, lines.a, lines.aRow, lines.b, lines.bCol, []Run{{row0 - 1, 3, 4}}, 0, n)
		},
		"below the band": func() {
			MulRunsLines(band, row0, lines.a, lines.aRow, lines.b, lines.bCol, []Run{{row0 + h, 3, 4}}, 0, n)
		},
		"row not held": func() { MulRunsLines(band, row0, gap.a, gap.aRow, gap.b, gap.bCol, []Run{{row0 + 2, 0, 3}}, 0, n) },
		"column gap":   func() { MulRunsLines(band, row0, gap.a, gap.aRow, gap.b, gap.bCol, []Run{{row0, 2, 6}}, 0, n) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("run %s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestRunBuilders(t *testing.T) {
	const n = 6
	mask := make([]bool, n*n)
	for _, idx := range []int{0, 1, 2, 4, 5, 6, 13, 14, 35} {
		mask[idx] = true
	}
	want := []Run{{0, 0, 3}, {0, 4, 6}, {1, 0, 1}, {2, 1, 3}, {5, 5, 6}}
	if got := MaskRuns(mask, n); !slices.Equal(got, want) {
		t.Fatalf("MaskRuns = %v, want %v", got, want)
	}
}

func TestMulMaskedNonRectangularCover(t *testing.T) {
	// An arbitrary 3-way disjoint mask cover reproduces the full product —
	// the correctness basis for non-rectangular partitions.
	const n = 11
	a, b := randomPair(n, 13)
	want := New(n)
	MulKIJ(want, a, b)

	rng := rand.New(rand.NewSource(42))
	masks := make([][]bool, 3)
	for p := range masks {
		masks[p] = make([]bool, n*n)
	}
	for idx := 0; idx < n*n; idx++ {
		masks[rng.Intn(3)][idx] = true
	}
	got := New(n)
	for _, m := range masks {
		MulMasked(got, a, b, m)
	}
	if !got.Equal(want) {
		t.Error("3-way masked cover must reproduce the full kij product")
	}
}

func TestAliasPanics(t *testing.T) {
	a := New(4)
	b := New(4)
	for _, f := range []func(){
		func() { MulKIJ(a, a, b) },
		func() { MulIJK(b, a, b) },
		func() { MulBlocked(a, a, b, 2) },
		func() { MulMasked(b, a, b, make([]bool, 16)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("aliased destination should panic")
				}
			}()
			f()
		}()
	}
}

func TestDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("dimension mismatch should panic")
		}
	}()
	MulKIJ(New(3), New(4), New(4))
}

func TestMaxDiffDimensionError(t *testing.T) {
	if _, err := New(3).MaxDiff(New(4)); err == nil {
		t.Error("MaxDiff should error on dimension mismatch")
	}
}

func TestFrobeniusNorm(t *testing.T) {
	m, _ := FromRows([][]float64{{3, 0}, {0, 4}})
	if got := m.FrobeniusNorm(); math.Abs(got-5) > 1e-15 {
		t.Errorf("‖m‖F = %v, want 5", got)
	}
}

func TestStringForms(t *testing.T) {
	small := New(2)
	if !strings.Contains(small.String(), "0.0000") {
		t.Errorf("small String: %q", small.String())
	}
	big := New(20)
	if !strings.Contains(big.String(), "20×20") {
		t.Errorf("big String: %q", big.String())
	}
}

func TestFillSequentialDeterministic(t *testing.T) {
	a := New(6)
	b := New(6)
	a.FillSequential()
	b.FillSequential()
	if !a.Equal(b) {
		t.Error("FillSequential must be deterministic")
	}
	if a.At(0, 0) != 0 {
		t.Error("first element must be 0")
	}
}

func TestFlops(t *testing.T) {
	if got := Flops(10); got != 2000 {
		t.Errorf("Flops(10) = %d, want 2000", got)
	}
	if got := Flops(5000); got != 2*5000*5000*5000 {
		t.Errorf("Flops(5000) overflowed: %d", got)
	}
}

func TestMulParallelWorkerEdgeCases(t *testing.T) {
	const n = 5
	a, b := randomPair(n, 17)
	want := New(n)
	MulKIJ(want, a, b)
	for _, w := range []int{0, 1, 2, n, n + 10} {
		got := New(n)
		MulParallel(got, a, b, w)
		if !got.Equal(want) {
			t.Errorf("workers=%d: mismatch", w)
		}
	}
}

// Property: (A·B)ᵀ == Bᵀ·Aᵀ within tolerance.
func TestQuickTransposeProduct(t *testing.T) {
	f := func(seed int64) bool {
		n := 6
		a, b := randomPair(n, seed)
		ab := New(n)
		MulKIJ(ab, a, b)
		btat := New(n)
		MulKIJ(btat, b.Transpose(), a.Transpose())
		return ab.Transpose().ApproxEqual(btat, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: multiplication distributes over matrix addition.
func TestQuickDistributive(t *testing.T) {
	f := func(seed int64) bool {
		n := 5
		rng := rand.New(rand.NewSource(seed))
		a := New(n)
		b := New(n)
		c := New(n)
		a.FillRandom(rng)
		b.FillRandom(rng)
		c.FillRandom(rng)
		// A·(B+C)
		bc := New(n)
		for i := range bc.data {
			bc.data[i] = b.data[i] + c.data[i]
		}
		left := New(n)
		MulKIJ(left, a, bc)
		// A·B + A·C
		right := New(n)
		MulKIJ(right, a, b)
		MulKIJ(right, a, c) // accumulates
		return left.ApproxEqual(right, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMulKIJ(b *testing.B) {
	for _, n := range []int{64, 128, 256} {
		a, x := randomPair(n, 1)
		c := New(n)
		b.Run(sizeName(n), func(b *testing.B) {
			b.SetBytes(int64(8 * n * n))
			for i := 0; i < b.N; i++ {
				c.Zero()
				MulKIJ(c, a, x)
			}
		})
	}
}

func BenchmarkMulBlocked(b *testing.B) {
	for _, n := range []int{128, 256} {
		a, x := randomPair(n, 1)
		c := New(n)
		b.Run(sizeName(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.Zero()
				MulBlocked(c, a, x, 0)
			}
		})
	}
}

// BenchmarkMulRuns times MulRuns at n=512, pivot chunk by pivot chunk
// as the execution engine calls it, on three run sets: one 32×32 block
// of C; the engine's unit of work, one band of 32 rows across all 512
// columns; and ragged runs 1–17 cells long in random order (randomRuns),
// which the four-row tile never takes. It reports the kernel's GFLOP/s.
func BenchmarkMulRuns(b *testing.B) {
	const n, bs = 512, 32
	a, x := randomPair(n, 1)
	for _, bc := range []struct {
		name string
		runs []Run
	}{
		{"block32x32", rectRuns(64, 64+bs, 96, 96+bs)},
		{"band32x512", rectRuns(64, 64+bs, 0, n)},
		{"ragged", randomRuns(rand.New(rand.NewSource(1)), n)},
	} {
		cells := 0
		for _, r := range bc.runs {
			cells += r.J1 - r.J0
		}
		b.Run(bc.name, func(b *testing.B) {
			c := New(n)
			b.SetBytes(int64(8 * cells))
			for i := 0; i < b.N; i++ {
				for k0 := 0; k0 < n; k0 += PivotChunk {
					MulRuns(c, a, x, bc.runs, k0, min(k0+PivotChunk, n))
				}
			}
			b.ReportMetric(2*float64(cells)*n*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}

func BenchmarkMulParallel(b *testing.B) {
	n := 256
	a, x := randomPair(n, 1)
	c := New(n)
	for i := 0; i < b.N; i++ {
		c.Zero()
		MulParallel(c, a, x, 0)
	}
}

func sizeName(n int) string {
	return "n" + itoa(n)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// Property: matrix multiplication is associative within tolerance.
func TestQuickAssociative(t *testing.T) {
	f := func(seed int64) bool {
		const n = 5
		rng := rand.New(rand.NewSource(seed))
		a, b2, c := New(n), New(n), New(n)
		a.FillRandom(rng)
		b2.FillRandom(rng)
		c.FillRandom(rng)
		ab := New(n)
		MulKIJ(ab, a, b2)
		abc1 := New(n)
		MulKIJ(abc1, ab, c)
		bc := New(n)
		MulKIJ(bc, b2, c)
		abc2 := New(n)
		MulKIJ(abc2, a, bc)
		return abc1.ApproxEqual(abc2, 1e-11)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
