package matrix

import (
	"fmt"
	"math"
	"math/rand"
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

// TestMulRunsDifferential checks both run kernels against MulKIJ across
// chunk boundaries: MulRuns, which takes the vector kernel where the CPU
// has one, and the portable Go kernel called directly. The cases are
// random run sets and runs at every width and start offset around the
// vector groups, applied over random pivot sub-ranges, and random masks
// through MulMasked. Covered cells must be bit-identical to MulKIJ's
// product; uncovered cells must keep their prior contents bit for bit.
func TestMulRunsDifferential(t *testing.T) {
	t.Logf("vector kernel: %v", hasVectorKernel())
	kernels := []struct {
		name string
		mul  func(c, a, b *Dense, runs []Run, kLo, kHi int)
	}{
		{"MulRuns", MulRuns},
		{"mulRunGo", func(c, a, b *Dense, runs []Run, kLo, kHi int) {
			mulRuns(c, a, b, runs, kLo, kHi, mulRunGo)
		}},
	}
	for _, n := range []int{1, 3, 4, 15, 16, 17, 63, 64, 65, 130} {
		a, b := randomPair(n, int64(100+n))
		want := New(n)
		MulKIJ(want, a, b)
		rng := rand.New(rand.NewSource(int64(n)))
		runSets := [][]Run{randomRuns(rng, n), randomRuns(rng, n), randomRuns(rng, n)}
		runSets = append(runSets, groupEdgeRuns(rng, n)...)
		for x, runs := range runSets {
			covered := runsCover(runs, n)
			cuts := randomCuts(rng, n)
			for _, k := range kernels {
				c := New(n)
				fillUncovered(c, covered)
				for y := 0; y+1 < len(cuts); y++ {
					k.mul(c, a, b, runs, cuts[y], cuts[y+1])
				}
				checkCells(t, fmt.Sprintf("%s n=%d run set %d", k.name, n, x), c, want, covered)
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
	return mulRunVector(make([]float64, 4), []float64{1}, make([]float64, 4), 4, 0, 4) == 4
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
		"mulRunGo": func(c *Dense) { mulRuns(c, a, b, fullRuns(n), 0, n, mulRunGo) },
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

func TestRunBuilders(t *testing.T) {
	const n = 6
	mask := make([]bool, n*n)
	var cells []int32
	for _, idx := range []int{0, 1, 2, 4, 5, 6, 13, 14, 35} {
		mask[idx] = true
		cells = append(cells, int32(idx))
	}
	want := []Run{{0, 0, 3}, {0, 4, 6}, {1, 0, 1}, {2, 1, 3}, {5, 5, 6}}
	for name, got := range map[string][]Run{"MaskRuns": MaskRuns(mask, n), "CellRuns": CellRuns(cells, n)} {
		if len(got) != len(want) {
			t.Fatalf("%s = %v, want %v", name, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s = %v, want %v", name, got, want)
			}
		}
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

// BenchmarkMulRuns times the execution engine's unit of work: one
// 32×32 tile of C at n=512, pivot chunk by pivot chunk.
func BenchmarkMulRuns(b *testing.B) {
	const n, bs = 512, 32
	a, x := randomPair(n, 1)
	c := New(n)
	runs := rectRuns(64, 64+bs, 96, 96+bs)
	b.SetBytes(int64(8 * bs * bs))
	for i := 0; i < b.N; i++ {
		for k0 := 0; k0 < n; k0 += PivotChunk {
			MulRuns(c, a, x, runs, k0, min(k0+PivotChunk, n))
		}
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
