package exec

import (
	"sync"

	"repro/internal/matrix"
	"repro/internal/partition"
)

// exchangePlan is the one data-movement planner behind all five
// algorithms. newExchangePlan reads the partition grid once and keeps
// what the rest of a multiply walks: each row's cells as runs of one
// owner, and each worker's lines. Seeding, packets and the initial cut
// walk those runs and copy whole runs, so setting a multiply up costs
// its runs and its volume of communication, not n².
//
// The rule it implements is the paper's: to compute its own C cells a
// worker needs the whole A row and B column of each, so it must receive
// every A cell of a row it owns a cell in, and every B cell of a column it
// owns a cell in, that it does not hold itself. Summed over all pairs of
// workers that is exactly the partition's VoC (Eq 1). So a worker's
// views hold exactly those lines (see view).
type exchangePlan struct {
	n int
	// rowCnt[i·NumProcs + p] (colCnt for columns) counts p's cells in
	// line i; see partition.Grid.Raw.
	rowCnt, colCnt []int32
	// runs[rowAt[i]:rowAt[i+1]] are row i's cells as maximal runs of one
	// owner, in column order.
	runs  []ownerRun
	rowAt []int32
	// first[p] is p's view as the exchange fills it: the rows and the
	// columns p owns a cell in, in line order.
	first [partition.NumProcs]view
	// cols[p] are the runs of columns p owns a cell in, and full[p] the
	// runs of columns p owns whole.
	cols, full [partition.NumProcs][]span
}

// ownerRun is one run of a row's cells, columns [j0, j1), owned by p.
type ownerRun struct {
	j0, j1 int32
	p      partition.Proc
}

// span is a run of consecutive indices [lo, hi): of a view's elements in
// a packet, of columns in a plan.
type span struct{ lo, hi int32 }

// view is one worker's private copy of the operands: the rows of A and
// the columns of B it holds, each in line order, so that runs of C cells
// stay runs of B columns and four consecutive rows stay four consecutive
// A rows for the kernel's tile (matrix.MulRunsLines). A's row i is
// a[aRow[i]·n:][:n] and B's column j of pivot row k is
// b[k·cols + bCol[j]]; a slot of −1 marks a line not held.
type view struct {
	a, b       []float64
	aRow, bCol []int32
	rows, cols int
}

func newExchangePlan(g *partition.Grid) *exchangePlan {
	cells, rowCnt, colCnt := g.Raw()
	n, np := g.N(), partition.NumProcs
	x := &exchangePlan{n: n, rowCnt: rowCnt, colCnt: colCnt, rowAt: make([]int32, n+1)}
	for i := 0; i < n; i++ {
		row := cells[i*n : (i+1)*n]
		for j := 0; j < n; {
			j0, p := j, row[j]
			if j == 0 && rowCnt[i*np+int(p)] == int32(n) {
				j = n // p owns the whole row
			}
			for j < n && row[j] == p {
				j++
			}
			x.runs = append(x.runs, ownerRun{int32(j0), int32(j), p})
		}
		x.rowAt[i+1] = int32(len(x.runs))
	}
	for _, p := range partition.Procs {
		v := &x.first[p]
		v.aRow, v.bCol = make([]int32, n), make([]int32, n)
		for l := 0; l < n; l++ {
			v.aRow[l], v.bCol[l] = -1, -1
			if rowCnt[l*np+int(p)] > 0 {
				v.aRow[l], v.rows = int32(v.rows), v.rows+1
			}
			if c := colCnt[l*np+int(p)]; c > 0 {
				v.bCol[l], v.cols = int32(v.cols), v.cols+1
				x.cols[p] = appendLine(x.cols[p], l)
				if c == int32(n) {
					x.full[p] = appendLine(x.full[p], l)
				}
			}
		}
	}
	return x
}

// appendLine adds line l to runs, whose last run ends at or before it.
func appendLine(runs []span, l int) []span {
	if m := len(runs) - 1; m >= 0 && runs[m].hi == int32(l) {
		runs[m].hi++
		return runs
	}
	return append(runs, span{int32(l), int32(l + 1)})
}

// row returns row i's owner runs.
func (x *exchangePlan) row(i int) []ownerRun { return x.runs[x.rowAt[i]:x.rowAt[i+1]] }

// packet is one worker-to-worker transfer: runs of elements of the
// receiver's A and B views and their values, run after run.
type packet struct {
	a, b       []span
	aVal, bVal []float64
}

func (pk *packet) volume() int64 { return int64(len(pk.aVal) + len(pk.bVal)) }

// apply writes a received packet into the receiver's views.
func (pk *packet) apply(v view) {
	off := 0
	for _, s := range pk.a {
		off += copy(v.a[s.lo:s.hi], pk.aVal[off:])
	}
	off = 0
	for _, s := range pk.b {
		off += copy(v.b[s.lo:s.hi], pk.bVal[off:])
	}
}

// seed returns p's views, sized to its lines and holding its own cells:
// each of p's owner runs is one copy into its A view and one into its B
// view.
func (x *exchangePlan) seed(p partition.Proc, a, b *matrix.Dense) view {
	n := x.n
	v := x.first[p]
	v.a, v.b = make([]float64, v.rows*n), make([]float64, n*v.cols)
	ad, bd := a.Data(), b.Data()
	for i := 0; i < n; i++ {
		if v.aRow[i] < 0 {
			continue // p owns no cell of row i
		}
		for _, r := range x.row(i) {
			if r.p == p {
				lo, hi := i*n+int(r.j0), i*n+int(r.j1)
				copy(v.a[int(v.aRow[i])*n+int(r.j0):], ad[lo:hi])
				copy(v.b[i*v.cols+int(v.bCol[r.j0]):], bd[lo:hi])
			}
		}
	}
	return v
}

// packet builds w's packet to v for the pivots [k0, k1): w's A cells in
// columns k0..k1−1 of the rows v owns cells in, and w's B cells in rows
// k0..k1−1 of the columns v owns cells in, each run placed where v's
// views hold it. For [0, n) that is all v needs from w; the packets of
// any split of [0, n) into ranges hold those cells once between them, so
// every schedule moves exactly VoC.
func (x *exchangePlan) packet(w, v partition.Proc, k0, k1 int, a, b *matrix.Dense) packet {
	n, np := x.n, partition.NumProcs
	dst := x.first[v]
	// Size the values from the line counters so they never regrow: exact
	// for [0, n), an upper bound for a narrower range.
	na, nb, nbCols := 0, 0, 0
	for l := 0; l < n; l++ {
		if dst.aRow[l] >= 0 {
			na += min(int(x.rowCnt[l*np+int(w)]), k1-k0)
		}
		if dst.bCol[l] >= 0 {
			nbCols += int(x.colCnt[l*np+int(w)])
		}
	}
	for k := k0; k < k1; k++ {
		nb += int(x.rowCnt[k*np+int(w)])
	}
	pk := packet{aVal: make([]float64, 0, na), bVal: make([]float64, 0, min(nb, nbCols))}
	ad, bd := a.Data(), b.Data()
	// A: w's runs in columns [k0, k1) of v's rows.
	for i := 0; i < n; i++ {
		if dst.aRow[i] < 0 || x.rowCnt[i*np+int(w)] == 0 {
			continue
		}
		at := int(dst.aRow[i]) * n
		for _, r := range x.row(i) {
			if lo, hi := max(int(r.j0), k0), min(int(r.j1), k1); r.p == w && lo < hi {
				pk.a = append(pk.a, span{int32(at + lo), int32(at + hi)})
				pk.aVal = append(pk.aVal, ad[i*n+lo:i*n+hi]...)
			}
		}
	}
	// B: w's runs in rows [k0, k1), cut to v's column runs.
	cols := x.cols[v]
	for k := k0; k < k1; k++ {
		if x.rowCnt[k*np+int(w)] == 0 {
			continue
		}
		c := 0
		for _, r := range x.row(k) {
			if r.p != w {
				continue
			}
			for c < len(cols) && cols[c].hi <= r.j0 {
				c++
			}
			for d := c; d < len(cols) && cols[d].lo < r.j1; d++ {
				lo, hi := max(r.j0, cols[d].lo), min(r.j1, cols[d].hi)
				at := int32(k*dst.cols) + dst.bCol[lo]
				pk.b = append(pk.b, span{at, at + hi - lo})
				pk.bVal = append(pk.bVal, bd[k*n+int(lo):k*n+int(hi)]...)
			}
		}
	}
	return pk
}

// exchange runs the planned all-to-all on goroutines of its own, one
// per worker, beside the workers, so a worker's kill or hang fate never
// stops a send. Worker w's goroutine first seeds w's views with its own
// cells; exchange returns once all three are seeded. Then each sends
// every peer its A cells in the peer's rows and its B cells in the
// peer's columns, with every element accounted in PairVolume, and
// applies what it receives. The pivots travel in panels of e.panel —
// one panel [0, n), or one per matrix.PivotChunk pivots for PIO — and
// e.ready[w][p] closes once panel p's A columns and B rows have landed
// in w's views; computeBlock's gate waits on it. Only w's exchange
// goroutine writes w's views until its last panel has landed. The
// returned channel closes once every packet is applied and TotalVolume
// is summed.
func (e *engine) exchange() <-chan struct{} {
	sp := e.tr("exchange")
	panels := (e.n + e.panel - 1) / e.panel
	// inbox[v][w] carries w's packets to v in pivot order. w sends panel p
	// only after it has taken v's panel p−1, which v sends only after it
	// has taken w's panel p−2, so at most two packets wait per pair and
	// a send never blocks.
	var inbox [partition.NumProcs][partition.NumProcs]chan packet
	for _, v := range partition.Procs {
		e.ready[v] = make([]chan struct{}, panels)
		for p := range e.ready[v] {
			e.ready[v][p] = make(chan struct{})
		}
		for _, w := range partition.Procs {
			if w != v {
				inbox[v][w] = make(chan packet, 2)
			}
		}
	}
	var seeded, xwg sync.WaitGroup
	for _, w := range partition.Procs {
		seeded.Add(1)
		xwg.Add(1)
		go func() {
			defer xwg.Done()
			own := e.plan.seed(w, e.a, e.b)
			e.views[w] = own
			seeded.Done()
			for p := range panels {
				k0 := p * e.panel
				k1 := min(k0+e.panel, e.n)
				for _, v := range partition.Procs {
					if v != w {
						pk := e.plan.packet(w, v, k0, k1, e.a, e.b)
						e.stats.PairVolume[w][v] += pk.volume() // only w's goroutine writes row w
						inbox[v][w] <- pk
					}
				}
				for _, v := range partition.Procs {
					if v != w {
						pk := <-inbox[w][v]
						pk.apply(own)
					}
				}
				close(e.ready[w][p])
			}
		}()
	}
	seeded.Wait()
	done := make(chan struct{})
	go func() {
		xwg.Wait()
		e.stats.sumVolume()
		if sp != nil {
			sp.SetDetail("moved=%d", e.stats.TotalVolume)
			sp.End()
		}
		close(done)
	}()
	return done
}

// widen returns v holding also the patch's A rows and B columns, every
// line still in line order: the worker's views after a recovery,
// speculation or re-lease patch. Lines v already holds keep their
// values, and a side the patch adds no line to is kept as it is.
func (v view) widen(n int, t *blockTask) view {
	w := v
	if len(t.patchRows) > 0 {
		w.aRow, w.rows = addLines(v.aRow, t.patchRows)
		w.a = make([]float64, w.rows*n)
		for i, s := range v.aRow {
			if s >= 0 {
				copy(w.a[int(w.aRow[i])*n:], v.a[int(s)*n:int(s+1)*n])
			}
		}
		for x, i := range t.patchRows {
			copy(w.a[int(w.aRow[i])*n:], t.patchA[x*n:(x+1)*n])
		}
	}
	if len(t.patchCols) > 0 {
		w.bCol, w.cols = addLines(v.bCol, t.patchCols)
		w.b = make([]float64, n*w.cols)
		// A run of columns v holds sits side by side in both layouts, so B
		// moves run by run.
		for j0 := 0; j0 < n; {
			if v.bCol[j0] < 0 {
				j0++
				continue
			}
			j := j0 + 1
			for j < n && v.bCol[j] >= 0 {
				j++
			}
			from, to := int(v.bCol[j0]), int(w.bCol[j0])
			for k := 0; k < n; k++ {
				copy(w.b[k*w.cols+to:][:j-j0], v.b[k*v.cols+from:])
			}
			j0 = j
		}
		for x, j := range t.patchCols {
			for k, val := range t.patchB[x*n : (x+1)*n] {
				w.b[k*w.cols+int(w.bCol[j])] = val
			}
		}
	}
	return w
}

// addLines returns the slots of the lines that slot holds and the lines
// in add, numbered in line order, and how many lines that is.
func addLines(slot, add []int32) ([]int32, int) {
	out := make([]int32, len(slot))
	for l, s := range slot {
		out[l] = min(s, 0)
	}
	for _, l := range add {
		out[l] = 0
	}
	held := 0
	for l := range out {
		if out[l] == 0 {
			out[l], held = int32(held), held+1
		}
	}
	return out, held
}

// sumVolume sets TotalVolume to the sum of the pair volumes.
func (s *Stats) sumVolume() {
	s.TotalVolume = 0
	for w := range s.PairVolume {
		for _, vol := range s.PairVolume[w] {
			s.TotalVolume += vol
		}
	}
}
