package exec

import (
	"sync"

	"repro/internal/matrix"
	"repro/internal/partition"
)

// exchangePlan is the one data-movement planner behind all five
// algorithms. It reads the partition grid's raw cells and per-line owner
// counters directly and keeps per-worker state in [partition.NumProcs]
// arrays, so planning is a pass over the cells with no map lookups.
//
// The rule it implements is the paper's: to compute its own C cells a
// worker needs the whole A row and B column of each, so it must receive
// every A cell of a row it owns a cell in, and every B cell of a column it
// owns a cell in, that it does not hold itself. Summed over all pairs of
// workers that is exactly the partition's VoC (Eq 1).
type exchangePlan struct {
	n     int
	cells []partition.Proc // row-major owners, idx = i·n + j
	// rowCnt[i·NumProcs + p] (colCnt for columns) counts p's cells in
	// line i; see partition.Grid.Raw.
	rowCnt, colCnt []int32
}

func newExchangePlan(g *partition.Grid) *exchangePlan {
	cells, rowCnt, colCnt := g.Raw()
	return &exchangePlan{n: g.N(), cells: cells, rowCnt: rowCnt, colCnt: colCnt}
}

// inRow reports whether p owns a cell of row i, and so needs A's row i.
func (x *exchangePlan) inRow(p partition.Proc, i int) bool {
	return x.rowCnt[i*partition.NumProcs+int(p)] > 0
}

// inCol reports whether p owns a cell of column j, and so needs B's
// column j.
func (x *exchangePlan) inCol(p partition.Proc, j int) bool {
	return x.colCnt[j*partition.NumProcs+int(p)] > 0
}

// local reports whether C cell (i, j) needs no exchanged data: its
// owner holds the cell's whole A row and whole B column itself. These
// cells are SCO's and PCO's overlap set, computable while the exchange
// is in flight.
func (x *exchangePlan) local(i, j int) bool {
	p := int(x.cells[i*x.n+j])
	return x.rowCnt[i*partition.NumProcs+p] == int32(x.n) && x.colCnt[j*partition.NumProcs+p] == int32(x.n)
}

// span is a run of consecutive row-major cell indices [lo, hi).
type span struct{ lo, hi int32 }

// packet is one worker-to-worker transfer: runs of A and B cells and
// their values, run after run.
type packet struct {
	a, b       []span
	aVal, bVal []float64
}

func (pk *packet) volume() int64 { return int64(len(pk.aVal) + len(pk.bVal)) }

// apply writes a received packet into the receiver's local views.
func (pk *packet) apply(aLocal, bLocal *matrix.Dense) {
	ad, bd := aLocal.Data(), bLocal.Data()
	off := 0
	for _, s := range pk.a {
		off += copy(ad[s.lo:s.hi], pk.aVal[off:])
	}
	off = 0
	for _, s := range pk.b {
		off += copy(bd[s.lo:s.hi], pk.bVal[off:])
	}
}

// seed returns each worker's local A and B, holding only its own cells.
func (x *exchangePlan) seed(a, b *matrix.Dense) (aLocal, bLocal [partition.NumProcs]*matrix.Dense) {
	var ald, bld [partition.NumProcs][]float64
	for p := range aLocal {
		aLocal[p], bLocal[p] = matrix.New(x.n), matrix.New(x.n)
		ald[p], bld[p] = aLocal[p].Data(), bLocal[p].Data()
	}
	ad, bd := a.Data(), b.Data()
	for idx, p := range x.cells {
		ald[p][idx] = ad[idx]
		bld[p][idx] = bd[idx]
	}
	return aLocal, bLocal
}

// packet builds w's packet to v for the pivots [k0, k1): w's A cells in
// columns k0..k1−1 of the rows v owns cells in, and w's B cells in rows
// k0..k1−1 of the columns v owns cells in. For [0, n) that is all v
// needs from w; the packets of any split of [0, n) into ranges hold
// those cells once between them, so every schedule moves exactly VoC.
func (x *exchangePlan) packet(w, v partition.Proc, k0, k1 int, a, b *matrix.Dense) packet {
	n, np := x.n, partition.NumProcs
	// Size the values from the line counters so they never regrow: exact
	// for [0, n), an upper bound for a narrower range.
	na, nb, nbCols := 0, 0, 0
	for i := 0; i < n; i++ {
		if x.inRow(v, i) {
			na += min(int(x.rowCnt[i*np+int(w)]), k1-k0)
		}
		if x.inCol(v, i) {
			nbCols += int(x.colCnt[i*np+int(w)])
		}
	}
	for k := k0; k < k1; k++ {
		nb += int(x.rowCnt[k*np+int(w)])
	}
	pk := packet{aVal: make([]float64, 0, na), bVal: make([]float64, 0, min(nb, nbCols))}
	ad, bd := a.Data(), b.Data()
	// One pass over each of w's runs of cells: its A cells lie in columns
	// [k0, k1) of v's rows, its B cells in v's columns of rows [k0, k1).
	for i := 0; i < n; i++ {
		needA, needB := x.inRow(v, i), k0 <= i && i < k1
		if !x.inRow(w, i) || !needA && !needB {
			continue
		}
		j0, j1 := k0, k1
		if needB {
			j0, j1 = 0, n
		}
		base := i * n
		row := x.cells[base : base+n]
		for j := j0; j < j1; {
			if row[j] != w {
				j++
				continue
			}
			r := j
			for j < j1 && row[j] == w {
				j++
			}
			if lo, hi := max(r, k0), min(j, k1); needA && lo < hi {
				pk.a = append(pk.a, span{int32(base + lo), int32(base + hi)})
				pk.aVal = append(pk.aVal, ad[base+lo:base+hi]...)
			}
			for c := r; needB && c < j; {
				if !x.inCol(v, c) {
					c++
					continue
				}
				c0 := c
				for c < j && x.inCol(v, c) {
					c++
				}
				pk.b = append(pk.b, span{int32(base + c0), int32(base + c)})
				pk.bVal = append(pk.bVal, bd[base+c0:base+c]...)
			}
		}
	}
	return pk
}

// exchange seeds every worker's local views with its own cells and
// starts the planned all-to-all on goroutines of its own, beside the
// workers, so a worker's kill or hang fate never stops a send: each
// worker sends every peer its A cells in the peer's rows and its B cells
// in the peer's columns, with every element accounted in PairVolume, and
// applies what it receives. The pivots travel in panels of e.panel — one
// panel [0, n), or one per matrix.PivotChunk pivots for PIO — and
// e.ready[w][p] closes once panel p's A columns and B rows have landed
// in w's views; computeBlock's gate waits on it. The returned channel
// closes once every packet is applied and TotalVolume is summed.
func (e *engine) exchange() <-chan struct{} {
	sp := e.tr("exchange")
	e.aLocal, e.bLocal = e.plan.seed(e.a, e.b)
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
	var xwg sync.WaitGroup
	for _, w := range partition.Procs {
		xwg.Add(1)
		go func() {
			defer xwg.Done()
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
						pk.apply(e.aLocal[w], e.bLocal[w])
					}
				}
				close(e.ready[w][p])
			}
		}()
	}
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

// coverage returns which A and B cells worker v holds once the exchange
// has been applied: all of every row and every column it owns a cell in
// (which includes its own cells).
func (x *exchangePlan) coverage(v partition.Proc) (aHave, bHave []bool) {
	n := x.n
	aHave, bHave = make([]bool, n*n), make([]bool, n*n)
	for i := 0; i < n; i++ {
		rowIn := x.inRow(v, i)
		for j := 0; j < n; j++ {
			aHave[i*n+j] = rowIn
			bHave[i*n+j] = x.inCol(v, j)
		}
	}
	return aHave, bHave
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
