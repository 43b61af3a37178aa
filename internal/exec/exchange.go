package exec

import (
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

// packet is one worker-to-worker transfer: matrix cell indices and
// values. step tags the pivot of an interleaved-pipeline packet.
type packet struct {
	step int
	aIdx []int32
	aVal []float64
	bIdx []int32
	bVal []float64
}

func (pk *packet) volume() int64 { return int64(len(pk.aIdx) + len(pk.bIdx)) }

// apply writes a received packet into the receiver's local views.
func (pk *packet) apply(aLocal, bLocal *matrix.Dense) {
	ad, bd := aLocal.Data(), bLocal.Data()
	for i, idx := range pk.aIdx {
		ad[idx] = pk.aVal[i]
	}
	for i, idx := range pk.bIdx {
		bd[idx] = pk.bVal[i]
	}
}

// workerState is one worker's private view of the matrices, plus the
// inbox of the bulk exchange.
type workerState struct {
	aLocal, bLocal *matrix.Dense
	inbox          chan packet
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

// newWorkers seeds the workers for a bulk exchange. Each inbox has room
// for one packet from every peer, so sending never blocks.
func (x *exchangePlan) newWorkers(a, b *matrix.Dense) [partition.NumProcs]*workerState {
	aLocal, bLocal := x.seed(a, b)
	var ws [partition.NumProcs]*workerState
	for p := range ws {
		ws[p] = &workerState{aLocal: aLocal[p], bLocal: bLocal[p], inbox: make(chan packet, partition.NumProcs-1)}
	}
	return ws
}

// send is worker w's half of the bulk exchange: it builds w's packet
// for every peer v — w's A cells in the rows v owns cells in and its B
// cells in the columns v owns cells in — accounts it in
// st.PairVolume[w][v], and delivers it. Only w's goroutine writes
// st.PairVolume[w]; the caller sums TotalVolume once every send is done.
func (x *exchangePlan) send(w partition.Proc, workers [partition.NumProcs]*workerState, a, b *matrix.Dense, st *Stats) {
	n := x.n
	ad, bd := a.Data(), b.Data()
	for _, v := range partition.Procs {
		if v == w {
			continue
		}
		// Size the packet exactly first, so building it never regrows.
		na, nb := 0, 0
		for i := 0; i < n; i++ {
			if x.inRow(v, i) {
				na += int(x.rowCnt[i*partition.NumProcs+int(w)])
			}
			if x.inCol(v, i) {
				nb += int(x.colCnt[i*partition.NumProcs+int(w)])
			}
		}
		pk := packet{
			aIdx: make([]int32, 0, na), aVal: make([]float64, 0, na),
			bIdx: make([]int32, 0, nb), bVal: make([]float64, 0, nb),
		}
		for i := 0; i < n; i++ {
			if !x.inRow(w, i) {
				continue
			}
			needA := x.inRow(v, i)
			base := i * n
			for j, p := range x.cells[base : base+n] {
				if p != w {
					continue
				}
				idx := base + j
				if needA {
					pk.aIdx = append(pk.aIdx, int32(idx))
					pk.aVal = append(pk.aVal, ad[idx])
				}
				if x.inCol(v, j) {
					pk.bIdx = append(pk.bIdx, int32(idx))
					pk.bVal = append(pk.bVal, bd[idx])
				}
			}
		}
		st.PairVolume[w][v] = pk.volume()
		workers[v].inbox <- pk
	}
}

// receive is the other half: it applies one packet from every peer.
func (ws *workerState) receive() {
	for range partition.NumProcs - 1 {
		pk := <-ws.inbox
		pk.apply(ws.aLocal, ws.bLocal)
	}
}

// stepPacket builds w→v's packet for pivot k alone (the interleaved
// pipeline): w's A cells in column k at the rows v owns cells in, and
// w's B cells in row k at the columns v owns cells in. Over all k these
// are exactly the cells of w's bulk packet to v.
func (x *exchangePlan) stepPacket(w, v partition.Proc, k int, a, b *matrix.Dense) packet {
	n := x.n
	pk := packet{step: k}
	if x.inCol(w, k) {
		ad := a.Data()
		for i := 0; i < n; i++ {
			if idx := i*n + k; x.cells[idx] == w && x.inRow(v, i) {
				pk.aIdx = append(pk.aIdx, int32(idx))
				pk.aVal = append(pk.aVal, ad[idx])
			}
		}
	}
	if x.inRow(w, k) {
		bd := b.Data()
		for j, p := range x.cells[k*n : (k+1)*n] {
			if idx := k*n + j; p == w && x.inCol(v, j) {
				pk.bIdx = append(pk.bIdx, int32(idx))
				pk.bVal = append(pk.bVal, bd[idx])
			}
		}
	}
	return pk
}

// runs returns p's C cells as row runs, split in two: overlap holds the
// cells whose whole row and whole column p owns — computable before any
// exchange lands, the SCO/PCO overlap set — and rest the others.
func (x *exchangePlan) runs(p partition.Proc) (overlap, rest []matrix.Run) {
	n := x.n
	full := func(cnt []int32, line int) bool { return cnt[line*partition.NumProcs+int(p)] == int32(n) }
	for i := 0; i < n; i++ {
		if !x.inRow(p, i) {
			continue
		}
		fullRow := full(x.rowCnt, i)
		row := x.cells[i*n : (i+1)*n]
		for j := 0; j < n; {
			if row[j] != p {
				j++
				continue
			}
			ov := fullRow && full(x.colCnt, j)
			j0 := j
			for j < n && row[j] == p && (fullRow && full(x.colCnt, j)) == ov {
				j++
			}
			r := matrix.Run{Row: i, J0: j0, J1: j}
			if ov {
				overlap = append(overlap, r)
			} else {
				rest = append(rest, r)
			}
		}
	}
	return overlap, rest
}

// coverage returns which A and B cells worker v holds once the bulk
// exchange has been applied: all of every row and every column it owns
// a cell in (which includes its own cells).
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
