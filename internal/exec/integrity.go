package exec

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"time"

	"repro/internal/matrix"
	"repro/internal/partition"
)

// ABFT result verification (Huang–Abraham, adapted to the supervised
// block scheduler). The key identity: for every row i of C and any
// column weights w,
//
//	Σ_j w_j·C[i][j] = Σ_k A[i][k] · (Σ_j w_j·B[k][j])
//
// so with the weighted row sums of B precomputed once (rowSumB), the
// supervisor can check every row of a completed band of BlockSize rows
// against a reference it derives from its own pristine A and B in O(n)
// per row — O(n·bs) per band, a 1/n fraction of the band's 2n²·bs
// compute flops.
// The symmetric column identity over the band's rows (aband, built
// lazily — only suspect bands pay for it) localizes a single corrupted
// cell as the intersection of the failing row and failing column; that
// cell is then recomputed *exactly* (same ascending-k order as the kij
// kernel), so correction preserves the engine's bit-exactness guarantee.
//
// Crucially the references never involve worker-computed data: a
// systematically wrong worker (sim.FateScale) produces blocks that are
// self-consistent with any checksum the worker itself could have
// attached, but not with the supervisor's independent references.
//
// Verification is band-grained, not block-grained, because a partition
// owner's cells inside a band form an arbitrary (ragged) subset with no
// checksum identity of its own; the enclosing band is always a full
// rectangle, and it is the unit block tasks are cut from. Each committed
// block therefore parks as a "contribution" until its band is complete,
// and with checkpointing enabled the journal append is deferred to band
// verification, so the checkpoint never contains a block that was not
// verified.
//
// A band row sums n cells where a BlockSize×BlockSize tile row summed
// bs, but every cell keeps its tile's detection floor, relTol ×
// Σ_k |A[i][k]| × s_t, where s_t is the largest Σ_{j in t} |B[k][j]|
// over k of the cell's BlockSize-wide column stripe t. The weights do
// it: w_j = 1/s_t, so a cell off by δ moves its weighted row sum by δ/s_t,
// against a row tolerance of relTol × Σ_k |A[i][k]|. Without them one
// tolerance would serve every stripe of the row, and the floor of a
// light stripe would loosen to that of the heaviest (or, with the
// full-width |B| sum, n/bs-fold everywhere). Rounding stays far below the
// floor: each stripe adds at most about 3nε·Σ_k |A[i][k]| to a weighted
// row's worst case, 3nε·(n/bs) ≈ 3e-12 of the tolerance at n = 512,
// bs = 32, against relTol = 1e-9. A stripe of B that is all zero has
// exactly zero products and a floor of zero in the tile check; it takes
// the weight of the lightest nonzero stripe, the tightest of the nonzero
// stripes' floors.

// defaultMismatchBudget is how many uncorrectable mismatches a worker
// may cause before it is declared Byzantine and quarantined.
const defaultMismatchBudget = 3

// relTol is the relative checksum tolerance: a row (column) sum is
// suspect when it differs from the reference by more than relTol times
// an upper bound on the sum's absolute magnitude. Real kij rounding
// noise is O(n·ε) ≈ 1e-14 of that magnitude at the sizes this engine
// runs, several orders below relTol, while the injected faults (an
// exponent-bit flip, a constant scale factor) overshoot it by many more.
const relTol = 1e-9

// bandContrib is one committed block's freshly written cells inside a
// band, remembered until the band verifies so a mismatch can be
// attributed to (and charged against) the worker that computed it.
type bandContrib struct {
	from partition.Proc
	runs []matrix.Run
}

// bandState tracks one band of BlockSize C rows through verification.
type bandState struct {
	r0, r1    int
	remaining int                  // undone cells; 0 triggers verification
	contrib   map[int]*bandContrib // by block id
}

// integrity is the engine's ABFT layer. It lives entirely on the
// supervisor goroutine: workers never see checksums, so they cannot
// forge them.
type integrity struct {
	e     *engine
	bs    int
	bands []*bandState

	// stripeW[t] = 1/s_t, the weight of column stripe t, and rowSumB[k]
	// = Σ_j w_j·B[k][j], the row check's reference vector. Precomputed
	// once, O(n²).
	stripeW []float64
	rowSumB []float64

	// aband[band][k] = Σ_{i in band} A[i][k]; built lazily per band,
	// because only suspect bands need column localization.
	aband       map[int][]float64
	abandAbsMax map[int]float64
	// colAbsB[j] = Σ_k |B[k][j]|, built lazily with the first aband.
	colAbsB []float64

	strikes map[partition.Proc]int
	budget  int
}

// newIntegrity builds the band table and the B-side references. Called
// after checkpoint replay: a band fully restored from the journal was
// verified before it was flushed (records are appended only on band
// verification) and its records passed the per-record checksum, so it
// is trusted; partially restored bands are re-verified whole once their
// remaining cells are computed.
func newIntegrity(e *engine) *integrity {
	n, bs := e.n, e.cfg.BlockSize
	nb := (n + bs - 1) / bs
	in := &integrity{
		e:           e,
		bs:          bs,
		bands:       make([]*bandState, nb),
		stripeW:     make([]float64, nb), // C is square: nb column stripes
		rowSumB:     make([]float64, n),
		aband:       make(map[int][]float64),
		abandAbsMax: make(map[int]float64),
		strikes:     make(map[partition.Proc]int),
		budget:      e.cfg.MismatchBudget,
	}
	if in.budget <= 0 {
		in.budget = defaultMismatchBudget
	}
	for b := range in.bands {
		bnd := &bandState{r0: b * bs, r1: min(b*bs+bs, n), contrib: make(map[int]*bandContrib)}
		for _, done := range e.doneMask[bnd.r0*n : bnd.r1*n] {
			if !done {
				bnd.remaining++
			}
		}
		in.bands[b] = bnd
	}
	bd := e.b.Data()
	for k := 0; k < n; k++ {
		for t := range in.stripeW {
			sa := 0.0
			for _, v := range bd[k*n+t*bs : k*n+min(t*bs+bs, n)] {
				sa += math.Abs(v)
			}
			in.stripeW[t] = max(in.stripeW[t], sa) // s_t, inverted below
		}
	}
	zeroW := 0.0 // the lightest nonzero stripe's weight, for all-zero ones
	for t, s := range in.stripeW {
		if s > 0 {
			in.stripeW[t] = 1 / s
			zeroW = max(zeroW, in.stripeW[t])
		}
	}
	if zeroW == 0 {
		zeroW = 1 // B is all zero
	}
	for t, s := range in.stripeW {
		if s == 0 {
			in.stripeW[t] = zeroW
		}
	}
	for k := 0; k < n; k++ {
		in.rowSumB[k] = in.weightedSum(bd[k*n : (k+1)*n])
	}
	return in
}

// weightedSum returns Σ_j w_j·row[j] over one full row, stripe by
// stripe.
func (in *integrity) weightedSum(row []float64) float64 {
	sum := 0.0
	for t, w := range in.stripeW {
		s := 0.0
		for _, v := range row[t*in.bs : min(t*in.bs+in.bs, len(row))] {
			s += v
		}
		sum += w * s
	}
	return sum
}

// blockCommitted records a committed block's fresh cells against its
// band and verifies the band once its last cell lands. When the block
// is an integrity re-lease, the recompute is first compared against the
// discarded values; a difference means at least one of the two parties
// is wrong, so the supervisor settles it by computing the first
// differing cell itself (O(n), and exact — same ascending-k order as
// the workers) and strikes whichever side disagrees with the truth.
// Disagreement alone convicts nobody: a corrupt recomputer must not be
// able to frame the honest worker whose block it re-leased.
func (in *integrity) blockCommitted(r blockResult, fresh []matrix.Run) error {
	if r.task.prior != nil {
		for i, idx := range runIndices(r.task.runs, in.e.n) {
			if r.vals[i] != r.task.prior[i] &&
				!(math.IsNaN(r.vals[i]) && math.IsNaN(r.task.prior[i])) {
				truth := in.trueCell(idx)
				if pv := r.task.prior[i]; pv != truth {
					if err := in.strike(r.task.priorFrom); err != nil {
						return err
					}
				}
				if r.vals[i] != truth {
					if err := in.strike(r.from); err != nil {
						return err
					}
				}
				break
			}
		}
	}
	bnd := in.bands[fresh[0].Row/in.bs]
	bnd.contrib[r.task.id] = &bandContrib{from: r.from, runs: fresh}
	bnd.remaining -= runCells(fresh)
	if bnd.remaining > 0 {
		return nil
	}
	return in.verifyBand(bnd)
}

// strike charges worker w one uncorrectable mismatch; past the budget
// it is quarantined as Byzantine — unless it is the last worker
// standing, where eviction would end the run with work unfinished. A
// sole survivor that keeps mismatching far past the budget is a hard
// error: there is no honest worker left to produce a correct product.
func (in *integrity) strike(w partition.Proc) error {
	in.strikes[w]++
	e := in.e
	if in.strikes[w] <= in.budget || !e.alive[w] {
		return nil
	}
	if len(e.survivorsBySpeed()) > 1 {
		e.em.corruption("quarantined")
		return e.evict(w, time.Now(), true)
	}
	if in.strikes[w] > 10*in.budget {
		return fmt.Errorf("exec: sole surviving worker %v exceeded the mismatch budget (%d uncorrectable mismatches)", w, in.strikes[w])
	}
	return nil
}

// checkRows returns the band rows whose weighted C sums disagree with
// the A·rowSumB reference beyond tolerance.
func (in *integrity) checkRows(bnd *bandState) []int {
	e := in.e
	n := e.n
	cd, ad := e.c.Data(), e.a.Data()
	var bad []int
	for i := bnd.r0; i < bnd.r1; i++ {
		sum := in.weightedSum(cd[i*n : (i+1)*n])
		ref, absA := 0.0, 0.0
		for k, v := range ad[i*n : (i+1)*n] {
			ref += v * in.rowSumB[k]
			absA += math.Abs(v)
		}
		tol := relTol * absA
		// NaN compares false against everything: a corrupted cell that
		// went non-finite must still read as suspect.
		if d := math.Abs(sum - ref); d > tol || math.IsNaN(d) {
			bad = append(bad, i)
		}
	}
	return bad
}

// checkCols is the column-side localizer, paid only by suspect bands.
func (in *integrity) checkCols(bnd *bandState) []int {
	e := in.e
	n := e.n
	b := bnd.r0 / in.bs
	band, ok := in.aband[b]
	if !ok {
		band = make([]float64, n)
		maxAbs := 0.0
		ad := e.a.Data()
		for k := 0; k < n; k++ {
			s, sa := 0.0, 0.0
			for i := bnd.r0; i < bnd.r1; i++ {
				s += ad[i*n+k]
				sa += math.Abs(ad[i*n+k])
			}
			band[k] = s
			if sa > maxAbs {
				maxAbs = sa
			}
		}
		in.aband[b] = band
		in.abandAbsMax[b] = maxAbs
	}
	if in.colAbsB == nil {
		bd := e.b.Data()
		in.colAbsB = make([]float64, n)
		for k := 0; k < n; k++ {
			for j := 0; j < n; j++ {
				in.colAbsB[j] += math.Abs(bd[k*n+j])
			}
		}
	}
	cd, bd := e.c.Data(), e.b.Data()
	var bad []int
	for j := 0; j < n; j++ {
		sum := 0.0
		for i := bnd.r0; i < bnd.r1; i++ {
			sum += cd[i*n+j]
		}
		ref := 0.0
		for k := 0; k < n; k++ {
			ref += band[k] * bd[k*n+j]
		}
		tol := relTol * in.colAbsB[j] * in.abandAbsMax[b]
		if d := math.Abs(sum - ref); d > tol || math.IsNaN(d) {
			bad = append(bad, j)
		}
	}
	return bad
}

// verifyBand checks a completed band, correcting a localized single
// cell in place or discarding and re-leasing the mismatching blocks.
func (in *integrity) verifyBand(bnd *bandState) error {
	e := in.e
	e.stats.IntegrityChecks++
	e.em.integrityCheck()

	badRows := in.checkRows(bnd)
	if len(badRows) == 0 {
		return in.pass(bnd)
	}
	badCols := in.checkCols(bnd)
	if len(badRows) == 1 && len(badCols) == 1 {
		// A single suspect cell: recompute it exactly from the
		// supervisor's pristine A/B (same ascending-k order as the kij
		// kernel, so the corrected value is bit-identical to serial).
		in.correctCell(badRows[0], badCols[0])
		if badRows = in.checkRows(bnd); len(badRows) == 0 {
			e.stats.CorruptionsCorrected++
			e.em.corruption("corrected")
			return in.pass(bnd)
		}
		badCols = in.checkCols(bnd)
	}
	return in.discard(bnd, badRows, badCols)
}

func (in *integrity) pass(bnd *bandState) error {
	err := in.flushBand(bnd)
	clear(bnd.contrib)
	return err
}

// flushBand appends the band's verified contributions to the
// checkpoint journal (deferred from commit so the journal only ever
// holds verified blocks).
func (in *integrity) flushBand(bnd *bandState) error {
	e := in.e
	if e.ckpt == nil {
		return nil
	}
	ids := make([]int, 0, len(bnd.contrib))
	for id := range bnd.contrib {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	cd := e.c.Data()
	for _, id := range ids {
		cells := runIndices(bnd.contrib[id].runs, e.n)
		vals := make([]float64, len(cells))
		for i, idx := range cells {
			vals[i] = cd[idx]
		}
		if err := e.ckpt.AppendPayload(newCkptRecord(id, cells, vals)); err != nil {
			return fmt.Errorf("exec: checkpoint: %w", err)
		}
	}
	return nil
}

func (in *integrity) correctCell(i, j int) {
	n := in.e.n
	in.e.c.Data()[i*n+j] = in.trueCell(int32(i*n + j))
}

// trueCell computes one C cell exactly from the supervisor's pristine
// A/B, in the same strictly ascending k order as the kij kernel and the
// workers' computeBlock, so it is bit-identical to what an honest
// worker returns.
func (in *integrity) trueCell(idx int32) float64 {
	e := in.e
	n := e.n
	i, j := int(idx)/n, int(idx)%n
	ad, bd := e.a.Data(), e.b.Data()
	s := 0.0
	arow := ad[i*n : (i+1)*n]
	for k := 0; k < n; k++ {
		s += arow[k] * bd[k*n+j]
	}
	return s
}

// discard throws away the band's mismatching blocks: every
// contribution owning a cell at a suspect (row, column) intersection is
// withdrawn and its cells are re-leased to a different worker, carrying
// the discarded values along — the recompute either reproduces them bit
// for bit (the block was innocent, swept up by a neighbour's corruption)
// or differs, which convicts the original computer and counts toward its
// mismatch budget (see strike). Suspect cells restored from a
// checkpoint (no contribution to blame) are recomputed without
// charging anyone.
func (in *integrity) discard(bnd *bandState, badRows, badCols []int) error {
	e := in.e
	n := e.n

	// suspect marks the band's suspect cells, its rows from bnd.r0 on.
	suspect := make([]bool, (bnd.r1-bnd.r0)*n)
	for _, i := range badRows {
		for _, j := range badCols {
			suspect[(i-bnd.r0)*n+j] = true
		}
	}
	var discardIDs []int
	for id, bc := range bnd.contrib {
		for _, r := range bc.runs {
			if at := (r.Row - bnd.r0) * n; slices.Contains(suspect[at+r.J0:at+r.J1], true) {
				discardIDs = append(discardIDs, id)
				break
			}
		}
	}
	if len(discardIDs) == 0 {
		// Mismatch with no localizable intersection (corruptions
		// cancelling across lines): withdraw every contribution in the
		// band and treat all cells of every suspect line as suspect, so
		// progress is guaranteed.
		for id := range bnd.contrib {
			discardIDs = append(discardIDs, id)
		}
		for _, i := range badRows {
			for j := 0; j < n; j++ {
				suspect[(i-bnd.r0)*n+j] = true
			}
		}
		for _, j := range badCols {
			for i := bnd.r0; i < bnd.r1; i++ {
				suspect[(i-bnd.r0)*n+j] = true
			}
		}
	}
	sort.Ints(discardIDs)

	cd := e.c.Data()
	for _, id := range discardIDs {
		bc := bnd.contrib[id]
		delete(bnd.contrib, id)
		cells := runIndices(bc.runs, n)
		prior := make([]float64, len(cells))
		for i, idx := range cells {
			prior[i] = cd[idx]
			e.doneMask[idx] = false
			cd[idx] = 0
			e.doneCells--
			bnd.remaining++
		}
		e.stats.BlocksRecomputed++
		e.em.corruption("recomputed")

		nt := &blockTask{id: e.nextID, owner: in.releaseTarget(bc.from), runs: bc.runs,
			prior: prior, priorFrom: bc.from}
		e.nextID++
		e.buildPatch(nt)
		e.pending[nt.owner] = append(e.pending[nt.owner], nt)
		e.stats.BlocksReassigned++
		e.em.block("reassigned", 1)
	}

	// Suspect cells nobody contributed (restored from a checkpoint
	// record whose journal checksum passed, so this is the cancellation
	// fallback above, not silent disk corruption): recompute them too.
	// The discarded blocks' cells are undone by now, so these are the
	// suspect cells still done.
	var orphans []matrix.Run
	for i := bnd.r0; i < bnd.r1; i++ {
		for j := 0; j < n; j++ {
			idx := i*n + j
			if !suspect[idx-bnd.r0*n] || !e.doneMask[idx] {
				continue
			}
			e.doneMask[idx] = false
			cd[idx] = 0
			e.doneCells--
			bnd.remaining++
			if m := len(orphans) - 1; m >= 0 && orphans[m].Row == i && orphans[m].J1 == j {
				orphans[m].J1++
			} else {
				orphans = append(orphans, matrix.Run{Row: i, J0: j, J1: j + 1})
			}
		}
	}
	if len(orphans) > 0 {
		nt := &blockTask{id: e.nextID, owner: e.survivorsBySpeed()[0], runs: orphans}
		e.nextID++
		e.buildPatch(nt)
		e.pending[nt.owner] = append(e.pending[nt.owner], nt)
		e.stats.BlocksReassigned++
		e.em.block("reassigned", 1)
	}

	e.dispatchWaiting()
	return nil
}

// releaseTarget picks the fastest alive worker other than the offender
// to recompute a discarded block; a sole-survivor offender retries its
// own work (a transient flipper may well succeed, and a persistent one
// runs out of mismatch budget).
func (in *integrity) releaseTarget(offender partition.Proc) partition.Proc {
	s := in.e.survivorsBySpeed()
	for _, v := range s {
		if v != offender {
			return v
		}
	}
	return offender
}

// flipExponent returns v with one previously clear high exponent bit
// set (bits 58–62 of the IEEE-754 layout), which multiplies the
// magnitude by at least 2^64 — or turns 0 into 2 — so an injected flip
// is always far outside the checksum tolerance and the drill measures
// the detector, not the injector's luck. If every candidate bit is set
// the top one is cleared instead, an equally massive perturbation.
func flipExponent(v float64, rng *rand.Rand) float64 {
	bits := math.Float64bits(v)
	if v == 0 {
		return math.Float64frombits(bits | 1<<62)
	}
	var clear []uint
	for b := uint(58); b <= 62; b++ {
		if bits&(1<<b) == 0 {
			clear = append(clear, b)
		}
	}
	if len(clear) == 0 {
		return math.Float64frombits(bits &^ (1 << 62))
	}
	return math.Float64frombits(bits | 1<<clear[rng.Intn(len(clear))])
}
