package exec

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/journal"
	"repro/internal/matrix"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/partition"
	"repro/internal/sim"
	"repro/internal/throttle"
	"repro/internal/trace"
	"repro/internal/twoproc"
)

const (
	defaultBlockSize = 32
	defaultHeartbeat = 5 * time.Millisecond
	defaultLease     = 250 * time.Millisecond
)

// blockTask is one schedulable unit: a set of C cells (one owner's
// cells in one band of BlockSize rows, across the full width) plus any
// A/B lines the assignee must receive before it can compute them
// (re-plan and re-lease patches). Every task has an id of its own.
type blockTask struct {
	id    int
	owner partition.Proc
	// runs are the task's cells as maximal row runs, in row-major order,
	// all inside one band: the only description of a task's region.
	runs []matrix.Run
	// patch*: whole A rows and B columns delivered with the task, n
	// values each (a B column top to bottom). The assignee adds them to
	// its views before computing; the supervisor never touches worker
	// memory directly. A re-plan attaches all of a survivor's missing
	// lines to its first task.
	patchRows, patchCols []int32
	patchA, patchB       []float64
	// local marks an SCO/PCO overlap task: its owner holds every A row
	// and B column it needs, so it runs without waiting on the exchange.
	// Only the initial cut makes local tasks.
	local bool
	// prior holds the discarded values (per cell) when this task is an
	// integrity re-lease of a block withdrawn at band verification, and
	// priorFrom the worker that computed them. Honest blocks recompute
	// bit-identically, so a differing recompute convicts priorFrom of
	// the mismatch — attribution by evidence, not by suspicion.
	prior     []float64
	priorFrom partition.Proc
}

// blockResult is a worker's completed block. injected marks results the
// fault plan actually corrupted; it is ground truth for the stats only
// — the verifier never reads it.
type blockResult struct {
	task     *blockTask
	from     partition.Proc
	vals     []float64 // per cell of task.runs, in order
	injected bool
}

// runCells returns how many cells runs hold.
func runCells(runs []matrix.Run) int {
	c := 0
	for _, r := range runs {
		c += r.J1 - r.J0
	}
	return c
}

// execMetrics is the engine's optional instrumentation surface.
type execMetrics struct {
	blocks     *metrics.CounterVec // exec_blocks_total{state}
	recoveries *metrics.CounterVec // exec_recoveries_total{kind}
	recLatency *metrics.Histogram  // exec_recovery_latency_seconds
	integrity  *metrics.Counter    // exec_integrity_checks_total
	corrupted  *metrics.CounterVec // exec_corruptions_total{outcome}
}

func newExecMetrics(reg *metrics.Registry) *execMetrics {
	if reg == nil {
		return nil
	}
	return &execMetrics{
		blocks: reg.NewCounterVec("exec_blocks_total",
			"Block tasks by terminal state (done, reassigned, discarded, rejected).", "state"),
		recoveries: reg.NewCounterVec("exec_recoveries_total",
			"Recovery events by kind (replan-2proc, replan-serial).", "kind"),
		recLatency: reg.Histogram("exec_recovery_latency_seconds",
			"Stall from a lost worker's last heartbeat to its work being re-planned.",
			[]float64{.01, .025, .05, .1, .25, .5, 1, 2.5}),
		integrity: reg.Counter("exec_integrity_checks_total",
			"C row bands ABFT-verified against supervisor-side checksum references."),
		corrupted: reg.NewCounterVec("exec_corruptions_total",
			"Detected result corruptions by outcome (corrected, recomputed, quarantined).", "outcome"),
	}
}

func (m *execMetrics) block(state string, n int) {
	if m != nil {
		m.blocks.With(state).Add(int64(n))
	}
}

func (m *execMetrics) recovery(kind string) {
	if m != nil {
		m.recoveries.With(kind).Inc()
	}
}

func (m *execMetrics) latency(d time.Duration) {
	if m != nil {
		m.recLatency.Observe(d.Seconds())
	}
}

func (m *execMetrics) integrityCheck() {
	if m != nil {
		m.integrity.Inc()
	}
}

func (m *execMetrics) corruption(outcome string) {
	if m != nil {
		m.corrupted.With(outcome).Inc()
	}
}

// engine is the supervised block scheduler behind MultiplyContext. The
// supervisor goroutine owns all scheduling state (pending queues, active
// leases, the C matrix, the checkpoint journal); workers own only their
// local matrix views and communicate through channels, so a worker that
// is killed or hangs mid-run can never corrupt shared state — it just
// stops heartbeating and loses its lease.
type engine struct {
	cfg  Config
	g    *partition.Grid
	a, b *matrix.Dense
	n    int

	c     *matrix.Dense
	stats *Stats

	plan *exchangePlan
	// views are each worker's private A rows and B columns: its own
	// cells from the start, the exchanged ones as they land. Worker w's
	// exchange goroutine writes views[w] until w's last panel has
	// landed; from then on only w does, widening it for task patches.
	views [partition.NumProcs]view
	// panel is the exchange's delivery width in pivots: n, or
	// matrix.PivotChunk for PIO. ready[w][p] closes once panel p of w's
	// exchanged A columns and B rows has been applied.
	panel int
	ready [partition.NumProcs][]chan struct{}
	// holds is the supervisor's record of which A rows and B columns each
	// worker holds, built on first use by have: re-plans and re-leases
	// patch only the lines that are missing.
	holds [partition.NumProcs]*lineSet

	doneMask   []bool
	doneCells  int
	totalCells int

	pending   map[partition.Proc][]*blockTask
	active    map[partition.Proc]*blockTask // each worker's dispatched, unreported task
	waiting   map[partition.Proc]bool
	alive     map[partition.Proc]bool
	byzantine map[partition.Proc]bool
	nextID    int

	integ *integrity // nil unless cfg.Verify

	beats [partition.NumProcs]atomic.Int64 // unix nanos of each worker's last heartbeat

	reqCh  chan partition.Proc
	resCh  chan blockResult
	assign map[partition.Proc]chan *blockTask

	runCtx context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	ckpt *journal.Writer

	hb, lease time.Duration
	em        *execMetrics
}

func newEngine(ctx context.Context, cfg Config, g *partition.Grid, a, b *matrix.Dense) (*engine, error) {
	n := g.N()
	e := &engine{
		cfg:        cfg,
		g:          g,
		a:          a,
		b:          b,
		n:          n,
		c:          matrix.New(n),
		stats:      &Stats{},
		plan:       newExchangePlan(g),
		doneMask:   make([]bool, n*n),
		totalCells: n * n,
		pending:    make(map[partition.Proc][]*blockTask, partition.NumProcs),
		active:     make(map[partition.Proc]*blockTask, partition.NumProcs),
		waiting:    make(map[partition.Proc]bool, partition.NumProcs),
		alive:      make(map[partition.Proc]bool, partition.NumProcs),
		byzantine:  make(map[partition.Proc]bool, partition.NumProcs),
		reqCh:      make(chan partition.Proc),
		resCh:      make(chan blockResult, 2*partition.NumProcs),
		assign:     make(map[partition.Proc]chan *blockTask, partition.NumProcs),
		hb:         cfg.HeartbeatEvery,
		lease:      cfg.LeaseTimeout,
		em:         newExecMetrics(cfg.Metrics),
	}
	if e.hb <= 0 {
		e.hb = defaultHeartbeat
	}
	if e.lease <= 0 {
		e.lease = defaultLease
	}
	if e.lease < 2*e.hb {
		e.lease = 2 * e.hb
	}
	if cfg.BlockSize <= 0 {
		e.cfg.BlockSize = defaultBlockSize
	}
	e.cfg.BlockSize = min(e.cfg.BlockSize, n) // one band covers everything
	e.panel = n
	if cfg.Algorithm == model.PIO {
		e.panel = matrix.PivotChunk
	}
	for _, p := range partition.Procs {
		e.assign[p] = make(chan *blockTask, 1)
		e.alive[p] = true
	}
	if err := e.openCheckpoint(); err != nil {
		return nil, err
	}
	if cfg.Verify {
		e.integ = newIntegrity(e)
	}
	e.runCtx, e.cancel = context.WithCancel(ctx)
	return e, nil
}

// run drives the whole execution: start the exchange, supervise the
// compute phase beside it, and assemble the stats.
func (e *engine) run() (*matrix.Dense, *Stats, error) {
	defer func() {
		if e.ckpt != nil {
			e.ckpt.Close()
		}
	}()
	defer e.cancel()
	start := time.Now()
	// Cut the initial tasks beside the exchange's seeding: the cutter
	// reads only the plan and the done mask, and the exchange never
	// touches the task lists.
	built := make(chan struct{})
	go func() {
		defer close(built)
		e.buildInitialTasks()
	}()
	delivered := e.exchange()
	<-built
	var err error
	if e.doneCells < e.totalCells {
		err = e.supervise()
	}
	// The exchange never blocks for long and never outlives the call.
	<-delivered
	if err != nil {
		return nil, nil, err
	}

	// Virtual clocks of the fault-free plan: the model's estimate for the
	// partition (recovery overhead is reported separately in the stats,
	// not folded into the model times).
	bd := model.EvaluateGrid(e.cfg.Algorithm, e.cfg.Machine, e.g)
	e.stats.VirtualComm, e.stats.VirtualComp, e.stats.VirtualExe = bd.Comm, bd.Comp, bd.Total
	e.stats.Wall = time.Since(start)
	return e.c, e.stats, nil
}

// lineSet is a set of A rows and B columns: those a worker holds once
// its exchange and the patches handed to it have landed, or those a
// re-plan's cells span.
type lineSet struct{ rows, cols []bool }

// have returns worker v's line set, building it from the plan on first
// use (a fault-free run never needs it): every row and column v owns a
// cell in. buildPatch and unpatch keep it current from there.
func (e *engine) have(v partition.Proc) *lineSet {
	if e.holds[v] == nil {
		f := &e.plan.first[v]
		h := &lineSet{rows: make([]bool, e.n), cols: make([]bool, e.n)}
		for l := range h.rows {
			h.rows[l], h.cols[l] = f.aRow[l] >= 0, f.bCol[l] >= 0
		}
		e.holds[v] = h
	}
	return e.holds[v]
}

// buildInitialTasks queues the not-yet-done region (everything, unless a
// checkpoint was resumed): the plan's owner runs, less the done cells,
// through the cutter, local tasks first under SCO and PCO.
func (e *engine) buildInitialTasks() {
	var skip []bool
	if e.doneCells > 0 {
		skip = e.doneMask
	}
	overlap := e.cfg.Algorithm == model.SCO || e.cfg.Algorithm == model.PCO
	for _, t := range e.cut(e.plan.ownerRuns, skip, overlap) {
		e.pending[t.owner] = append(e.pending[t.owner], t)
		e.stats.Blocks++
	}
}

// cut is the one cutter of block tasks, for the initial cut and every
// re-plan. It cuts the cells of the owner runs o that skip does not mark
// (every cell, if skip is nil) into (band, owner) tasks with fresh ids,
// returned in queue order: one task per owner per band of BlockSize
// rows, bands in order and R, S, P within a band. With overlap (SCO and
// PCO) each (band, owner) group is cut in two, its local cells — those
// whose owner holds their whole A row and B column — and the rest, and
// every local task comes first: that is the bulk overlap, computing what
// needs no exchanged data while the exchange is in flight. Which cells
// are local is read from the plan's lines, so only the plan's own runs
// are cut with overlap.
func (e *engine) cut(o ownerRuns, skip []bool, overlap bool) []*blockTask {
	n := e.n
	runs := make([]matrix.Run, 0, len(o.runs))
	// add appends the unskipped cells of row i, columns [j0, j1), as runs.
	add := func(i, j0, j1 int) {
		if skip == nil {
			if j0 < j1 {
				runs = append(runs, matrix.Run{Row: i, J0: j0, J1: j1})
			}
			return
		}
		runs = appendUnmarked(runs, skip[i*n:(i+1)*n], i, j0, j1)
	}
	// group returns owner p's task of rows [r0, r1): its local cells, or
	// the rest; nil if it has none.
	group := func(r0, r1 int, p partition.Proc, local bool) *blockTask {
		q0 := len(runs)
		for i := r0; i < r1; i++ {
			row := o.row(i)
			var full []span // the columns of row i whose cells are local
			if overlap && len(row) == 1 && row[0].p == p {
				full = e.plan.full[p]
			}
			for _, r := range row {
				if r.p != p {
					continue
				}
				j := int(r.j0)
				for _, f := range full {
					lo, hi := max(int(f.lo), j), min(int(f.hi), int(r.j1))
					if lo >= hi {
						continue
					}
					if local {
						add(i, lo, hi)
					} else {
						add(i, j, lo)
					}
					j = hi
				}
				if !local {
					add(i, j, int(r.j1))
				}
			}
		}
		if len(runs) == q0 {
			return nil
		}
		return &blockTask{owner: p, runs: runs[q0:len(runs):len(runs)], local: local}
	}
	var local, gated []*blockTask
	for r0 := 0; r0 < n; r0 += e.cfg.BlockSize {
		r1 := min(r0+e.cfg.BlockSize, n)
		for _, p := range partition.Procs {
			if overlap {
				if t := group(r0, r1, p, true); t != nil {
					local = append(local, t)
				}
			}
			if t := group(r0, r1, p, false); t != nil {
				gated = append(gated, t)
			}
		}
	}
	tasks := append(local, gated...)
	for _, t := range tasks {
		t.id = e.nextID
		e.nextID++
	}
	return tasks
}

// appendUnmarked appends the columns [j0, j1) of row i that row, the
// row's mask, leaves unmarked, as maximal runs.
func appendUnmarked(runs []matrix.Run, row []bool, i, j0, j1 int) []matrix.Run {
	for j := j0; j < j1; {
		if row[j] {
			j++
			continue
		}
		lo := j
		for j < j1 && !row[j] {
			j++
		}
		runs = append(runs, matrix.Run{Row: i, J0: lo, J1: j})
	}
	return runs
}

// supervise runs the compute phase: workers pull blocks, the supervisor
// commits results, checkpoints them, and watches leases for losses. A
// worker asks for work once; after that each result it reports is its
// request for the next block, which the supervisor hands out before it
// commits and verifies the result, so that supervision overlaps the
// worker's next computation.
func (e *engine) supervise() error {
	defer e.cancel()

	now := time.Now().UnixNano()
	for i := range e.beats {
		e.beats[i].Store(now)
	}
	for _, p := range partition.Procs {
		flops := int64(0)
		for _, t := range e.pending[p] {
			flops += int64(runCells(t.runs)) * int64(e.n)
		}
		e.wg.Add(1)
		go e.workerLoop(p, flops)
	}
	// Whatever happens, release every worker — including hung ones —
	// before returning, so no goroutine outlives the call.
	defer e.wg.Wait()
	defer e.cancel()

	ticker := time.NewTicker(e.hb)
	defer ticker.Stop()
	for e.doneCells < e.totalCells {
		select {
		case <-e.runCtx.Done():
			return e.runCtx.Err()
		case w := <-e.reqCh:
			e.handleRequest(w)
		case r := <-e.resCh:
			if e.active[r.from] == r.task {
				e.active[r.from] = nil
			}
			e.handleRequest(r.from)
			if err := e.commit(r); err != nil {
				return err
			}
		case <-ticker.C:
			if err := e.checkHealth(time.Now()); err != nil {
				return err
			}
		}
	}
	// Drain results that raced the finish so the stats see every
	// delivered corruption (a quarantined worker's rejected result, a
	// late result of a worker declared lost) before the run reports.
	for {
		select {
		case r := <-e.resCh:
			if err := e.commit(r); err != nil {
				return err
			}
		default:
			return nil
		}
	}
}

// workerLoop is one processor: request a block once, then compute each
// block it is handed and report it (the report asks for the next),
// heartbeating throughout — unless the fault plan kills or hangs it
// first. A kill or hang fires inside a block, after the pivot chunk that
// takes the worker's progress (flops computed over flops initially
// assigned) to the fate's fraction: the worker dies holding its lease
// and never reports that block, whatever the block size.
func (e *engine) workerLoop(w partition.Proc, initFlops int64) {
	defer e.wg.Done()
	sp := e.tr("worker " + w.String())
	blocks := 0
	defer func() {
		if sp != nil {
			sp.SetDetail("blocks=%d", blocks)
			sp.End()
		}
	}()

	fate, frac := e.cfg.Faults.WorkerFateFor(w)
	fireAt := math.Inf(1) // flops computed at which the fate fires
	if fate != sim.FateNone {
		fireAt = frac * float64(initFlops)
	}
	slow := e.cfg.Faults.WorkerSlowdown(w)
	corrupt, cval := e.cfg.Faults.WorkerCorruption(w)
	var crng *rand.Rand
	if corrupt != sim.FateNone {
		crng = rand.New(rand.NewSource(0x1e57 + int64(w)))
	}
	var lim *throttle.Limiter
	if e.cfg.Pace || slow > 1 {
		baseRate := e.cfg.PaceFlopsPerSec
		if baseRate <= 0 {
			baseRate = 5e7
		}
		lim = throttle.MustNew(baseRate * e.cfg.Machine.Ratio.Speed(w) / slow)
	}

	// Every task lies inside one band of BlockSize rows (the cutter cuts
	// them so, and a re-lease keeps cells of one band), so the worker's
	// own C is one band.
	scratch := make([]float64, e.cfg.BlockSize*e.n)
	var done int64
	e.beat(w)
	select {
	case <-e.runCtx.Done():
		return
	case e.reqCh <- w:
	}
	for {
		var t *blockTask
		select {
		case <-e.runCtx.Done():
			return
		case t = <-e.assign[w]:
		}
		vals, ok := e.computeBlock(w, t, lim, scratch, fireAt-float64(done))
		if !ok {
			if fate == sim.FateHang {
				// Hold the lease, stop heartbeating, block until the run
				// is over.
				<-e.runCtx.Done()
			}
			return
		}
		injected := false
		switch corrupt {
		case sim.FateScale:
			// Systematic corruption: every returned value is scaled, a
			// self-consistent wrongness only supervisor-side references
			// catch.
			for i := range vals {
				vals[i] *= cval
			}
			injected = len(vals) > 0
		case sim.FateFlip:
			// Transient corruption: one cell of the block, with the
			// configured per-block probability.
			if len(vals) > 0 && crng.Float64() < cval {
				ci := crng.Intn(len(vals))
				vals[ci] = flipExponent(vals[ci], crng)
				injected = true
			}
		}
		done += int64(runCells(t.runs)) * int64(e.n)
		blocks++
		select {
		case <-e.runCtx.Done():
			return
		case e.resCh <- blockResult{task: t, from: w, vals: vals, injected: injected}:
		}
	}
}

// computeBlock computes the block's C cells bit-identically to the
// serial kij kernel: the task's runs go through matrix.MulRunsLines on
// w's views, one pivot chunk at a time, so heartbeats and pacing
// interleave with the work. A patched task first widens w's views by the
// patch's lines. Before each chunk [k0, k1) a task that is not local
// waits at the delivery gate until w holds its exchanged pivots below
// k1; the gate, and which tasks skip it, is the only difference between
// the five algorithms' schedules.
// scratch is the worker's own C for the task's band of BlockSize rows;
// the block's cells are zeroed first, because the worker reuses it from
// band to band and can be handed cells it computed before (an integrity
// re-lease on a sole survivor). It returns false, without the values, once
// the flops computed in the block reach fireIn (the worker's kill or
// hang fate has fired) or the run is cancelled at the gate.
func (e *engine) computeBlock(w partition.Proc, t *blockTask, lim *throttle.Limiter, scratch []float64, fireIn float64) ([]float64, bool) {
	n := e.n
	if len(t.patchRows) > 0 || len(t.patchCols) > 0 {
		// Widening moves every line of w's views, so it waits until w's
		// exchange goroutine has written its last panel into them.
		if !e.await(w, n) {
			return nil, false
		}
		e.views[w] = e.views[w].widen(n, t)
	}
	v, runs := e.views[w], t.runs
	row0 := runs[0].Row / e.cfg.BlockSize * e.cfg.BlockSize
	// band returns run r's cells in scratch.
	band := func(r matrix.Run) []float64 {
		return scratch[(r.Row-row0)*n+r.J0 : (r.Row-row0)*n+r.J1]
	}
	for _, r := range runs {
		clear(band(r))
	}
	cells := int64(runCells(t.runs))
	for k0 := 0; k0 < n; k0 += matrix.PivotChunk {
		k1 := min(k0+matrix.PivotChunk, n)
		if !t.local && !e.await(w, k1) {
			return nil, false
		}
		matrix.MulRunsLines(scratch, row0, v.a, v.aRow, v.b, v.bCol, runs, k0, k1)
		if float64(cells*int64(k1)) >= fireIn {
			return nil, false
		}
		e.beat(w)
		if lim != nil {
			e.pacedAcquire(w, lim, cells*int64(k1-k0))
		}
	}
	vals := make([]float64, 0, cells)
	for _, r := range runs {
		vals = append(vals, band(r)...)
	}
	return vals, true
}

// await is the delivery gate: it blocks worker w until its exchanged
// pivots below k1 have landed, heartbeating meanwhile so that a slow
// exchange never reads as a lost worker. It returns false if the run is
// cancelled first.
func (e *engine) await(w partition.Proc, k1 int) bool {
	ready := e.ready[w][(k1-1)/e.panel]
	select {
	case <-ready:
		return true
	default:
	}
	tick := time.NewTicker(e.hb)
	defer tick.Stop()
	for {
		select {
		case <-ready:
			return true
		case <-e.runCtx.Done():
			return false
		case <-tick.C:
			e.beat(w)
		}
	}
}

// pacedAcquire sleeps the worker to its paced rate in slices short
// enough that heartbeats keep flowing — a heavily slowed straggler must
// look slow, not dead. Cancellation interrupts the sleep promptly.
func (e *engine) pacedAcquire(w partition.Proc, lim *throttle.Limiter, flops int64) {
	slice := int64(lim.Rate() * e.hb.Seconds())
	if slice < 1 {
		slice = 1
	}
	for flops > 0 {
		nn := min(flops, slice)
		if err := lim.AcquireContext(e.runCtx, nn); err != nil {
			return
		}
		e.beat(w)
		flops -= nn
	}
}

func (e *engine) beat(w partition.Proc) {
	e.beats[w].Store(time.Now().UnixNano())
}

func (e *engine) lastBeat(w partition.Proc) time.Time {
	return time.Unix(0, e.beats[w].Load())
}

// handleRequest dispatches the worker's next pending block, or parks it
// as idle until a re-plan or a re-lease produces more work.
func (e *engine) handleRequest(w partition.Proc) {
	if q := e.pending[w]; len(q) > 0 {
		t := q[0]
		e.pending[w] = q[1:]
		e.active[w] = t
		// The lease clock starts at assignment: a worker that idled while
		// it had no work (not beating, blocked on the assign channel) must
		// not be declared dead the instant recovery hands it a block.
		e.beat(w)
		e.assign[w] <- t // cap 1; the worker is blocked receiving
		return
	}
	e.waiting[w] = true
}

// dispatchWaiting hands newly created work to parked workers.
func (e *engine) dispatchWaiting() {
	for _, w := range partition.Procs {
		if e.waiting[w] && e.alive[w] && len(e.pending[w]) > 0 {
			e.waiting[w] = false
			e.handleRequest(w)
		}
	}
}

// commit applies a block result. Results from a quarantined (Byzantine)
// worker are rejected outright — its in-flight block may be corrupt and
// its cells were already re-planned. Cells already in C are skipped: a
// worker declared lost that reports after all had its block re-planned,
// so one of the two results finds its cells committed, and a result with
// none fresh is discarded, so neither C nor the stats count it twice.
func (e *engine) commit(r blockResult) error {
	if e.byzantine[r.from] {
		e.stats.ByzantineRejected++
		if r.injected {
			e.stats.InjectedCorruptions++
		}
		e.em.block("rejected", 1)
		return nil
	}
	n, runs := e.n, r.task.runs
	var fresh []matrix.Run // for the verifier
	if e.integ != nil {
		fresh = e.undone(runs)
	}
	cd := e.c.Data()
	count, at := 0, 0
	for _, run := range runs {
		for idx := run.Row*n + run.J0; idx < run.Row*n+run.J1; idx, at = idx+1, at+1 {
			if !e.doneMask[idx] {
				e.doneMask[idx] = true
				cd[idx] = r.vals[at]
				count++
			}
		}
	}
	if count == 0 {
		e.stats.BlocksDiscarded++
		e.em.block("discarded", 1)
		return nil
	}
	if r.injected {
		e.stats.InjectedCorruptions++
	}
	e.doneCells += count
	e.stats.BlocksDone++
	e.stats.Flops[r.from] += int64(len(r.vals)) * int64(n)
	e.em.block("done", 1)
	if e.integ != nil {
		// Verification is band-grained; with a checkpoint configured the
		// journal append is deferred until the block's band verifies.
		return e.integ.blockCommitted(r, fresh)
	}
	if e.ckpt != nil {
		if err := e.ckpt.AppendPayload(newCkptRecord(r.task.id, runIndices(runs, n), r.vals)); err != nil {
			return fmt.Errorf("exec: checkpoint: %w", err)
		}
	}
	return nil
}

// undone returns the cells of runs that C does not hold yet, as runs:
// runs itself while that is all of them.
func (e *engine) undone(runs []matrix.Run) []matrix.Run {
	n := e.n
	for _, r := range runs {
		if slices.Contains(e.doneMask[r.Row*n+r.J0:r.Row*n+r.J1], true) {
			var out []matrix.Run
			for _, r := range runs {
				out = appendUnmarked(out, e.doneMask[r.Row*n:(r.Row+1)*n], r.Row, r.J0, r.J1)
			}
			return out
		}
	}
	return runs
}

// runIndices returns the row-major indices of the cells of runs, in
// order: a checkpoint record's cell list.
func runIndices(runs []matrix.Run, n int) []int32 {
	cells := make([]int32, 0, runCells(runs))
	for _, r := range runs {
		for j := r.J0; j < r.J1; j++ {
			cells = append(cells, int32(r.Row*n+j))
		}
	}
	return cells
}

// checkHealth is the lease scan: workers with outstanding work whose
// heartbeat went stale are declared lost.
func (e *engine) checkHealth(now time.Time) error {
	for _, w := range partition.Procs {
		if !e.alive[w] {
			continue
		}
		if e.active[w] == nil && len(e.pending[w]) == 0 {
			continue // idle workers owe no heartbeat
		}
		if now.Sub(e.lastBeat(w)) > e.lease {
			if err := e.declareLost(w, now); err != nil {
				return err
			}
		}
	}
	return nil
}

// declareLost handles permanent fail-stop worker loss (missed-heartbeat
// lease expiry).
func (e *engine) declareLost(w partition.Proc, now time.Time) error {
	return e.evict(w, now, false)
}

// evict removes worker w from the run — either fail-stop lost (lease
// expiry) or declared Byzantine (mismatch budget exceeded) — and
// re-plans: withdraw every unstarted block, cut the whole remaining
// uncomputed region for the survivors (3→2 with the prior work's optimal
// two-processor shapes, 2→1 serial), attach the A rows and B columns
// each survivor is missing to its first new block, and let in-flight
// survivor blocks finish under their leases. Idempotent: a worker
// already evicted (a quarantine racing its own heartbeat expiry) is left
// alone.
func (e *engine) evict(w partition.Proc, now time.Time, byzantine bool) error {
	if !e.alive[w] {
		return nil
	}
	e.alive[w] = false
	e.waiting[w] = false
	var stall time.Duration
	var sp *trace.Active
	if byzantine {
		e.byzantine[w] = true
		e.stats.Byzantine = append(e.stats.Byzantine, w)
		sp = e.tr("quarantine " + w.String())
	} else {
		e.stats.Lost = append(e.stats.Lost, w)
		stall = now.Sub(e.lastBeat(w))
		sp = e.tr("recovery " + w.String())
	}

	// The withdrawn work: the lost worker's active block, plus every
	// pending block of every worker. Blocks a live survivor is computing
	// right now are left in place.
	var withdrawn []*blockTask
	if t := e.active[w]; t != nil {
		withdrawn = append(withdrawn, t)
		e.active[w] = nil
	}
	for _, p := range partition.Procs {
		for _, t := range e.pending[p] {
			// A withdrawn pending task never delivered its A/B patch: the
			// lines it claimed must be released, or the replacement task
			// would get no patch and its assignee would lack lines it
			// computes with.
			e.unpatch(t)
		}
		withdrawn = append(withdrawn, e.pending[p]...)
		e.pending[p] = nil
	}

	survivors := e.survivorsBySpeed()
	if len(survivors) == 0 {
		return fmt.Errorf("exec: all workers lost, %d of %d cells uncomputed", e.totalCells-e.doneCells, e.totalCells)
	}
	skip, left := e.skipAllBut(withdrawn)
	if left == 0 {
		if sp != nil {
			sp.SetDetail("nothing to re-plan")
			sp.End()
		}
		return nil
	}

	// Cut the withdrawn work under the new ownership; each survivor's
	// first new task carries the lines all of its new tasks miss.
	owners, kind, err := e.replanOwners(survivors)
	if err != nil {
		return err
	}
	newTasks := e.cut(owners, skip, false)
	for _, t := range newTasks {
		e.pending[t.owner] = append(e.pending[t.owner], t)
	}
	for _, v := range survivors {
		if q := e.pending[v]; len(q) > 0 {
			e.buildPatch(q...)
		}
	}
	e.accountRemainderNeed(newTasks)

	e.stats.BlocksReassigned += len(newTasks)
	e.stats.Recoveries++
	e.stats.RecoveryKinds = append(e.stats.RecoveryKinds, kind)
	e.em.block("reassigned", len(newTasks))
	e.em.recovery(kind)
	if !byzantine {
		// Quarantine is a supervisor decision, not a detected stall:
		// recovery latency measures heartbeat silence only.
		e.stats.RecoveryLatency += stall
		e.em.latency(stall)
	}
	if sp != nil {
		sp.SetDetail("%s: %d blocks on %d survivors, +%d elements", kind, len(newTasks), len(survivors), e.stats.RecoveryVolume)
		sp.End()
	}

	e.dispatchWaiting()
	return nil
}

// survivorsBySpeed returns the live workers, fastest first.
func (e *engine) survivorsBySpeed() []partition.Proc {
	var s []partition.Proc
	for _, p := range partition.Procs {
		if e.alive[p] {
			s = append(s, p)
		}
	}
	speed := e.cfg.Machine.Ratio.Speed
	sort.SliceStable(s, func(i, j int) bool { return speed(s[i]) > speed(s[j]) })
	return s
}

// skipAllBut returns a re-plan's skip mask, which marks every cell but
// the undone cells of the withdrawn tasks, and how many cells it leaves.
func (e *engine) skipAllBut(withdrawn []*blockTask) ([]bool, int) {
	skip := make([]bool, len(e.doneMask))
	for i := range skip {
		skip[i] = true
	}
	left := 0
	for _, t := range withdrawn {
		for _, r := range t.runs {
			for idx := r.Row*e.n + r.J0; idx < r.Row*e.n+r.J1; idx++ {
				if !e.doneMask[idx] {
					skip[idx] = false
					left++
				}
			}
		}
	}
	return skip, left
}

// replanOwners returns the owner runs that re-plan the withdrawn work on
// the survivors, fastest first, and the re-plan's kind. Two survivors
// take the prior work's optimal two-processor shape for their speed
// ratio (internal/twoproc), the faster as its P and the slower as its R;
// a sole survivor takes every cell.
func (e *engine) replanOwners(survivors []partition.Proc) (ownerRuns, string, error) {
	fast := survivors[0]
	to := [partition.NumProcs]partition.Proc{fast, fast, fast}
	var g *partition.Grid
	kind := "replan-serial"
	switch len(survivors) {
	case 1:
		g = partition.NewGrid(e.n) // all P
	default:
		kind = "replan-2proc"
		slow := survivors[1]
		speed := e.cfg.Machine.Ratio.Speed
		r2, err := twoproc.NewRatio(speed(fast) / speed(slow))
		if err != nil {
			return ownerRuns{}, "", fmt.Errorf("exec: replan ratio: %w", err)
		}
		shape := twoproc.Optimal(e.cfg.Algorithm, r2)
		if g, err = twoproc.Build(shape, e.n, r2); err != nil {
			return ownerRuns{}, "", fmt.Errorf("exec: replan shape %v: %w", shape, err)
		}
		to[partition.R] = slow
	}
	o := newOwnerRuns(g)
	for i := range o.runs {
		o.runs[i].p = to[o.runs[i].p]
	}
	return o, kind, nil
}

// buildPatch attaches to the first of the tasks, one worker's queued in
// that order, every A row and B column the worker needs for the tasks'
// cells but does not yet hold, whole, updating its line set and the
// recovery-volume accounting: the worker widens its views once, for all
// of them. Lines the worker already holds are never re-sent.
func (e *engine) buildPatch(tasks ...*blockTask) {
	n, t := e.n, tasks[0]
	h := e.have(t.owner)
	ad, bd := e.a.Data(), e.b.Data()
	for _, u := range tasks {
		for _, r := range u.runs {
			if i := r.Row; !h.rows[i] {
				h.rows[i] = true
				t.patchRows = append(t.patchRows, int32(i))
				t.patchA = append(t.patchA, ad[i*n:(i+1)*n]...)
			}
			for j := r.J0; j < r.J1; j++ {
				if !h.cols[j] {
					h.cols[j] = true
					t.patchCols = append(t.patchCols, int32(j))
					for k := 0; k < n; k++ {
						t.patchB = append(t.patchB, bd[k*n+j])
					}
				}
			}
		}
	}
	e.stats.RecoveryVolume += int64(len(t.patchA) + len(t.patchB))
}

// unpatch releases the line claims of a task that was withdrawn before
// its assignee ever received it, reversing buildPatch: the lines ride on
// the task itself, so an undelivered task means the worker does not hold
// them, whatever its line set says. The recovery volume it charged is
// refunded — those elements never moved.
func (e *engine) unpatch(t *blockTask) {
	h := e.have(t.owner)
	for _, i := range t.patchRows {
		h.rows[i] = false
	}
	for _, j := range t.patchCols {
		h.cols[j] = false
	}
	e.stats.RecoveryVolume -= int64(len(t.patchA) + len(t.patchB))
}

// accountRemainderNeed adds what a from-scratch redistribution of a
// re-plan's tasks would move: for each survivor, the A rows and B
// columns its new cells span, less its own cells of those lines in the
// original partition. This is the fault-free volume of the re-planned
// remainder that the recovery study bounds RecoveryVolume against.
func (e *engine) accountRemainderNeed(tasks []*blockTask) {
	n := e.n
	var spans [partition.NumProcs]lineSet
	for _, t := range tasks {
		s := &spans[t.owner]
		if s.rows == nil {
			*s = lineSet{rows: make([]bool, n), cols: make([]bool, n)}
		}
		for _, r := range t.runs {
			s.rows[r.Row] = true
			for j := r.J0; j < r.J1; j++ {
				s.cols[j] = true
			}
		}
	}
	for v, s := range spans {
		for l := range s.rows {
			if s.rows[l] {
				e.stats.RemainderNeed += int64(n - e.g.RowCount(l, partition.Proc(v)))
			}
			if s.cols[l] {
				e.stats.RemainderNeed += int64(n - e.g.ColCount(l, partition.Proc(v)))
			}
		}
	}
}

// tr opens a trace span when tracing is enabled.
func (e *engine) tr(name string) *trace.Active {
	if e.cfg.Trace == nil {
		return nil
	}
	return e.cfg.Trace.Start(name)
}
