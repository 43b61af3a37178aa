package exec

import (
	"context"
	"fmt"
	"math"
	"math/rand"
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

// blockTask is one schedulable unit: a set of C cells (one partition
// owner's cells in one band of BlockSize rows, across the full width)
// plus any A/B fragments the assignee must receive before it can compute
// them (recovery and speculation patches). Tasks created by recovery
// keep fresh ids; a speculative re-execution reuses the original id,
// which is what the commit-side dedup keys on.
type blockTask struct {
	id    int
	owner partition.Proc
	cells []int32 // row-major C indices, ascending
	// patch*: A/B fragments delivered with the task. The assignee writes
	// them into its local views before computing; the supervisor never
	// touches worker memory directly.
	patchA, patchB   []int32
	patchAV, patchBV []float64
	speculative      bool
	// prior holds the discarded values (per cells) when this task is an
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
	vals     []float64 // per task.cells
	injected bool
}

// activeBlock tracks a dispatched, unfinished block.
type activeBlock struct {
	task       *blockTask
	start      time.Time
	speculated bool
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
			"Block tasks by terminal state (done, resumed, reassigned, speculated, discarded, rejected).", "state"),
		recoveries: reg.NewCounterVec("exec_recoveries_total",
			"Recovery events by kind (replan-2proc, replan-serial, speculate).", "kind"),
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

	plan    *exchangePlan
	workers [partition.NumProcs]*workerState
	// aHave/bHave are the supervisor's record of which A and B cells each
	// worker holds, built on first use by have: recovery and speculation
	// patch only what is missing.
	aHave, bHave [partition.NumProcs][]bool

	doneMask   []bool
	doneCells  int
	totalCells int

	pending   map[partition.Proc][]*blockTask
	active    map[partition.Proc]*activeBlock
	waiting   map[partition.Proc]bool
	alive     map[partition.Proc]bool
	byzantine map[partition.Proc]bool
	committed map[int]bool
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

	hb, lease, straggle time.Duration
	em                  *execMetrics
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
		active:     make(map[partition.Proc]*activeBlock, partition.NumProcs),
		waiting:    make(map[partition.Proc]bool, partition.NumProcs),
		alive:      make(map[partition.Proc]bool, partition.NumProcs),
		byzantine:  make(map[partition.Proc]bool, partition.NumProcs),
		committed:  make(map[int]bool),
		reqCh:      make(chan partition.Proc),
		resCh:      make(chan blockResult, 2*partition.NumProcs),
		assign:     make(map[partition.Proc]chan *blockTask, partition.NumProcs),
		hb:         cfg.HeartbeatEvery,
		lease:      cfg.LeaseTimeout,
		straggle:   cfg.StraggleAfter,
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

// run drives the whole execution: exchange, supervise the compute phase,
// and assemble the stats.
func (e *engine) run() (*matrix.Dense, *Stats, error) {
	defer func() {
		if e.ckpt != nil {
			e.ckpt.Close()
		}
	}()
	start := time.Now()
	// Cut the initial tasks beside the exchange: the cutter reads only
	// the owner grid and the done mask, and the exchange never touches
	// the task lists.
	built := make(chan struct{})
	go func() {
		defer close(built)
		e.buildInitialTasks()
	}()
	e.exchange()
	<-built

	if e.doneCells < e.totalCells {
		if err := e.supervise(); err != nil {
			return nil, nil, err
		}
	}

	// Virtual clocks of the fault-free plan: the model's estimate for the
	// partition, as every executor reports it (recovery overhead is
	// reported separately in the stats, not folded into the model times).
	bd := model.EvaluateGrid(e.cfg.Algorithm, e.cfg.Machine, e.g)
	e.stats.VirtualComm, e.stats.VirtualComp, e.stats.VirtualExe = bd.Comm, bd.Comp, bd.Total
	e.stats.Wall = time.Since(start)
	return e.c, e.stats, nil
}

// exchange seeds every worker's local views with its own cells and runs
// the planned all-to-all through real channels: each worker sends every
// peer its A cells in the peer's rows and its B cells in the peer's
// columns, with every element accounted in PairVolume, and applies what
// it receives. After it, every worker holds the full A rows and B
// columns its own C cells need.
func (e *engine) exchange() {
	sp := e.tr("exchange")
	e.workers = e.plan.newWorkers(e.a, e.b)
	var xwg sync.WaitGroup
	for _, w := range partition.Procs {
		xwg.Add(1)
		go func(w partition.Proc) {
			defer xwg.Done()
			e.plan.send(w, e.workers, e.a, e.b, e.stats)
			e.workers[w].receive()
		}(w)
	}
	xwg.Wait()
	e.stats.sumVolume()
	if sp != nil {
		sp.SetDetail("moved=%d", e.stats.TotalVolume)
		sp.End()
	}
}

// have returns worker v's coverage masks, building them from the plan on
// first use (a fault-free run never needs them); buildPatch and unpatch
// keep them current from there.
func (e *engine) have(v partition.Proc) (aHave, bHave []bool) {
	if e.aHave[v] == nil {
		e.aHave[v], e.bHave[v] = e.plan.coverage(v)
	}
	return e.aHave[v], e.bHave[v]
}

// buildInitialTasks cuts the not-yet-done region (everything, unless a
// checkpoint was resumed) into (band, owner) block tasks.
func (e *engine) buildInitialTasks() {
	cells := make([]int32, 0, e.totalCells-e.doneCells)
	for idx, done := range e.doneMask {
		if !done {
			cells = append(cells, int32(idx))
		}
	}
	tasks := e.bandTasks(cells, func(idx int32) partition.Proc { return e.plan.cells[idx] })
	for _, t := range tasks {
		e.pending[t.owner] = append(e.pending[t.owner], t)
	}
	e.stats.Blocks += len(tasks)
}

// supervise runs the compute phase: workers pull blocks, the supervisor
// commits results, checkpoints them, and watches leases for losses and
// stragglers. A worker asks for work once; after that each result it
// reports is its request for the next block, which the supervisor hands
// out before it commits and verifies the result, so that supervision
// overlaps the worker's next computation.
func (e *engine) supervise() error {
	defer e.cancel()

	now := time.Now().UnixNano()
	for i := range e.beats {
		e.beats[i].Store(now)
	}
	for _, p := range partition.Procs {
		flops := int64(0)
		for _, t := range e.pending[p] {
			flops += int64(len(t.cells)) * int64(e.n)
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
			if ab := e.active[r.from]; ab != nil && ab.task.id == r.task.id {
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
	// speculation loser) before the run reports.
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

	scratch := matrix.New(e.n)
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
		done += int64(len(t.cells)) * int64(e.n)
		blocks++
		select {
		case <-e.runCtx.Done():
			return
		case e.resCh <- blockResult{task: t, from: w, vals: vals, injected: injected}:
		}
	}
}

// computeBlock computes the block's C cells bit-identically to the
// serial kij kernel: the cells go through matrix.MulRuns as row runs, one
// pivot chunk at a time, so heartbeats and pacing interleave with the
// work. scratch is the worker's own C; the block's cells are zeroed
// first, because a worker can be handed cells it computed before (an
// integrity re-lease on a sole survivor, a re-planned speculation).
// It returns false, without the values, once the flops computed in the
// block reach fireIn: the worker's kill or hang fate has fired.
func (e *engine) computeBlock(w partition.Proc, t *blockTask, lim *throttle.Limiter, scratch *matrix.Dense, fireIn float64) ([]float64, bool) {
	ws := e.workers[w]
	ad, bd := ws.aLocal.Data(), ws.bLocal.Data()
	for i, idx := range t.patchA {
		ad[idx] = t.patchAV[i]
	}
	for i, idx := range t.patchB {
		bd[idx] = t.patchBV[i]
	}
	n := e.n
	cd := scratch.Data()
	for _, idx := range t.cells {
		cd[idx] = 0
	}
	runs := matrix.CellRuns(t.cells, n)
	cells := int64(len(t.cells))
	for k0 := 0; k0 < n; k0 += matrix.PivotChunk {
		k1 := min(k0+matrix.PivotChunk, n)
		matrix.MulRuns(scratch, ws.aLocal, ws.bLocal, runs, k0, k1)
		if float64(cells*int64(k1)) >= fireIn {
			return nil, false
		}
		e.beat(w)
		if lim != nil {
			e.pacedAcquire(w, lim, cells*int64(k1-k0))
		}
	}
	vals := make([]float64, len(t.cells))
	for ci, idx := range t.cells {
		vals[ci] = cd[idx]
	}
	return vals, true
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
// as idle until recovery or speculation produces more work.
func (e *engine) handleRequest(w partition.Proc) {
	if q := e.pending[w]; len(q) > 0 {
		t := q[0]
		e.pending[w] = q[1:]
		e.active[w] = &activeBlock{task: t, start: time.Now()}
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

// commit applies a block result: first result per block id wins, later
// ones (speculation losers) are discarded so neither C nor the stats
// double-count. Results from a quarantined (Byzantine) worker are
// rejected outright — its in-flight block may be corrupt and its cells
// were already re-planned.
func (e *engine) commit(r blockResult) error {
	if e.byzantine[r.from] {
		e.stats.ByzantineRejected++
		if r.injected {
			e.stats.InjectedCorruptions++
		}
		e.em.block("rejected", 1)
		return nil
	}
	if e.committed[r.task.id] {
		e.stats.BlocksDiscarded++
		e.em.block("discarded", 1)
		return nil
	}
	e.committed[r.task.id] = true
	fresh := 0
	var freshCells []int32
	if e.integ != nil {
		freshCells = make([]int32, 0, len(r.task.cells))
	}
	cd := e.c.Data()
	for ci, idx := range r.task.cells {
		if !e.doneMask[idx] {
			e.doneMask[idx] = true
			cd[idx] = r.vals[ci]
			fresh++
			if e.integ != nil {
				freshCells = append(freshCells, idx)
			}
		}
	}
	if fresh == 0 {
		// A re-planned duplicate of work that another path already
		// finished (e.g. a speculated block whose loser was re-planned
		// after a loss): dedup, don't double count.
		e.stats.BlocksDiscarded++
		e.em.block("discarded", 1)
		return nil
	}
	if r.injected {
		e.stats.InjectedCorruptions++
	}
	e.doneCells += fresh
	e.stats.BlocksDone++
	e.stats.Flops[r.from] += int64(len(r.task.cells)) * int64(e.n)
	e.em.block("done", 1)
	if e.integ != nil {
		// Verification is band-grained; with a checkpoint configured the
		// journal append is deferred until the block's band verifies.
		return e.integ.blockCommitted(r, freshCells)
	}
	if e.ckpt != nil {
		if err := e.ckpt.AppendPayload(newCkptRecord(r.task.id, r.task.cells, r.vals)); err != nil {
			return fmt.Errorf("exec: checkpoint: %w", err)
		}
	}
	return nil
}

// checkHealth is the lease scan: workers with outstanding work whose
// heartbeat went stale are declared lost; active blocks that outlive the
// straggle threshold (while their worker still beats) are speculated.
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
			continue
		}
		if e.straggle > 0 {
			if ab := e.active[w]; ab != nil && !ab.speculated && now.Sub(ab.start) > e.straggle {
				e.speculate(w, ab, now)
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
// re-plans: withdraw every unstarted block, re-plan the whole remaining
// uncomputed region on the survivors (3→2 with the prior work's optimal
// two-processor shapes, 2→1 serial), attach the A/B fragments each
// survivor is missing, and let in-flight survivor blocks finish under
// their leases. Idempotent: a worker already evicted (a quarantine
// racing its own heartbeat expiry) is left alone.
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

	// The remaining uncomputed region: the lost worker's active block,
	// plus every pending block of every worker. Blocks a live survivor
	// is computing right now are left in place.
	var remaining []int32
	collect := func(t *blockTask) {
		for _, idx := range t.cells {
			if !e.doneMask[idx] {
				remaining = append(remaining, idx)
			}
		}
	}
	if ab := e.active[w]; ab != nil {
		collect(ab.task)
		e.active[w] = nil
	}
	for _, p := range partition.Procs {
		for _, t := range e.pending[p] {
			collect(t)
			// A withdrawn pending task never delivered its A/B patch: the
			// coverage bits it claimed must be released, or the replacement
			// task would get no patch and its assignee would compute from
			// zeroed local fragments.
			e.unpatch(t)
		}
		e.pending[p] = nil
	}
	sort.Slice(remaining, func(i, j int) bool { return remaining[i] < remaining[j] })

	survivors := e.survivorsBySpeed()
	if len(survivors) == 0 {
		return fmt.Errorf("exec: all workers lost, %d of %d cells uncomputed", e.totalCells-e.doneCells, e.totalCells)
	}
	if len(remaining) == 0 {
		if sp != nil {
			sp.SetDetail("nothing to re-plan")
			sp.End()
		}
		return nil
	}

	// New ownership for the remaining region.
	var kind string
	var ownerOf func(idx int32) partition.Proc
	switch len(survivors) {
	case 1:
		kind = "replan-serial"
		solo := survivors[0]
		ownerOf = func(int32) partition.Proc { return solo }
	default:
		kind = "replan-2proc"
		fast, slowp := survivors[0], survivors[1]
		speed := e.cfg.Machine.Ratio.Speed
		r2, err := twoproc.NewRatio(speed(fast) / speed(slowp))
		if err != nil {
			return fmt.Errorf("exec: replan ratio: %w", err)
		}
		shape := twoproc.Optimal(e.cfg.Algorithm, r2)
		tg, err := twoproc.Build(shape, e.n, r2)
		if err != nil {
			return fmt.Errorf("exec: replan shape %v: %w", shape, err)
		}
		ownerOf = func(idx int32) partition.Proc {
			if tg.AtIndex(int(idx)) == partition.R {
				return slowp
			}
			return fast
		}
	}

	// Cut the remaining cells into bands under the new ownership and
	// attach the missing A/B fragments to each new block.
	newTasks := e.bandTasks(remaining, ownerOf)
	for _, t := range newTasks {
		e.buildPatch(t)
		e.pending[t.owner] = append(e.pending[t.owner], t)
	}
	e.accountRemainderNeed(remaining, ownerOf)

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

// speculate re-executes a straggling block on the fastest idle survivor.
// The copy keeps the original block id, so whichever result lands second
// is discarded by commit's dedup.
func (e *engine) speculate(w partition.Proc, ab *activeBlock, now time.Time) {
	var target partition.Proc
	found := false
	for _, v := range e.survivorsBySpeed() {
		if v != w && e.waiting[v] {
			target, found = v, true
			break
		}
	}
	if !found {
		return
	}
	t := ab.task
	nt := &blockTask{id: t.id, owner: target, cells: t.cells, speculative: true}
	e.buildPatch(nt)
	ab.speculated = true
	e.stats.Speculations++
	e.stats.BlocksSpeculated++
	e.em.block("speculated", 1)
	e.em.recovery("speculate")
	e.waiting[target] = false
	e.active[target] = &activeBlock{task: nt, start: now}
	e.beat(target) // lease restarts at assignment, as in handleRequest
	e.assign[target] <- nt
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

// bandTasks groups ascending cells into (band, owner) block tasks with
// fresh ids: one task per owner per band of BlockSize rows.
func (e *engine) bandTasks(cells []int32, ownerOf func(int32) partition.Proc) []*blockTask {
	bandCells := int32(e.cfg.BlockSize * e.n)
	var tasks []*blockTask
	var group [partition.NumProcs][]int32
	flush := func() {
		for _, p := range partition.Procs {
			if len(group[p]) > 0 {
				tasks = append(tasks, &blockTask{id: e.nextID, owner: p, cells: group[p]})
				e.nextID++
				group[p] = nil
			}
		}
	}
	for i, idx := range cells {
		if i > 0 && idx/bandCells != cells[i-1]/bandCells {
			flush()
		}
		p := ownerOf(idx)
		group[p] = append(group[p], idx)
	}
	flush()
	return tasks
}

// buildPatch attaches to the task every A-row / B-column element its
// assignee needs for the task's cells but does not yet hold, updating
// the coverage masks and the recovery-volume accounting. Fragments the
// worker already holds are never re-sent.
func (e *engine) buildPatch(t *blockTask) {
	n := e.n
	ah, bh := e.have(t.owner)
	rowSeen := make(map[int]bool)
	colSeen := make(map[int]bool)
	for _, idx := range t.cells {
		i, j := int(idx)/n, int(idx)%n
		if !rowSeen[i] {
			rowSeen[i] = true
			for k := 0; k < n; k++ {
				ai := i*n + k
				if !ah[ai] {
					ah[ai] = true
					t.patchA = append(t.patchA, int32(ai))
					t.patchAV = append(t.patchAV, e.a.Data()[ai])
					e.stats.RecoveryVolume++
				}
			}
		}
		if !colSeen[j] {
			colSeen[j] = true
			for k := 0; k < n; k++ {
				bi := k*n + j
				if !bh[bi] {
					bh[bi] = true
					t.patchB = append(t.patchB, int32(bi))
					t.patchBV = append(t.patchBV, e.b.Data()[bi])
					e.stats.RecoveryVolume++
				}
			}
		}
	}
}

// unpatch releases the coverage claims of a task that was withdrawn
// before its assignee ever received it, reversing buildPatch: the
// fragments ride on the task itself, so an undelivered task means the
// worker does not hold them, whatever the masks say. The recovery
// volume it charged is refunded — those elements never moved.
func (e *engine) unpatch(t *blockTask) {
	ah, bh := e.have(t.owner)
	for _, idx := range t.patchA {
		ah[idx] = false
	}
	for _, idx := range t.patchB {
		bh[idx] = false
	}
	e.stats.RecoveryVolume -= int64(len(t.patchA) + len(t.patchB))
}

// accountRemainderNeed computes what a from-scratch redistribution of
// the re-planned remainder would move: for each survivor, the A-rows and
// B-columns its newly assigned cells span, minus the cells of those
// lines it owned in the original partition. This is the fault-free
// volume of the re-planned remainder that the recovery study bounds
// RecoveryVolume against.
func (e *engine) accountRemainderNeed(cells []int32, ownerOf func(int32) partition.Proc) {
	n := e.n
	type lines struct{ rows, cols map[int]bool }
	byOwner := make(map[partition.Proc]*lines)
	for _, idx := range cells {
		v := ownerOf(idx)
		l := byOwner[v]
		if l == nil {
			l = &lines{rows: make(map[int]bool), cols: make(map[int]bool)}
			byOwner[v] = l
		}
		l.rows[int(idx)/n] = true
		l.cols[int(idx)%n] = true
	}
	for v, l := range byOwner {
		for i := range l.rows {
			e.stats.RemainderNeed += int64(n - e.g.RowCount(i, v))
		}
		for j := range l.cols {
			e.stats.RemainderNeed += int64(n - e.g.ColCount(j, v))
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
