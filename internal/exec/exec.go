// Package exec runs parallel matrix-matrix multiplication for real on
// three goroutine "processors", with the matrices partitioned by an
// arbitrary (possibly non-rectangular) partition grid. It is the
// repository's substitute for the paper's Open-MPI + ATLAS cluster
// experiment (Section X-B): data actually moves between workers through
// channels, every transferred element is accounted, processor speed
// ratios are imposed with the token-bucket throttle, and the numerical
// result is bit-identical to the serial kij kernel. Every worker
// computes only its own C cells, as row runs through matrix.MulRuns.
//
// All five algorithms run on one supervised block scheduler (engine.go):
// the multiplication is split into block tasks — one owner's cells in a
// band of rows across the full width — with lease + heartbeat tracking,
// completed C-blocks are journal-checkpointed so a killed run resumes
// byte-identically, and a worker lost mid-multiply is survived by
// re-planning the remaining region on the survivors — 3→2 with the
// optimal two-processor shapes of the authors' prior work
// (internal/twoproc), 2→1 with a serial fallback. Stragglers are
// speculatively re-executed on the fastest idle survivor, with results
// deduplicated by block id so the volume accounting stays exact. A
// worker's result is also its request for the next block, so the
// supervisor commits and verifies one block while the worker computes
// the next.
//
// The algorithms differ only in a delivery gate. The exchange
// (exchange.go) runs beside the workers and delivers each worker's
// exchanged A columns and B rows in pivot panels: one panel for SCB, PCB,
// SCO and PCO, one per matrix.PivotChunk pivots for PIO. A task computes
// a pivot chunk only once its worker holds that chunk's pivots, so PIO
// computes panel p while panel p+1 is on the wire. SCO and PCO also queue
// each worker's local tasks first — the cells whose whole A row and B
// column it owns — and those never wait: that is the bulk overlap.
package exec

import (
	"context"
	"fmt"
	"time"

	"repro/internal/matrix"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/partition"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Config parameterises an execution.
type Config struct {
	// Machine supplies the speed ratio, network model and topology.
	Machine model.Machine
	// Algorithm picks the schedule — when a task may compute on
	// exchanged data (see the package comment) — and the model behind
	// the virtual clocks and the recovery re-plan's two-processor shape.
	// Leases, recovery, speculation, Verify, checkpoints, pacing, tracing
	// and metrics work the same for all five.
	Algorithm model.Algorithm
	// Pace, when true, throttles each worker to its relative speed in
	// real time (the paper's CPU-limiter experiment), under every
	// algorithm; a worker waiting on the exchange is not throttled. When
	// false the run goes at full machine speed and only the virtual
	// clocks are paced.
	Pace bool
	// PaceFlopsPerSec is the real flops/s granted to the slowest
	// processor when Pace is set (default 5e7).
	PaceFlopsPerSec float64

	// BlockSize is the band height of the supervised block scheduler:
	// the C matrix is cut into bands of BlockSize rows across the full
	// width, and each (band, owner) pair becomes one schedulable,
	// checkpointable block task. It also sets the ABFT detection floor
	// (see Verify). Defaults to 32.
	BlockSize int
	// Faults injects worker-level faults (kill/hang at a progress
	// fraction, persistent slowdown) into the compute phase. Nil injects
	// nothing. See sim.FaultPlan's AddWorkerKill/AddWorkerHang/
	// AddWorkerSlowdown and sim.ParseWorkerFaults.
	Faults *sim.FaultPlan
	// Checkpoint, when non-empty, journals every committed C-block to
	// this path (internal/journal CRC framing) so a killed run can be
	// resumed byte-identically. Without Resume the file must not exist.
	Checkpoint string
	// Resume replays an existing checkpoint at Checkpoint before
	// computing: recorded blocks are restored bit-exactly and only the
	// remaining cells are scheduled.
	Resume bool
	// HeartbeatEvery is the worker heartbeat period and the supervisor's
	// health-check cadence (default 5ms).
	HeartbeatEvery time.Duration
	// LeaseTimeout is how long a worker with outstanding work may go
	// without a heartbeat before it is declared lost and its remaining
	// work is re-planned on the survivors (default 250ms).
	LeaseTimeout time.Duration
	// StraggleAfter, when positive, speculatively re-executes a block
	// that has been active longer than this on the fastest idle survivor
	// (the original stays running; the first result wins, the loser is
	// discarded by block id). Zero disables speculation.
	StraggleAfter time.Duration

	// Verify turns on ABFT result verification (integrity.go): every
	// completed band is checked once against checksum references the
	// supervisor derives from its own pristine A and B, a localized
	// single-cell error is corrected in place (bit-exactly, by
	// recomputing the cell), and an uncorrectable mismatch discards the
	// offending blocks and re-leases them to a different worker. A row's
	// cells are weighted per BlockSize-wide column stripe, so each cell
	// keeps the detection floor of its BlockSize×BlockSize tile. With a
	// checkpoint configured, journal appends are deferred until the
	// block's band verifies, so the journal only ever holds verified
	// results.
	Verify bool
	// MismatchBudget is how many uncorrectable mismatches a worker may
	// cause under Verify before it is declared Byzantine and quarantined
	// like a lost worker (its remaining work re-planned on the
	// survivors, its in-flight results rejected). 0 means the default
	// of 3.
	MismatchBudget int

	// Metrics, when non-nil, receives the engine's instrumentation:
	// exec_blocks_total{state}, exec_recoveries_total{kind} and the
	// exec_recovery_latency_seconds histogram.
	Metrics *metrics.Registry
	// Trace, when non-nil, records per-worker span timelines plus
	// exchange and recovery spans.
	Trace *trace.Trace
}

// Stats reports what an execution actually did.
type Stats struct {
	// PairVolume[w][v] is the number of elements worker w sent to worker
	// v (A data plus B data) during the planned exchange.
	PairVolume [partition.NumProcs][partition.NumProcs]int64
	// TotalVolume is the sum of all pair volumes; it equals the
	// partition's VoC (Eq 1) exactly, which tests assert. Recovery
	// redistribution is accounted separately in RecoveryVolume, and
	// speculated/retried blocks are deduplicated by block id, so this
	// stays exact under faults.
	TotalVolume int64
	// Flops[p] counts the multiply-add pairs worker p executed for
	// blocks that were committed (speculation losers are excluded; see
	// BlocksDiscarded).
	Flops [partition.NumProcs]int64
	// VirtualComm/VirtualComp/VirtualExe are the modelled times of the
	// fault-free plan, in seconds: model.EvaluateGrid's Comm, Comp and
	// Total for the partition under Config.Machine, its topology and link
	// matrix included. Recovery overhead is reported separately, not
	// folded in.
	VirtualComm, VirtualComp, VirtualExe float64
	// Wall is the real elapsed time.
	Wall time.Duration

	// Blocks is the number of block tasks scheduled at the start of the
	// run (after checkpoint resume, before any recovery).
	Blocks int
	// BlocksDone counts committed blocks, including re-planned and
	// speculated ones (each block id commits exactly once).
	BlocksDone int
	// BlocksResumed counts checkpoint records replayed instead of
	// recomputed.
	BlocksResumed int
	// BlocksReassigned counts block tasks created by loss recovery.
	BlocksReassigned int
	// BlocksSpeculated counts speculative re-executions launched for
	// straggling blocks; BlocksDiscarded counts results thrown away by
	// the block-id dedup (speculation losers).
	BlocksSpeculated, BlocksDiscarded int

	// Lost lists the workers declared dead (missed-heartbeat lease
	// expiry), in detection order.
	Lost []partition.Proc
	// Recoveries counts loss re-plan events; RecoveryKinds records each
	// event's kind ("replan-2proc" or "replan-serial").
	Recoveries    int
	RecoveryKinds []string
	// Speculations counts straggler speculation events.
	Speculations int
	// RecoveryVolume is the number of extra A/B elements redistributed
	// to survivors (and speculation targets) so they could compute work
	// they did not originally own — the communication overhead of
	// recovery. Already-held fragments are not re-sent.
	RecoveryVolume int64
	// RemainderNeed is what a from-scratch redistribution of the
	// re-planned remainder would have moved (no credit for fragments the
	// survivors already held): for every survivor, the A-rows and
	// B-columns its newly assigned cells need, minus its own original
	// partition cells. RecoveryVolume ≤ RemainderNeed by construction;
	// the recovery study asserts RecoveryVolume stays under 2× this.
	RemainderNeed int64
	// RecoveryLatency is the total stall observed across loss events:
	// from each lost worker's final heartbeat to its work being
	// re-planned onto the survivors.
	RecoveryLatency time.Duration

	// IntegrityChecks counts C bands ABFT-verified under Config.Verify.
	IntegrityChecks int
	// CorruptionsCorrected counts single-cell errors localized by the
	// row×column checksum intersection and corrected in place.
	CorruptionsCorrected int
	// BlocksRecomputed counts blocks discarded at verification
	// (uncorrectable mismatch) and re-leased to a different worker.
	BlocksRecomputed int
	// Byzantine lists workers quarantined for exceeding the mismatch
	// budget, in detection order; ByzantineRejected counts their
	// in-flight results rejected after quarantine.
	Byzantine         []partition.Proc
	ByzantineRejected int
	// InjectedCorruptions is ground truth from the fault plan: how many
	// delivered results the sim corruption fates actually corrupted
	// (committed or Byzantine-rejected; speculation losers that never
	// touched C are excluded). The integrity study's detection rate is
	// (corrected + recomputed + rejected) / injected.
	InjectedCorruptions int
	// CheckpointDropped counts resume records discarded because their
	// content checksum did not match — cells recomputed, not replayed.
	CheckpointDropped int
}

// Survivors returns how many workers were still alive at the end of the
// run (neither fail-stop lost nor quarantined as Byzantine).
func (s *Stats) Survivors() int { return partition.NumProcs - len(s.Lost) - len(s.Byzantine) }

// Multiply computes C = A·B with the matrices partitioned by g across
// three workers. A and B must be n×n with n = g.N(). It is
// MultiplyContext with a background context.
func Multiply(cfg Config, g *partition.Grid, a, b *matrix.Dense) (*matrix.Dense, *Stats, error) {
	return MultiplyContext(context.Background(), cfg, g, a, b)
}

// MultiplyOverlap is Multiply, kept as the bulk-overlap entry point:
// with cfg.Algorithm SCO or PCO it runs the Eq 7/8 schedule.
func MultiplyOverlap(cfg Config, g *partition.Grid, a, b *matrix.Dense) (*matrix.Dense, *Stats, error) {
	return Multiply(cfg, g, a, b)
}

// MultiplyContext computes C = A·B on the supervised block scheduler
// under cfg.Algorithm, honouring ctx: cancellation stops the supervisor
// and unwinds every worker promptly, including workers sleeping in the
// pacing throttle or waiting on the exchange.
func MultiplyContext(ctx context.Context, cfg Config, g *partition.Grid, a, b *matrix.Dense) (*matrix.Dense, *Stats, error) {
	n := g.N()
	if a.N() != n || b.N() != n {
		return nil, nil, fmt.Errorf("exec: matrices are %d×%d, partition is %d×%d", a.N(), a.N(), n, n)
	}
	if g.K() != partition.NumProcs {
		return nil, nil, fmt.Errorf("exec: partition has %d processors, want %d", g.K(), partition.NumProcs)
	}
	if int(cfg.Algorithm) >= model.NumAlgorithms {
		return nil, nil, fmt.Errorf("exec: unknown algorithm %v", cfg.Algorithm)
	}
	if err := cfg.Machine.Ratio.Validate(); err != nil {
		return nil, nil, err
	}
	e, err := newEngine(ctx, cfg, g, a, b)
	if err != nil {
		return nil, nil, err
	}
	return e.run()
}
