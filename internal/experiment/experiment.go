// Package experiment contains the reproduction harness: each function
// regenerates one of the paper's figures or result tables (see DESIGN.md
// §5 for the experiment index). The harness is deliberately deterministic
// — every randomised study takes an explicit base seed — so EXPERIMENTS.md
// numbers can be regenerated exactly.
package experiment

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/journal"
	"repro/internal/model"
	"repro/internal/partition"
	"repro/internal/push"
	"repro/internal/shape"
	"repro/internal/sim"
)

// CensusConfig parameterises the Section VII archetype census.
type CensusConfig struct {
	// N is the matrix dimension (paper: 1000; tests use smaller).
	N int
	// RunsPerRatio is the number of DFA runs per ratio (paper: ~10,000).
	RunsPerRatio int
	// Ratios defaults to the paper's eleven ratios.
	Ratios []partition.Ratio
	// Seed drives all runs deterministically.
	Seed int64
	// Beautify applies the paper's cleanup pass before classification
	// (the paper's program used one for Archetype C, Thm 8.3).
	Beautify bool
	// Workers bounds parallelism (0 = GOMAXPROCS).
	Workers int
	// Journal, when non-empty, is the path of an append-only run journal
	// (internal/journal): every completed run is flushed to it as workers
	// finish, so an interrupted census loses at most the runs in flight.
	Journal string
	// Resume allows Journal to point at an existing journal from an
	// interrupted census with the same configuration: its completed runs
	// are replayed and only the remainder is dispatched. Because run
	// seeds derive from (Seed, ratio, run), the resumed census is
	// bit-identical to an uninterrupted one.
	Resume bool
	// MaxRetries is the per-run retry budget after a worker panic
	// (default 1 retry; negative means no retries). A run that panics on
	// every attempt is quarantined — recorded as a structured failure,
	// excluded from the aggregates — and the census keeps going.
	MaxRetries int
	// RetryBackoff is the base of the exponential backoff between retry
	// attempts (default 10ms; negative disables the sleep).
	RetryBackoff time.Duration

	// runHook, when set (by tests), runs before every DFA attempt; a
	// panic inside it simulates a worker crash.
	runHook func(ratioIndex, run, attempt int)
}

// validate rejects malformed configurations with typed errors.
func (cfg CensusConfig) validate() error {
	if cfg.N < 10 {
		return &ConfigError{Field: "N", Reason: fmt.Sprintf("census N must be ≥ 10, got %d", cfg.N)}
	}
	if cfg.RunsPerRatio <= 0 {
		return &ConfigError{Field: "RunsPerRatio", Reason: fmt.Sprintf("must be positive, got %d", cfg.RunsPerRatio)}
	}
	for i, r := range cfg.Ratios {
		if err := r.Validate(); err != nil {
			return &ConfigError{Field: fmt.Sprintf("Ratios[%d]", i), Reason: err.Error()}
		}
	}
	if cfg.Resume && cfg.Journal == "" {
		return &ConfigError{Field: "Resume", Reason: "requires Journal to be set"}
	}
	return nil
}

// CensusRow is the outcome for one ratio.
type CensusRow struct {
	Ratio  partition.Ratio
	Counts map[shape.Archetype]int
	// MeanSteps is the average number of Push operations per run.
	MeanSteps float64
	// MeanVoCDrop is the average fractional VoC reduction start→end.
	MeanVoCDrop float64
	// Completed is the number of runs aggregated into this row (equals
	// the configured runs unless the census was interrupted).
	Completed int
	// Failed counts quarantined runs (panicked on every attempt); they
	// are excluded from Counts and the means.
	Failed int
}

// Census runs the DFA many times per ratio and classifies every terminal
// state — the experimental support for Postulate 1 (Fig 5, §VII). It is
// CensusContext with a background context.
func Census(cfg CensusConfig) ([]CensusRow, error) {
	return CensusContext(context.Background(), cfg)
}

// CensusContext runs the census under ctx.
//
// The harness is a fixed pool of worker goroutines (cfg.Workers, default
// GOMAXPROCS) pulling run indices from an atomic counter, not a goroutine
// per run: each worker owns one pooled scratch grid that every run it
// executes condenses in place (push.Config.Scratch), so a census allocates
// O(workers) grids instead of O(runs). Outcomes stream to the aggregator
// as workers finish; the aggregator journals each one (when cfg.Journal is
// set) and stores it into a per-run table that is summed in run-index
// order once the ratio completes. The first run error cancels the census:
// no further runs are dispatched for this or any later ratio.
//
// Results are deterministic in cfg.Seed: run r of ratio i is seeded with
// Seed + i·1_000_003 + r regardless of which worker executes it, and the
// run-order aggregation makes even the float means independent of worker
// count, completion order, and interruption/resume.
//
// Resilience:
//
//   - Cancelling ctx stops the census promptly (workers check between
//     runs and inside the DFA step loop). The rows aggregated so far —
//     including a partial row for the interrupted ratio — are returned
//     alongside the wrapped context error, so hours of completed work
//     survive a SIGINT.
//   - A worker panic is recovered, retried up to cfg.MaxRetries times
//     with exponential backoff, then quarantined: the run is journaled as
//     a structured failure, counted in CensusRow.Failed, and the census
//     continues. A completed census with quarantined runs returns its
//     rows plus a *QuarantineError.
func CensusContext(ctx context.Context, cfg CensusConfig) ([]CensusRow, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	ratios := cfg.Ratios
	if len(ratios) == 0 {
		ratios = partition.PaperRatios
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, cfg.RunsPerRatio)
	maxRetries := cfg.MaxRetries
	if maxRetries == 0 {
		maxRetries = 1
	} else if maxRetries < 0 {
		maxRetries = 0
	}
	backoff := cfg.RetryBackoff
	if backoff == 0 {
		backoff = 10 * time.Millisecond
	}

	// The per-run outcome table; completed journal records replay into it
	// and finished runs land in it, keyed by (ratio, run).
	table := make([][]censusSlot, len(ratios))
	for i := range table {
		table[i] = make([]censusSlot, cfg.RunsPerRatio)
	}
	var jw *journal.Writer
	if cfg.Journal != "" {
		w, err := openCensusJournal(cfg, ratios, table)
		if err != nil {
			return nil, err
		}
		jw = w
		defer jw.Close()
	}

	// Scratch grids, one held per live worker, reused across every run and
	// every ratio. push.Run re-randomises them in place.
	gridPool := sync.Pool{New: func() any { return partition.NewGrid(cfg.N) }}

	var (
		cancel   atomic.Bool
		errMu    sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
		cancel.Store(true)
	}

	seedOf := func(ri, run int) int64 {
		return cfg.Seed + int64(ri)*1_000_003 + int64(run)
	}

	type indexedOutcome struct {
		run  int
		slot censusSlot
	}

	var failures []RunFailure
	rows := make([]CensusRow, len(ratios))
	done := 0
	for ri, ratio := range ratios {
		if cancel.Load() {
			break
		}
		// Dispatch only the runs the journal has not already replayed.
		var pending []int
		for run := 0; run < cfg.RunsPerRatio; run++ {
			if !table[ri][run].seen {
				pending = append(pending, run)
			}
		}
		if len(pending) > 0 {
			results := make(chan indexedOutcome, workers)
			var next atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < min(workers, len(pending)); w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					scratch := gridPool.Get().(*partition.Grid)
					defer gridPool.Put(scratch)
					for {
						k := int(next.Add(1)) - 1
						// Check cancellation before every dispatch so an
						// error or interrupt stops the census instead of
						// draining the backlog.
						if k >= len(pending) || cancel.Load() {
							return
						}
						if err := ctx.Err(); err != nil {
							fail(fmt.Errorf("experiment: census interrupted: %w", err))
							return
						}
						run := pending[k]
						slot, err := censusRun(ctx, cfg, ratio, ri, run, seedOf(ri, run), scratch, maxRetries, backoff)
						if err != nil {
							fail(err)
							return
						}
						results <- indexedOutcome{run: run, slot: slot}
					}
				}()
			}
			go func() {
				wg.Wait()
				close(results)
			}()
			// Aggregate on the census goroutine: it owns the table and the
			// journal, so appends need no locking and happen as each run
			// completes — an interrupted census has already flushed every
			// finished run.
			for o := range results {
				table[ri][o.run] = o.slot
				if jw != nil {
					if err := jw.AppendRecord(slotRecord(ri, o.run, seedOf(ri, o.run), o.slot)); err != nil {
						fail(err)
					}
				}
			}
		}

		// Sum in run-index order for bit-identical means on any schedule.
		row := CensusRow{Ratio: ratio, Counts: make(map[shape.Archetype]int)}
		var steps, drop float64
		for run := 0; run < cfg.RunsPerRatio; run++ {
			s := table[ri][run]
			if !s.seen {
				continue
			}
			if s.failed {
				row.Failed++
				failures = append(failures, RunFailure{
					Ratio: ratio, RatioIndex: ri, Run: run,
					Seed: seedOf(ri, run), Err: s.errMsg, Attempts: s.attempts,
				})
				continue
			}
			row.Counts[s.arch]++
			steps += float64(s.steps)
			drop += s.drop
		}
		row.Completed = row.Failed
		for _, c := range row.Counts {
			row.Completed += c
		}
		if n := row.Completed - row.Failed; n > 0 {
			row.MeanSteps = steps / float64(n)
			row.MeanVoCDrop = drop / float64(n)
		}
		rows[ri] = row
		done = ri + 1
	}
	if firstErr != nil {
		// Interruption and run errors still surface the completed rows so
		// partial results can be flushed by the caller.
		return rows[:done], firstErr
	}
	if len(failures) > 0 {
		return rows, &QuarantineError{Failures: failures}
	}
	return rows, nil
}

// censusRun executes one (ratio, run) cell with panic isolation: each
// attempt that panics is retried after an exponential backoff until the
// retry budget is spent, at which point the run is quarantined as a
// structured failure. Run errors other than panics are returned as-is
// (they are deterministic configuration failures, not worker crashes).
func censusRun(ctx context.Context, cfg CensusConfig, ratio partition.Ratio, ri, run int, seed int64, scratch *partition.Grid, maxRetries int, backoff time.Duration) (censusSlot, error) {
	var lastPanic *PanicError
	for attempt := 0; attempt <= maxRetries; attempt++ {
		if attempt > 0 {
			if err := retrySleep(ctx, backoff, attempt-1); err != nil {
				return censusSlot{}, fmt.Errorf("experiment: census interrupted: %w", err)
			}
		}
		var hook func()
		if cfg.runHook != nil {
			hook = func() { cfg.runHook(ri, run, attempt) }
		}
		res, err := runDFAOnce(ctx, push.Config{
			N:        cfg.N,
			Ratio:    ratio,
			Seed:     seed,
			Beautify: cfg.Beautify,
			Scratch:  scratch,
		}, hook)
		if err == nil {
			drop := 0.0
			if res.InitialVoC > 0 {
				drop = 1 - float64(res.FinalVoC)/float64(res.InitialVoC)
			}
			// Classify before returning: res.Final aliases scratch, which
			// the worker's next run overwrites.
			return censusSlot{seen: true, arch: shape.Classify(res.Final), steps: res.Steps, drop: drop}, nil
		}
		var pe *PanicError
		if !errors.As(err, &pe) {
			return censusSlot{}, err
		}
		lastPanic = pe
	}
	return censusSlot{
		seen: true, failed: true,
		errMsg:   lastPanic.Value,
		attempts: maxRetries + 1,
	}, nil
}

// CensusCounterexamples returns the total number of terminal states that
// fell outside the four archetypes — zero supports Postulate 1.
func CensusCounterexamples(rows []CensusRow) int {
	total := 0
	for _, r := range rows {
		total += r.Counts[shape.ArchetypeUnknown]
	}
	return total
}

// WriteCensusTable renders the census as a markdown table (the Fig 5 /
// §VII-C summary).
func WriteCensusTable(w io.Writer, rows []CensusRow) error {
	if _, err := fmt.Fprintln(w, "| ratio | A | B | C | D | other | mean pushes | mean VoC drop |"); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "| %s | %d | %d | %d | %d | %d | %.1f | %.1f%% |\n",
			r.Ratio, r.Counts[shape.ArchetypeA], r.Counts[shape.ArchetypeB],
			r.Counts[shape.ArchetypeC], r.Counts[shape.ArchetypeD],
			r.Counts[shape.ArchetypeUnknown], r.MeanSteps, 100*r.MeanVoCDrop); err != nil {
			return err
		}
	}
	return nil
}

// SurfacePoint is one sample of the Fig 13 cost surfaces.
type SurfacePoint struct {
	Rr, Pr   float64
	SC, BR   float64 // normalised SCB communication costs
	Feasible bool    // Square-Corner feasibility (the vertical wall)
}

// Fig13Surface samples the Square-Corner and Block-Rectangle SCB cost
// functions over Rr ∈ [1, rrMax], Pr ∈ [1, prMax] (paper: 10 and 20),
// with Sr = 1.
func Fig13Surface(rrMax, prMax float64, step float64) []SurfacePoint {
	if step <= 0 {
		step = 0.5
	}
	var pts []SurfacePoint
	for rr := 1.0; rr <= rrMax+1e-9; rr += step {
		for pr := 1.0; pr <= prMax+1e-9; pr += step {
			if pr < rr {
				continue // ratio ordering Pr ≥ Rr
			}
			ratio := partition.MustRatio(pr, rr, 1)
			br, _ := model.NormalizedVoC(partition.BlockRectangle, ratio)
			pt := SurfacePoint{Rr: rr, Pr: pr, BR: br}
			if sc, ok := model.NormalizedVoC(partition.SquareCorner, ratio); ok {
				pt.SC = sc
				pt.Feasible = true
			}
			pts = append(pts, pt)
		}
	}
	return pts
}

// WriteSurfaceCSV emits the Fig 13 samples as CSV.
func WriteSurfaceCSV(w io.Writer, pts []SurfacePoint) error {
	if _, err := fmt.Fprintln(w, "Rr,Pr,squarecorner,blockrectangle,feasible"); err != nil {
		return err
	}
	for _, p := range pts {
		sc := ""
		if p.Feasible {
			sc = fmt.Sprintf("%.6f", p.SC)
		}
		if _, err := fmt.Fprintf(w, "%.3f,%.3f,%s,%.6f,%v\n", p.Rr, p.Pr, sc, p.BR, p.Feasible); err != nil {
			return err
		}
	}
	return nil
}

// Fig14Row is one point of the Fig 14 communication-time comparison.
type Fig14Row struct {
	X float64 // heterogeneity: ratio x:1:1
	// Closed-form Hockney communication seconds (N, bandwidth from the
	// machine), NaN-free: SCFeasible gates SC.
	SCModel, BRModel float64
	SCFeasible       bool
	// Simulated communication seconds on a concrete N-cell grid.
	SCSim, BRSim float64
}

// Fig14Sweep reproduces Fig 14: SCB communication time for Square-Corner
// vs Block-Rectangle on a fully connected network as heterogeneity x
// (ratio x:1:1) grows. n is the matrix dimension used for the simulated
// series (the closed forms use nModel, the paper's 5000).
func Fig14Sweep(xs []float64, nModel, nSim int) ([]Fig14Row, error) {
	return Fig14SweepContext(context.Background(), xs, nModel, nSim)
}

// Fig14SweepContext is Fig14Sweep with cancellation between sample
// points.
func Fig14SweepContext(ctx context.Context, xs []float64, nModel, nSim int) ([]Fig14Row, error) {
	if len(xs) == 0 {
		for x := 2.0; x <= 25; x++ {
			xs = append(xs, x)
		}
	}
	rows := make([]Fig14Row, 0, len(xs))
	for _, x := range xs {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("experiment: Fig 14 sweep interrupted: %w", err)
		}
		ratio := partition.MustRatio(x, 1, 1)
		m := model.DefaultMachine(ratio)
		row := Fig14Row{X: x}
		if sc, ok := model.SCBCommSeconds(partition.SquareCorner, m, nModel); ok {
			row.SCModel = sc
			row.SCFeasible = true
		}
		br, ok := model.SCBCommSeconds(partition.BlockRectangle, m, nModel)
		if !ok {
			return nil, fmt.Errorf("experiment: block-rectangle closed form missing at x=%v", x)
		}
		row.BRModel = br

		if nSim > 0 {
			if row.SCFeasible {
				g, err := partition.Build(partition.SquareCorner, nSim, ratio)
				if err == nil {
					res, err := sim.Simulate(model.SCB, m, g)
					if err != nil {
						return nil, err
					}
					// Scale the simulated comm time from nSim to nModel
					// (volume scales with N²).
					row.SCSim = res.TComm * float64(nModel) * float64(nModel) / (float64(nSim) * float64(nSim))
				}
			}
			g, err := partition.Build(partition.BlockRectangle, nSim, ratio)
			if err != nil {
				return nil, err
			}
			res, err := sim.Simulate(model.SCB, m, g)
			if err != nil {
				return nil, err
			}
			row.BRSim = res.TComm * float64(nModel) * float64(nModel) / (float64(nSim) * float64(nSim))
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Crossover returns the smallest x at which the Square-Corner's modelled
// communication time beats the Block-Rectangle's, or 0 if none.
func Crossover(rows []Fig14Row) float64 {
	for _, r := range rows {
		if r.SCFeasible && r.SCModel < r.BRModel {
			return r.X
		}
	}
	return 0
}

// WriteFig14Table renders the sweep as a markdown table.
func WriteFig14Table(w io.Writer, rows []Fig14Row) error {
	if _, err := fmt.Fprintln(w, "| x (ratio x:1:1) | SC model (s) | BR model (s) | SC sim (s) | BR sim (s) | winner |"); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "|---|---|---|---|---|---|"); err != nil {
		return err
	}
	for _, r := range rows {
		sc := "infeasible"
		winner := "Block-Rectangle"
		if r.SCFeasible {
			sc = fmt.Sprintf("%.4f", r.SCModel)
			if r.SCModel < r.BRModel {
				winner = "Square-Corner"
			}
		}
		scSim := "-"
		if r.SCSim > 0 {
			scSim = fmt.Sprintf("%.4f", r.SCSim)
		}
		brSim := "-"
		if r.BRSim > 0 {
			brSim = fmt.Sprintf("%.4f", r.BRSim)
		}
		if _, err := fmt.Fprintf(w, "| %.0f | %s | %.4f | %s | %s | %s |\n",
			r.X, sc, r.BRModel, scSim, brSim, winner); err != nil {
			return err
		}
	}
	return nil
}

// ShapeCost is one candidate's modelled cost for a scenario.
type ShapeCost struct {
	Shape    partition.Shape
	Feasible bool
	VoC      int64
	Total    float64 // modelled execution seconds
	SimTotal float64 // simulated execution seconds
}

// OptimalRow reports the per-candidate costs and the winner for one
// (ratio, algorithm) scenario — the Section X methodology applied across
// all six candidates.
type OptimalRow struct {
	Ratio     partition.Ratio
	Algorithm model.Algorithm
	Costs     []ShapeCost
	Best      partition.Shape
}

// OptimalShapes compares the six candidates (model.Compare) for each
// ratio × algorithm on the default platform with spec applied, adds each
// feasible candidate's simulated execution time, and reports the winner
// by modelled execution time. ctx cancels between ratios.
func OptimalShapes(ctx context.Context, n int, ratios []partition.Ratio, spec model.TopologySpec) ([]OptimalRow, error) {
	if len(ratios) == 0 {
		ratios = partition.PaperRatios
	}
	var rows []OptimalRow
	for _, ratio := range ratios {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("experiment: optimal-shape sweep interrupted: %w", err)
		}
		m := spec.Apply(model.DefaultMachine(ratio))
		for _, alg := range model.AllAlgorithms {
			cands, best, err := model.Compare(alg, m, n)
			if err != nil {
				return nil, fmt.Errorf("experiment: no feasible shape for %v", ratio)
			}
			row := OptimalRow{Ratio: ratio, Algorithm: alg, Best: cands[best].Shape}
			for _, c := range cands {
				sc := ShapeCost{Shape: c.Shape, Feasible: c.Feasible, VoC: c.VoC, Total: c.Breakdown.Total}
				if c.Feasible {
					res, err := sim.Simulate(alg, m, c.Grid)
					if err != nil {
						return nil, err
					}
					sc.SimTotal = res.TExe
				}
				row.Costs = append(row.Costs, sc)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// WriteOptimalTable renders the winners grid: one line per ratio, one
// column per algorithm.
func WriteOptimalTable(w io.Writer, rows []OptimalRow) error {
	byRatio := map[string]map[model.Algorithm]partition.Shape{}
	var order []string
	for _, r := range rows {
		key := r.Ratio.String()
		if byRatio[key] == nil {
			byRatio[key] = map[model.Algorithm]partition.Shape{}
			order = append(order, key)
		}
		byRatio[key][r.Algorithm] = r.Best
	}
	sort.Strings(order)
	header := "| ratio |"
	sep := "|---|"
	for _, a := range model.AllAlgorithms {
		header += " " + a.String() + " |"
		sep += "---|"
	}
	if _, err := fmt.Fprintln(w, header); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, sep); err != nil {
		return err
	}
	for _, key := range order {
		line := "| " + key + " |"
		for _, a := range model.AllAlgorithms {
			line += " " + strings.TrimSuffix(byRatio[key][a].String(), "") + " |"
		}
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}
	return nil
}

// ExampleRun reproduces Fig 7: a single seeded DFA run whose partition is
// rendered (at the paper's coarse granularity) at the requested snapshot
// steps plus the final state. Returned keys are the step numbers.
func ExampleRun(n int, ratio partition.Ratio, seed int64, at []int, boxes int) (map[int]string, *push.RunResult, error) {
	want := make(map[int]bool, len(at))
	for _, s := range at {
		want[s] = true
	}
	frames := make(map[int]string)
	res, err := push.Run(push.Config{
		N:     n,
		Ratio: ratio,
		Seed:  seed,
		Snapshot: func(step int, g *partition.Grid) {
			if want[step] {
				frames[step] = g.RenderASCII(boxes)
			}
		},
	})
	if err != nil {
		return nil, nil, err
	}
	frames[res.Steps] = res.Final.RenderASCII(boxes)
	return frames, res, nil
}
