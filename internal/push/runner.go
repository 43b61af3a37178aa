package push

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/geom"
	"repro/internal/partition"
	"repro/internal/trace"
)

// ConfigError reports an invalid Config field. It is returned (never
// panicked) so a study harness can distinguish caller mistakes from run
// failures.
type ConfigError struct {
	Field  string
	Reason string
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("push: invalid %s: %s", e.Field, e.Reason)
}

// Config parameterises one run of the search program — the DFA of
// Section V whose states are partition shapes, whose alphabet is (active
// processor, direction) pairs and whose transition function is the Push.
type Config struct {
	// N is the matrix dimension (the paper used 1000; the structure of
	// the terminal shapes is scale-free).
	N int
	// Ratio is the processing-speed ratio Pr:Rr:Sr of the random q₀; it
	// is read only when the run draws its own start.
	Ratio partition.Ratio
	// Seed drives all randomisation (start state, direction sets, order).
	Seed int64
	// Start overrides the random q₀ when non-nil (the grid is cloned). It
	// may hold any processor count the grid supports; a search over K ≠ 3
	// processors passes its start here (see partition.NewRandomK).
	Start *partition.Grid
	// Types restricts the Push types tried; nil means all six.
	Types []Type
	// MaxSteps bounds the number of committed Pushes (a backstop only —
	// runs converge long before; 0 selects a generous default).
	MaxSteps int
	// Beautify applies the Theorem 8.3 cleanup after convergence: keep
	// pushing with *all* directions enabled until fully condensed, which
	// removes Archetype C interlocks left by restricted direction sets.
	Beautify bool
	// Clustered draws q₀ from the clustered random family instead of the
	// paper's uniform one.
	Clustered bool
	// Scratch, when non-nil, is used as the run's working grid instead of
	// allocating a fresh N² grid: it is reset and re-randomised (or
	// overwritten from Start, whose processor count it must share) in
	// place, and RunResult.Final aliases it.
	// Callers pooling grids must finish with Final before reusing Scratch.
	// Seeded runs produce identical results with or without a Scratch.
	Scratch *partition.Grid
	// Snapshot, when non-nil, receives the partition after every
	// committed Push (step counts from 1) plus once for the start state
	// (step 0). Used to regenerate Fig 7.
	Snapshot func(step int, g *partition.Grid)
	// Trace, when non-nil, receives one span per run phase (setup,
	// condense, beautify) with step/VoC annotations. Aggregate
	// counters always flow to the package metrics regardless.
	Trace *trace.Trace
}

// DirectionPlan is the randomised direction assignment of Section VI-A.1:
// each slow processor is given a random non-empty subset of directions in
// a random order.
type DirectionPlan map[partition.Proc][]geom.Direction

// newPlan draws the direction sets of the k−1 slow processors of a grid of
// k, in decreasing speed (R, then S).
func newPlan(rng *rand.Rand, k int) DirectionPlan {
	plan := make(DirectionPlan, k-1)
	for p := range partition.Proc(k - 1) {
		cnt := 1 + rng.Intn(geom.NumDirections)
		perm := rng.Perm(geom.NumDirections)
		dirs := make([]geom.Direction, cnt)
		for i := 0; i < cnt; i++ {
			dirs[i] = geom.AllDirections[perm[i]]
		}
		plan[p] = dirs
	}
	return plan
}

// FullPlan gives each of the k−1 slow processors of a grid of k all four
// directions (used by Beautify and by reduction proofs).
func FullPlan(k int) DirectionPlan {
	plan := make(DirectionPlan, k-1)
	for p := range partition.Proc(k - 1) {
		plan[p] = append([]geom.Direction(nil), geom.AllDirections[:]...)
	}
	return plan
}

// RunResult reports a completed run.
type RunResult struct {
	// Final is the condensed terminal partition (an accept state of the
	// DFA).
	Final *partition.Grid
	// Steps is the number of committed Pushes.
	Steps int
	// InitialVoC and FinalVoC bracket the communication improvement.
	InitialVoC, FinalVoC int64
	// Plan records the randomised direction sets used.
	Plan DirectionPlan
	// Converged is false only if MaxSteps was exhausted first.
	Converged bool
}

// Run executes the DFA from a random (or supplied) start state until no
// legal Push remains for any slow processor within its direction set —
// the end condition of Section VI-C.
func Run(cfg Config) (*RunResult, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext is Run with cancellation: the step loop checks ctx between
// Pushes, so a paper-scale run (minutes at N=1000) stops promptly when
// the study around it is interrupted. A cancelled run returns ctx's
// error; no partial RunResult is produced.
func RunContext(ctx context.Context, cfg Config) (*RunResult, error) {
	if cfg.N <= 1 {
		return nil, &ConfigError{Field: "N", Reason: fmt.Sprintf("must be at least 2, got %d", cfg.N)}
	}
	if cfg.MaxSteps < 0 {
		return nil, &ConfigError{Field: "MaxSteps", Reason: fmt.Sprintf("must be non-negative, got %d", cfg.MaxSteps)}
	}
	k := partition.NumProcs // the processor count of the run's own start
	if cfg.Start != nil {
		if cfg.Start.N() != cfg.N {
			return nil, &ConfigError{Field: "Start", Reason: fmt.Sprintf("grid is %d×%d, config wants %d", cfg.Start.N(), cfg.Start.N(), cfg.N)}
		}
		k = cfg.Start.K()
	} else if err := cfg.Ratio.Validate(); err != nil {
		return nil, err
	}
	if cfg.Scratch != nil && cfg.Scratch.N() != cfg.N {
		return nil, &ConfigError{Field: "Scratch", Reason: fmt.Sprintf("grid is %d×%d, config wants %d", cfg.Scratch.N(), cfg.Scratch.N(), cfg.N)}
	}
	if cfg.Scratch != nil && cfg.Scratch.K() != k {
		return nil, &ConfigError{Field: "Scratch", Reason: fmt.Sprintf("grid has %d processors, the start has %d", cfg.Scratch.K(), k)}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	setupStart := time.Now()
	var setupSpan *trace.Active
	if cfg.Trace != nil {
		setupSpan = cfg.Trace.Start("setup")
	}

	var g *partition.Grid
	switch {
	case cfg.Start != nil:
		if cfg.Scratch != nil {
			cfg.Scratch.CopyFrom(cfg.Start)
			g = cfg.Scratch
		} else {
			g = cfg.Start.Clone()
		}
	case cfg.Clustered:
		if cfg.Scratch != nil {
			partition.RandomizeClusteredInto(cfg.Scratch, cfg.Ratio, rng)
			g = cfg.Scratch
		} else {
			g = partition.NewRandomClustered(cfg.N, cfg.Ratio, rng)
		}
	default:
		if cfg.Scratch != nil {
			partition.RandomizeInto(cfg.Scratch, cfg.Ratio, rng)
			g = cfg.Scratch
		} else {
			g = partition.NewRandom(cfg.N, cfg.Ratio, rng)
		}
	}

	plan := newPlan(rng, k)
	maxSteps := cfg.MaxSteps
	if maxSteps <= 0 {
		maxSteps = 40 * cfg.N // far beyond observed convergence (~2N)
	}

	res := &RunResult{Plan: plan, InitialVoC: g.VoC()}
	if cfg.Snapshot != nil {
		cfg.Snapshot(0, g)
	}
	setupNanos.Add(time.Since(setupStart).Nanoseconds())
	if setupSpan != nil {
		setupSpan.SetDetail("n=%d voc0=%d", cfg.N, res.InitialVoC)
		setupSpan.End()
	}

	condenseStart := time.Now()
	var condenseSpan *trace.Active
	if cfg.Trace != nil {
		condenseSpan = cfg.Trace.Start("condense")
	}
	steps, converged, err := condense(ctx, g, plan, cfg.Types, maxSteps, rng, cfg.Snapshot)
	condenseNanos.Add(time.Since(condenseStart).Nanoseconds())
	if condenseSpan != nil {
		condenseSpan.SetDetail("steps=%d voc=%d", steps, g.VoC())
		condenseSpan.End()
	}
	if err != nil {
		return nil, err
	}
	res.Steps = steps
	res.Converged = converged
	if cfg.Beautify && converged {
		beautifyStart := time.Now()
		var beautifySpan *trace.Active
		if cfg.Trace != nil {
			beautifySpan = cfg.Trace.Start("beautify")
		}
		extra, conv2, err := condense(ctx, g, FullPlan(k), cfg.Types, maxSteps, rng, cfg.Snapshot)
		beautifyNanos.Add(time.Since(beautifyStart).Nanoseconds())
		if beautifySpan != nil {
			beautifySpan.SetDetail("steps=%d voc=%d", extra, g.VoC())
			beautifySpan.End()
		}
		if err != nil {
			return nil, err
		}
		res.Steps += extra
		res.Converged = conv2
	}
	res.Final = g
	res.FinalVoC = g.VoC()
	runsTotal.Add(1)
	return res, nil
}

// Condense applies Pushes from the plan until none is legal, returning
// the number of committed Pushes and whether a fixed point was reached
// within maxSteps (0 selects 40·N). It is the convergence loop the DFA
// runner uses, exposed for the Section VIII reductions and the beautify
// cleanup. The grid is mutated in place.
//
// Plateau cycles (sequences of Type 5/6 Pushes that leave VoC unchanged)
// are broken by fingerprinting: a Push that recreates a state already
// visited since the last VoC decrease is vetoed.
func Condense(g *partition.Grid, plan DirectionPlan, types []Type, maxSteps int) (int, bool) {
	if maxSteps <= 0 {
		maxSteps = 40 * g.N()
	}
	steps, converged, _ := condense(context.Background(), g, plan, types, maxSteps, nil, nil)
	return steps, converged
}

// condenseScratch is the reusable working state of one condensation loop:
// the plateau set, the fingerprints visited since the last VoC drop.
// Pooling it means the set is emptied — not reallocated — on every drop,
// and its buckets survive across runs.
type condenseScratch struct {
	plateau map[uint64]struct{}
	// keys lists the plateau set's entries, so resetPlateau deletes them
	// one by one in O(entries). clear would cost the map's capacity, which
	// one long plateau can grow far beyond the entries of later ones.
	keys []uint64
}

var condensePool = sync.Pool{
	New: func() any { return &condenseScratch{plateau: make(map[uint64]struct{}, 64)} },
}

// visit adds fp to the plateau set, reporting false if it was already in.
func (sc *condenseScratch) visit(fp uint64) bool {
	if _, seen := sc.plateau[fp]; seen {
		return false
	}
	sc.plateau[fp] = struct{}{}
	sc.keys = append(sc.keys, fp)
	return true
}

// resetPlateau empties the plateau set and enters fp, the state a VoC drop
// (or the start of the run) reached.
func (sc *condenseScratch) resetPlateau(fp uint64) {
	for _, k := range sc.keys {
		delete(sc.plateau, k)
	}
	sc.keys = sc.keys[:0]
	sc.visit(fp)
}

func condense(ctx context.Context, g *partition.Grid, plan DirectionPlan, types []Type, maxSteps int, rng *rand.Rand, snapshot func(int, *partition.Grid)) (steps int, converged bool, err error) {
	sc := condensePool.Get().(*condenseScratch)
	defer condensePool.Put(sc)
	var tally searchTally
	defer func() { tally.flush(steps) }()
	sc.resetPlateau(g.Fingerprint())
	lastVoC := g.VoC()
	accept := func(t *partition.Grid) bool {
		if t.VoC() < lastVoC {
			return true
		}
		return sc.visit(t.Fingerprint())
	}

	// Failed-probe memo. A failing AttemptAny has no side effects, and its
	// outcome is a function of the grid plus the plateau state: VoC never
	// increases, so revisiting a fingerprint means it never dropped in
	// between — the threshold (lastVoC, a function of the grid) is
	// unchanged and the plateau set only grew. Every structural failure
	// still fails and every vetoed push is still vetoed. Skipping the
	// re-probe is therefore exactly equivalent, and it eliminates the full
	// verification sweep a fixed point otherwise pays per (processor,
	// direction) pair.
	var failFP [partition.MaxProcs - 1][geom.NumDirections]uint64
	var failKnown [partition.MaxProcs - 1][geom.NumDirections]bool

	slow := int(g.Fastest()) // the slow processors are 0…slow−1
	var order [partition.MaxProcs - 1]partition.Proc
	plateauStreak := 0 // ΔVoC=0 commits since the last VoC drop
	for steps < maxSteps {
		// The cancellation point of the DFA's step loop: once per sweep
		// plus once per committed Push below, so both fixed-point-probing
		// and actively-condensing runs notice a cancel promptly.
		if err := ctx.Err(); err != nil {
			return steps, false, err
		}
		progressed := false
		// Random processor order each sweep, per the randomised search: a
		// forward Fisher–Yates shuffle of R, S, … (at K=3 one draw, which
		// swaps R and S iff it is 1).
		for i := range slow {
			order[i] = partition.Proc(i)
		}
		for i := 0; rng != nil && i < slow-1; i++ {
			j := i + rng.Intn(slow-i)
			order[i], order[j] = order[j], order[i]
		}
		for _, p := range order[:slow] {
			pi := int(p)
			for _, d := range plan[p] {
				tally.memoProbes++
				if failKnown[pi][d] && failFP[pi][d] == g.Fingerprint() {
					tally.memoHits++
					continue
				}
				if res, ok := AttemptAny(g, p, d, types, accept); ok {
					steps++
					progressed = true
					if res.DeltaVoC < 0 {
						if plateauStreak > 0 {
							tally.plateauEscapes++
							plateauStreak = 0
						}
						lastVoC = g.VoC()
						sc.resetPlateau(g.Fingerprint())
					} else {
						tally.plateauMoves++
						plateauStreak++
					}
					if snapshot != nil {
						snapshot(steps, g)
					}
					if steps >= maxSteps {
						return steps, false, nil
					}
					if err := ctx.Err(); err != nil {
						return steps, false, err
					}
				} else {
					failKnown[pi][d] = true
					failFP[pi][d] = g.Fingerprint()
				}
			}
		}
		if !progressed {
			return steps, true, nil
		}
	}
	return steps, false, nil
}

// Condensed reports whether no legal Push remains for any slow processor
// in any of the plan's directions — the paper's definition of a fully
// condensed partition.
//
// Legality is probed in place with an always-reject accept callback:
// Attempt only consults the callback once a fully-formed, contract-clean
// Push is about to commit, so "the callback fired" is exactly "a legal Push
// exists", and the veto's rollback restores the grid (fingerprint included)
// bit-exactly. No clone of the N² cells is ever taken.
func Condensed(g *partition.Grid, plan DirectionPlan, types []Type) bool {
	if len(types) == 0 {
		types = AllTypes
	}
	legal := false
	probe := func(*partition.Grid) bool {
		legal = true
		return false
	}
	for p := range g.Fastest() {
		for _, d := range plan[p] {
			for _, t := range types {
				if _, ok := Attempt(g, p, d, t, probe); ok || legal {
					return false
				}
			}
		}
	}
	return true
}
