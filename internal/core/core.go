// Package core composes the paper's full pipeline — the primary
// contribution as a single orchestrated study:
//
//  1. run the Push-search DFA from many random start states (Section VI),
//  2. classify every terminal state into the four archetypes and check
//     Postulate 1 (Section VII),
//  3. reduce non-A terminal states to Archetype A (Section VIII),
//  4. build the six candidate canonical shapes and pick the optimum for
//     each MMM algorithm under the requested topology (Sections IX–X).
//
// The individual pieces live in internal/push, internal/shape,
// internal/partition, internal/model and internal/experiment; core wires
// them together the way the paper's methodology does, and is what the
// command-line tools drive.
package core

import (
	"context"
	"fmt"
	"io"

	"repro/internal/experiment"
	"repro/internal/model"
	"repro/internal/partition"
	"repro/internal/push"
	"repro/internal/shape"
)

// StudyConfig parameterises a full study of one ratio.
type StudyConfig struct {
	// N is the matrix dimension for the DFA runs and candidate builds.
	N int
	// Ratio is the processor speed ratio.
	Ratio partition.Ratio
	// Runs is the number of DFA runs (the paper used ~10,000 per ratio).
	Runs int
	// Seed drives all randomisation.
	Seed int64
	// Topology for the Section X comparison; the zero spec is fully
	// connected.
	Topology model.TopologySpec
	// Journal, when set, checkpoints the census phase to this JSONL file
	// so an interrupted study can resume. Resume replays a prior journal
	// before running the remaining work; the resumed study is bit-identical
	// to an uninterrupted one.
	Journal string
	Resume  bool
}

// Study is the outcome of the full pipeline for one ratio.
type Study struct {
	Config StudyConfig
	// Archetypes histograms the DFA terminal states.
	Archetypes map[shape.Archetype]int
	// Counterexamples counts terminal states outside A–D (Postulate 1
	// predicts zero).
	Counterexamples int
	// MeanVoCDrop is the average fractional VoC reduction of the runs.
	MeanVoCDrop float64
	// BestTerminalVoC is the lowest VoC any DFA run reached.
	BestTerminalVoC int64
	// ReducedVoC is the VoC of the best terminal state after the
	// Section VIII reduction to Archetype A.
	ReducedVoC int64
	// Optimal maps each MMM algorithm to the winning candidate shape.
	Optimal map[model.Algorithm]partition.Shape
	// CandidateVoC lists each candidate's VoC (−1 when infeasible).
	CandidateVoC map[partition.Shape]int64
}

// Run executes the full pipeline.
func Run(cfg StudyConfig) (*Study, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext is Run with cooperative cancellation: the census, the
// best-terminal re-run and the candidate sweeps all stop promptly when
// ctx is cancelled, returning the context's error.
func RunContext(ctx context.Context, cfg StudyConfig) (*Study, error) {
	if cfg.N < 10 {
		return nil, fmt.Errorf("core: N must be ≥ 10, got %d", cfg.N)
	}
	if cfg.Runs <= 0 {
		return nil, fmt.Errorf("core: Runs must be positive")
	}
	if err := cfg.Ratio.Validate(); err != nil {
		return nil, err
	}
	st := &Study{
		Config:       cfg,
		Archetypes:   make(map[shape.Archetype]int),
		Optimal:      make(map[model.Algorithm]partition.Shape),
		CandidateVoC: make(map[partition.Shape]int64),
	}

	// Phase 1+2: DFA census.
	rows, err := experiment.CensusContext(ctx, experiment.CensusConfig{
		N:            cfg.N,
		RunsPerRatio: cfg.Runs,
		Ratios:       []partition.Ratio{cfg.Ratio},
		Seed:         cfg.Seed,
		Beautify:     true,
		Journal:      cfg.Journal,
		Resume:       cfg.Resume,
	})
	if err != nil {
		return nil, err
	}
	st.Archetypes = rows[0].Counts
	st.Counterexamples = st.Archetypes[shape.ArchetypeUnknown]
	st.MeanVoCDrop = rows[0].MeanVoCDrop

	// Phase 3: reduce the best terminal state to Archetype A. Re-run the
	// single best seed (census is deterministic in cfg.Seed).
	best, err := bestTerminal(ctx, cfg)
	if err != nil {
		return nil, err
	}
	st.BestTerminalVoC = best.VoC()
	red, err := shape.ReduceToA(best)
	if err != nil {
		return nil, err
	}
	st.ReducedVoC = red.VoCAfter

	// Phase 4: candidate comparison per algorithm.
	m := cfg.Topology.Apply(model.DefaultMachine(cfg.Ratio))
	for _, a := range model.AllAlgorithms {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: study interrupted: %w", err)
		}
		cands, best, err := model.Compare(a, m, cfg.N)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		st.Optimal[a] = cands[best].Shape
		// A candidate's VoC does not depend on the algorithm.
		for _, c := range cands {
			st.CandidateVoC[c.Shape] = -1
			if c.Feasible {
				st.CandidateVoC[c.Shape] = c.VoC
			}
		}
	}
	return st, nil
}

// bestTerminal re-runs the census seeds and returns the terminal state
// with the lowest VoC.
func bestTerminal(ctx context.Context, cfg StudyConfig) (*partition.Grid, error) {
	var best *partition.Grid
	for run := 0; run < cfg.Runs; run++ {
		res, err := push.RunContext(ctx, push.Config{
			N:        cfg.N,
			Ratio:    cfg.Ratio,
			Seed:     cfg.Seed + int64(run),
			Beautify: true,
		})
		if err != nil {
			return nil, err
		}
		if best == nil || res.Final.VoC() < best.VoC() {
			best = res.Final
		}
	}
	return best, nil
}

// Write renders the study as human-readable text.
func (st *Study) Write(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "Study of ratio %s (N=%d, %d runs)\n",
		st.Config.Ratio, st.Config.N, st.Config.Runs); err != nil {
		return err
	}
	fmt.Fprintf(w, "  archetypes: A=%d B=%d C=%d D=%d other=%d\n",
		st.Archetypes[shape.ArchetypeA], st.Archetypes[shape.ArchetypeB],
		st.Archetypes[shape.ArchetypeC], st.Archetypes[shape.ArchetypeD],
		st.Counterexamples)
	fmt.Fprintf(w, "  mean VoC reduction: %.1f%%\n", 100*st.MeanVoCDrop)
	fmt.Fprintf(w, "  best terminal VoC: %d; after reduction to A: %d\n",
		st.BestTerminalVoC, st.ReducedVoC)
	fmt.Fprintf(w, "  candidate VoC (%s topology):\n", st.Config.Topology)
	for _, s := range partition.AllShapes {
		v := st.CandidateVoC[s]
		if v < 0 {
			fmt.Fprintf(w, "    %-22s infeasible\n", s)
			continue
		}
		fmt.Fprintf(w, "    %-22s %d\n", s, v)
	}
	fmt.Fprintf(w, "  optimal shape per algorithm:\n")
	for _, a := range model.AllAlgorithms {
		fmt.Fprintf(w, "    %-4s %s\n", a, st.Optimal[a])
	}
	return nil
}
