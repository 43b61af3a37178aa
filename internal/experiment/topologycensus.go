package experiment

import (
	"context"
	"fmt"
	"io"
	"sort"

	"repro/internal/model"
)

// The topology census re-runs the Section IX–X winner-map methodology
// once per interconnect class (TopologyClasses) and quantifies how each
// class moves the phase boundaries relative to the paper's uniform
// network. It is the experiment behind the winner-map-by-topology table
// in EXPERIMENTS.md and the CI census smoke step.

// CensusEntry is one class's winner map plus its disagreement with the
// uniform baseline.
type CensusEntry struct {
	Class TopologyClass
	Map   *WinnerMap
	// Flips counts sampled cells whose winner differs from the uniform
	// baseline (zero for the baseline itself).
	Flips int
}

// RunTopologyCensus computes the winner map for every topology class
// over the same ratio-plane sample. The first entry is always the
// uniform baseline.
func RunTopologyCensus(ctx context.Context, a model.Algorithm, rrMax, prMax, step float64, n int) ([]CensusEntry, error) {
	var out []CensusEntry
	for _, tc := range TopologyClasses() {
		spec, err := model.ParseTopologySpec(tc.Spec)
		if err != nil {
			return nil, fmt.Errorf("experiment: census class %s: %w", tc.Name, err)
		}
		wm, err := ComputeWinnerMap(ctx, a, tc.Name, spec, rrMax, prMax, step, n)
		if err != nil {
			return nil, fmt.Errorf("experiment: census class %s: %w", tc.Name, err)
		}
		e := CensusEntry{Class: tc, Map: wm}
		if len(out) > 0 {
			e.Flips = len(wm.Diff(out[0].Map))
		}
		out = append(out, e)
	}
	return out, nil
}

// WriteCensus renders the census: each class's phase diagram followed by
// a per-class flip summary against the uniform baseline.
func WriteCensus(w io.Writer, entries []CensusEntry) error {
	for _, e := range entries {
		if err := e.Map.Write(w); err != nil {
			return err
		}
	}
	for _, e := range entries[1:] {
		if _, err := fmt.Fprintf(w, "class %s: %d cells change winner vs uniform\n", e.Class.Name, e.Flips); err != nil {
			return err
		}
	}
	return nil
}

// CensusFlipSummary returns, for one non-baseline entry, the flipped
// cells in deterministic (Rr, then Pr) order as "Rr=… Pr=… old→new"
// lines — the census's evidence trail.
func CensusFlipSummary(base, e CensusEntry) []string {
	cells := e.Map.Diff(base.Map)
	sort.Slice(cells, func(i, j int) bool {
		if cells[i][0] != cells[j][0] {
			return cells[i][0] < cells[j][0]
		}
		return cells[i][1] < cells[j][1]
	})
	out := make([]string, 0, len(cells))
	for _, c := range cells {
		out = append(out, fmt.Sprintf("Rr=%g Pr=%g %v→%v",
			c[0], c[1], base.Map.Cells[c], e.Map.Cells[c]))
	}
	return out
}
