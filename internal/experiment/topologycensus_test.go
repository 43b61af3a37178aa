package experiment

import (
	"context"
	"testing"

	"repro/internal/model"
	"repro/internal/partition"
)

// legacyWinner is the winner at one ratio on the legacy machine, built
// explicitly: the default platform with its Topology field set directly.
func legacyWinner(t *testing.T, a model.Algorithm, topo model.TopologySpec, ratio partition.Ratio, n int) partition.Shape {
	t.Helper()
	m := model.DefaultMachine(ratio)
	m.Topology = topo
	cands, best, err := model.Compare(a, m, n)
	if err != nil {
		t.Fatal(err)
	}
	return cands[best].Shape
}

// TestWinnerMapSpecUniformMatchesLegacy: the spec-based sweep under the
// empty (uniform) spec must agree cell-for-cell with the legacy fully
// connected machine, and under "star" with the legacy star machine — the
// experiment-layer half of the differential equivalence suite.
func TestWinnerMapSpecUniformMatchesLegacy(t *testing.T) {
	for _, tc := range []struct {
		spec string
		topo model.TopologySpec
	}{
		{"", model.FullyConnected},
		{"star", model.Star},
	} {
		wm, err := ComputeWinnerMap(context.Background(), model.SCB, "uniform", mustSpec(t, tc.spec), 4, 10, 1, 60)
		if err != nil {
			t.Fatal(err)
		}
		// Rr = 1..4 against Pr = Rr..10: 10 + 9 + 8 + 7 cells.
		if len(wm.Cells) != 34 {
			t.Fatalf("spec %q: %d cells, want 34", tc.spec, len(wm.Cells))
		}
		for c, got := range wm.Cells {
			if want := legacyWinner(t, model.SCB, tc.topo, partition.MustRatio(c[1], c[0], 1), 60); got != want {
				t.Errorf("spec %q Rr=%g Pr=%g: winner %v, legacy %v %v", tc.spec, c[0], c[1], got, tc.topo, want)
			}
		}
	}
}

// TestUniformRescaleCannotFlip pins the modeling fact the 3-island
// redesign rests on: pricing every link by the same factor is the
// uniform topology in disguise — computation time is shape-invariant
// per ratio and a uniform rescale preserves the communication ordering,
// so not one cell may change winner.
func TestUniformRescaleCannotFlip(t *testing.T) {
	for _, a := range model.AllAlgorithms {
		base, err := ComputeWinnerMap(context.Background(), a, "uniform", model.TopologySpec{}, 4, 10, 1, 60)
		if err != nil {
			t.Fatal(err)
		}
		scaled, err := ComputeWinnerMap(context.Background(), a, "flat", mustSpec(t, "links:PR=10,PS=10,RS=10"), 4, 10, 1, 60)
		if err != nil {
			t.Fatal(err)
		}
		if d := scaled.Diff(base); len(d) != 0 {
			t.Fatalf("%v: flat 10× rescale flipped cells %v", a, d)
		}
	}
}

// TestTopologyClassFlipsKnownCells is the table-driven flip test: a 10×
// inter-node β must flip these specific cells' winners (probed once,
// then pinned — a silent regression in the link-matrix pricing would
// show up here first).
func TestTopologyClassFlipsKnownCells(t *testing.T) {
	const n = 60
	cases := []struct {
		alg      model.Algorithm
		spec     string
		rr, pr   float64
		uniform  partition.Shape
		expected partition.Shape
	}{
		{model.SCB, "2+1:10", 3, 3, partition.BlockRectangle, partition.RectangleCorner},
		{model.SCB, "3-island:10", 3, 4, partition.BlockRectangle, partition.SquareCorner},
		{model.PCB, "2+1:10", 3, 4, partition.BlockRectangle, partition.SquareRectangle},
		{model.PCB, "3-island:10", 3, 3, partition.SquareRectangle, partition.RectangleCorner},
		{model.SCO, "2+1:10", 4, 8, partition.BlockRectangle, partition.SquareCorner},
		{model.PCO, "3-island:10", 2, 2, partition.SquareRectangle, partition.RectangleCorner},
		{model.PIO, "2+1:10", 3, 3, partition.BlockRectangle, partition.RectangleCorner},
		{model.PIO, "3-island:10", 3, 9, partition.BlockRectangle, partition.SquareCorner},
	}
	for _, tc := range cases {
		ratio := partition.MustRatio(tc.pr, tc.rr, 1)
		if base := legacyWinner(t, tc.alg, model.FullyConnected, ratio, n); base != tc.uniform {
			t.Errorf("%v %g:%g:1 uniform winner %v, want %v (table stale?)",
				tc.alg, tc.pr, tc.rr, base, tc.uniform)
			continue
		}
		cands, best, err := model.Compare(tc.alg, mustSpec(t, tc.spec).Apply(model.DefaultMachine(ratio)), n)
		if err != nil {
			t.Fatal(err)
		}
		if got := cands[best].Shape; got != tc.expected {
			t.Errorf("%v %s %g:%g:1: winner %v, want flip to %v",
				tc.alg, tc.spec, tc.pr, tc.rr, got, tc.expected)
		}
	}
}

// TestRunTopologyCensus: every non-uniform class must move at least one
// cell on the standard census window — the acceptance criterion of the
// cost-model refactor — and the flip summary must name each one.
func TestRunTopologyCensus(t *testing.T) {
	entries, err := RunTopologyCensus(context.Background(), model.SCB, 4, 12, 1, 60)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 || entries[0].Class.Name != "uniform" || entries[0].Flips != 0 {
		t.Fatalf("unexpected census layout: %+v", entries)
	}
	for _, e := range entries[1:] {
		if e.Flips == 0 {
			t.Errorf("class %s flips no cells — not a distinct topology class", e.Class.Name)
		}
		if got := len(CensusFlipSummary(entries[0], e)); got != e.Flips {
			t.Errorf("class %s: summary has %d lines, Flips=%d", e.Class.Name, got, e.Flips)
		}
	}
}
