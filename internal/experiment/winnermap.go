package experiment

import (
	"context"
	"fmt"
	"io"

	"repro/internal/model"
	"repro/internal/partition"
)

// WinnerMap extends the Fig 13 comparison from two shapes to all six
// candidates: for every sampled ratio (Pr, Rr, Sr=1) it reports which
// candidate minimises the given algorithm's modelled execution time — a
// phase diagram of the optimal-shape problem over the ratio plane.
type WinnerMap struct {
	Algorithm model.Algorithm
	// Label names the interconnect in the rendered diagram.
	Label string
	RrMax float64
	PrMax float64
	Step  float64
	// Cells maps "Rr,Pr" sample coordinates to the winning shape.
	Cells map[[2]float64]partition.Shape
}

// TopologyClass is one interconnect scenario of the §IX–X re-run: a
// human-readable name plus the topology spec that prices it.
type TopologyClass struct {
	// Name labels the class in reports and golden files.
	Name string
	// Spec is the wire-grammar topology ("", "2+1:10", ...).
	Spec string
}

// TopologyClasses are the three interconnect classes the winner-map
// census re-runs the Section IX–X methodology over: the paper's uniform
// fully connected network, a 2+1 placement (P and R share a node, S is
// 10× farther), and three islands (links touching P 10× slower than the
// base, the R↔S pair 100×).
func TopologyClasses() []TopologyClass {
	return []TopologyClass{
		{Name: "uniform", Spec: ""},
		{Name: "2+1", Spec: "2+1:10"},
		{Name: "3-island", Spec: "3-island:10"},
	}
}

// ComputeWinnerMap samples the ratio plane on an n-cell grid basis (the
// shapes are constructed concretely so integral effects are included):
// each cell is model.Compare on the default platform with spec applied,
// so a cell's winner is the shape an online plan request would be served.
// The label names the interconnect in the rendered diagram; ctx cancels
// between sampled rows.
func ComputeWinnerMap(ctx context.Context, a model.Algorithm, label string, spec model.TopologySpec, rrMax, prMax, step float64, n int) (*WinnerMap, error) {
	wm := &WinnerMap{Algorithm: a, Label: label, RrMax: rrMax, PrMax: prMax, Step: step}
	if wm.Step <= 0 {
		wm.Step = 1
	}
	if n < 10 {
		return nil, &ConfigError{Field: "n", Reason: fmt.Sprintf("winner map needs n ≥ 10, got %d", n)}
	}
	wm.Cells = make(map[[2]float64]partition.Shape)
	for rr := 1.0; rr <= wm.RrMax+1e-9; rr += wm.Step {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("experiment: winner map interrupted: %w", err)
		}
		for pr := rr; pr <= wm.PrMax+1e-9; pr += wm.Step {
			m := spec.Apply(model.DefaultMachine(partition.MustRatio(pr, rr, 1)))
			cands, best, err := model.Compare(a, m, n)
			if err != nil {
				return nil, fmt.Errorf("experiment: no feasible shape at Pr=%v Rr=%v", pr, rr)
			}
			wm.Cells[[2]float64{rr, pr}] = cands[best].Shape
		}
	}
	return wm, nil
}

// ShapeGlyph assigns one letter per candidate for ASCII phase diagrams
// (the winner map here and the atlas dump in internal/atlas).
func ShapeGlyph(s partition.Shape) byte {
	switch s {
	case partition.SquareCorner:
		return 'C' // square-Corner
	case partition.RectangleCorner:
		return 'r'
	case partition.SquareRectangle:
		return 'Q'
	case partition.BlockRectangle:
		return 'B'
	case partition.LRectangle:
		return 'L'
	case partition.TraditionalRectangle:
		return 'T'
	}
	return '?'
}

// Write renders the phase diagram: Pr increases downward, Rr rightward;
// '.' marks the Pr < Rr region excluded by the ratio ordering.
func (wm *WinnerMap) Write(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "winner map: %v, %v topology (C=Square-Corner r=Rectangle-Corner Q=Square-Rectangle B=Block-Rectangle L=L-Rectangle T=Traditional)\n",
		wm.Algorithm, wm.Label); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "rows: Pr = 1..%g (top to bottom); cols: Rr = 1..%g (left to right); step %g\n",
		wm.PrMax, wm.RrMax, wm.Step); err != nil {
		return err
	}
	for pr := 1.0; pr <= wm.PrMax+1e-9; pr += wm.Step {
		line := make([]byte, 0, int(wm.RrMax/wm.Step)+2)
		for rr := 1.0; rr <= wm.RrMax+1e-9; rr += wm.Step {
			if s, ok := wm.Cells[[2]float64{rr, pr}]; ok {
				line = append(line, ShapeGlyph(s))
			} else {
				line = append(line, '.')
			}
		}
		if _, err := fmt.Fprintf(w, "Pr=%5.1f %s\n", pr, line); err != nil {
			return err
		}
	}
	return nil
}

// Count returns how many sampled cells each shape wins.
func (wm *WinnerMap) Count() map[partition.Shape]int {
	out := make(map[partition.Shape]int)
	for _, s := range wm.Cells {
		out[s]++
	}
	return out
}

// Diff returns the sample coordinates at which the two maps disagree on
// the winner (cells present in either map; a cell missing from one map
// counts as a disagreement). Used by the topology census to quantify how
// an interconnect class moves the phase boundaries.
func (wm *WinnerMap) Diff(other *WinnerMap) [][2]float64 {
	var out [][2]float64
	for c, s := range wm.Cells {
		if o, ok := other.Cells[c]; !ok || o != s {
			out = append(out, c)
		}
	}
	for c := range other.Cells {
		if _, ok := wm.Cells[c]; !ok {
			out = append(out, c)
		}
	}
	return out
}
