package model

import (
	"fmt"

	"repro/internal/partition"
)

// Candidate is one Section IX candidate shape priced in a Section X
// comparison.
type Candidate struct {
	Shape    partition.Shape
	Feasible bool
	// Grid is the built candidate; nil when the shape is infeasible for
	// the ratio.
	Grid *partition.Grid
	// VoC is the communication volume in elements (Eq 1).
	VoC int64
	// Breakdown is the modelled execution time of the algorithm.
	Breakdown Breakdown
}

// Compare is the Section X methodology: it builds the six candidates in
// paper order (partition.AllShapes) for machine m's ratio at dimension n,
// prices each one under algorithm a, and returns them all with the index
// of the winner — the least modelled Total, the earlier shape winning a
// tie. An infeasible candidate is listed with Feasible false and a nil
// Grid. The error reports that no candidate could be built.
func Compare(a Algorithm, m Machine, n int) ([]Candidate, int, error) {
	cands := make([]Candidate, len(partition.AllShapes))
	best := -1
	for i, s := range partition.AllShapes {
		cands[i].Shape = s
		g, err := partition.Build(s, n, m.Ratio)
		if err != nil {
			continue
		}
		cands[i] = Candidate{Shape: s, Feasible: true, Grid: g, VoC: g.VoC(), Breakdown: EvaluateGrid(a, m, g)}
		if best < 0 || cands[i].Breakdown.Total < cands[best].Breakdown.Total {
			best = i
		}
	}
	if best < 0 {
		return cands, best, fmt.Errorf("model: no feasible candidate for ratio %v", m.Ratio)
	}
	return cands, best, nil
}
