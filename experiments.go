package heteropart

// This file re-exports the reproduction/analysis capabilities so external
// users of the module get the full toolbox: the archetype census
// (Postulate 1), the Fig 13/14 comparisons, phase diagrams, search
// traces, schedule Gantt charts, the two-processor baseline and the
// K-processor extension.

import (
	"context"
	"io"
	"math/rand"

	"repro/internal/experiment"
	"repro/internal/partition"
	"repro/internal/sim"
	"repro/internal/twoproc"
)

// CensusConfig parameterises the Section VII archetype census.
type CensusConfig = experiment.CensusConfig

// CensusRow is one ratio's census outcome.
type CensusRow = experiment.CensusRow

// Census runs the DFA many times per ratio and classifies every terminal
// state (Fig 5 / §VII; Postulate 1 predicts zero ArchetypeUnknown).
func Census(cfg CensusConfig) ([]CensusRow, error) { return experiment.Census(cfg) }

// WriteCensusTable renders census rows as a markdown table.
func WriteCensusTable(w io.Writer, rows []CensusRow) error {
	return experiment.WriteCensusTable(w, rows)
}

// Fig14Row is one point of the Fig 14 communication-time comparison.
type Fig14Row = experiment.Fig14Row

// Fig14Sweep reproduces the paper's headline experiment: SCB
// communication time, Square-Corner vs Block-Rectangle, ratio x:1:1.
func Fig14Sweep(xs []float64, nModel, nSim int) ([]Fig14Row, error) {
	return experiment.Fig14Sweep(xs, nModel, nSim)
}

// PhaseDiagram computes the optimal-shape winner map over the ratio plane
// (the all-candidates generalisation of Fig 13) under a topology spec; the
// zero spec is fully connected.
func PhaseDiagram(a Algorithm, spec TopologySpec, rrMax, prMax, step float64, n int) (*experiment.WinnerMap, error) {
	return experiment.ComputeWinnerMap(context.Background(), a, spec.String(), spec, rrMax, prMax, step, n)
}

// SearchTrace runs a Push search recording the VoC after every committed
// Push — the convergence curve behind Fig 7.
func SearchTrace(n int, ratio Ratio, seed int64) (*experiment.Trace, error) {
	return experiment.TraceRun(n, ratio, seed)
}

// GanttChart renders the simulated schedule of a barrier or bulk-overlap
// algorithm as a text Gantt chart.
func GanttChart(a Algorithm, m Machine, g *Partition, width int) (string, error) {
	return sim.Gantt(a, m, g, width)
}

// TwoProcShape is a two-processor candidate from the prior work [8].
type TwoProcShape = twoproc.Shape

// The two-processor candidates.
const (
	TwoProcStraightLine    = twoproc.StraightLine
	TwoProcSquareCorner    = twoproc.SquareCorner
	TwoProcRectangleCorner = twoproc.RectangleCorner
)

// TwoProcOptimal returns the prior work's optimal two-processor shape for
// the algorithm and fast:slow ratio (Square-Corner above 3:1 under the
// barrier algorithms, always under bulk overlap).
func TwoProcOptimal(a Algorithm, fastRatio float64) (TwoProcShape, error) {
	r, err := twoproc.NewRatio(fastRatio)
	if err != nil {
		return 0, err
	}
	return twoproc.Optimal(a, r), nil
}

// BuildTwoProc constructs a two-processor candidate on the shared grid
// type (fast processor = P, slow = R).
func BuildTwoProc(s TwoProcShape, n int, fastRatio float64) (*Partition, error) {
	r, err := twoproc.NewRatio(fastRatio)
	if err != nil {
		return nil, err
	}
	return twoproc.Build(s, n, r)
}

// NProcRatio is a K-processor speed ratio, fastest first (§XI extension).
type NProcRatio = partition.Speeds

// NProcStart draws the random start of a Push search over the K = 2…10
// processors of ratio. Search runs it when passed as SearchConfig.Start.
func NProcStart(n int, ratio NProcRatio, seed int64) (*Partition, error) {
	return partition.NewRandomK(n, ratio, rand.New(rand.NewSource(seed)))
}
