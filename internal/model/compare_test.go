package model

import (
	"testing"

	"repro/internal/partition"
)

// referenceCompare is the loop every caller ran before Compare: build
// each shape in paper order, price it with EvaluateGrid, keep the strict
// least Total.
func referenceCompare(a Algorithm, m Machine, n int) (grids []*partition.Grid, totals []Breakdown, best int) {
	best = -1
	for i, s := range partition.AllShapes {
		g, err := partition.Build(s, n, m.Ratio)
		grids = append(grids, nil)
		totals = append(totals, Breakdown{})
		if err != nil {
			continue
		}
		grids[i], totals[i] = g, EvaluateGrid(a, m, g)
		if best < 0 || totals[i].Total < totals[best].Total {
			best = i
		}
	}
	return grids, totals, best
}

// TestCompareMatchesReference: over the paper ratios, all five
// algorithms, four topologies and three sizes, Compare's list (shape,
// feasibility, grid, VoC, breakdown) and its winner equal the reference
// loop's.
func TestCompareMatchesReference(t *testing.T) {
	for _, topo := range []string{"", "star", "2+1:10", "3-island:10"} {
		spec, err := ParseTopologySpec(topo)
		if err != nil {
			t.Fatal(err)
		}
		for _, ratio := range partition.PaperRatios {
			m := spec.Apply(DefaultMachine(ratio))
			for _, n := range []int{12, 40, 61} {
				for _, a := range AllAlgorithms {
					cands, best, err := Compare(a, m, n)
					if err != nil {
						t.Fatalf("%q %v n=%d %v: %v", topo, ratio, n, a, err)
					}
					grids, totals, want := referenceCompare(a, m, n)
					if best != want {
						t.Errorf("%q %v n=%d %v: winner %d, reference %d", topo, ratio, n, a, best, want)
					}
					if len(cands) != len(partition.AllShapes) {
						t.Fatalf("%d candidates, want %d", len(cands), len(partition.AllShapes))
					}
					for i, c := range cands {
						ref := grids[i]
						ok := c.Shape == partition.AllShapes[i] && c.Feasible == (ref != nil)
						if ref == nil {
							ok = ok && c.Grid == nil && c.VoC == 0 && c.Breakdown == Breakdown{}
						} else {
							ok = ok && c.Grid != nil && c.Grid.Equal(ref) && c.VoC == ref.VoC() && c.Breakdown == totals[i]
						}
						if !ok {
							t.Errorf("%q %v n=%d %v: candidate %d = %+v differs from the reference", topo, ratio, n, a, i, c)
						}
					}
				}
			}
		}
	}
}

// TestCompareTieGoesToEarlierShape pins an observed exact tie: at 2:1:1,
// N=40, PCB, Block-Rectangle and Traditional-Rectangle price the same,
// and the earlier shape in paper order wins.
func TestCompareTieGoesToEarlierShape(t *testing.T) {
	cands, best, err := Compare(PCB, DefaultMachine(partition.MustRatio(2, 1, 1)), 40)
	if err != nil {
		t.Fatal(err)
	}
	const tie = 0x1.77cf44765196p-16
	// The list is in paper order, so a Shape's value indexes it.
	for _, s := range []partition.Shape{partition.BlockRectangle, partition.TraditionalRectangle} {
		if got := cands[s].Breakdown.Total; got != tie {
			t.Errorf("%v Total = %x, want %x", s, got, tie)
		}
	}
	if got := cands[best].Shape; got != partition.BlockRectangle {
		t.Errorf("winner %v, want Block-Rectangle", got)
	}
}

// TestCompareNoFeasibleCandidate: a machine whose ratio no shape can be
// built for lists all six as infeasible and reports an error.
func TestCompareNoFeasibleCandidate(t *testing.T) {
	cands, best, err := Compare(SCB, Machine{}, 40)
	if err == nil || best != -1 {
		t.Fatalf("Compare on a zero ratio: best %d, err %v", best, err)
	}
	for _, c := range cands {
		if c.Feasible || c.Grid != nil {
			t.Errorf("%v listed as feasible", c.Shape)
		}
	}
}
