package shape

import (
	"errors"
	"fmt"

	"repro/internal/model"
	"repro/internal/partition"
	"repro/internal/push"
)

// ErrCannotTranslate reports that a Theorem 8.1 translation would move the
// combined R∪S shape out of the matrix or onto cells of neither P nor the
// moving shape.
var ErrCannotTranslate = errors.New("shape: translation target not free")

// TranslateCombined implements Theorem 8.1: move the combined R∪S shape by
// (dr, dc) without changing the two shapes' relative positions. The
// vacated cells go to P. The translation is legal only when every target
// cell is inside the matrix and owned by P or by the moving shape itself;
// the Volume of Communication is provably unchanged, which the
// implementation re-checks and reports as an internal error if violated.
func TranslateCombined(g *partition.Grid, dr, dc int) error {
	n := g.N()
	type cell struct {
		i, j int
		p    partition.Proc
	}
	var moving []cell
	movingSet := make(map[int]bool)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			p := g.At(i, j)
			if p == partition.R || p == partition.S {
				moving = append(moving, cell{i, j, p})
				movingSet[i*n+j] = true
			}
		}
	}
	if len(moving) == 0 {
		return nil
	}
	// Legality: each target in bounds and free (P or part of the moving set).
	for _, c := range moving {
		ti, tj := c.i+dr, c.j+dc
		if ti < 0 || ti >= n || tj < 0 || tj >= n {
			return fmt.Errorf("shape: target (%d,%d) outside matrix: %w", ti, tj, ErrCannotTranslate)
		}
		if !movingSet[ti*n+tj] && g.At(ti, tj) != partition.P {
			return fmt.Errorf("shape: target (%d,%d) not free: %w", ti, tj, ErrCannotTranslate)
		}
	}
	before := g.VoC()
	// Clear then re-place (two passes so overlap between source and
	// target is handled).
	for _, c := range moving {
		g.Set(c.i, c.j, partition.P)
	}
	for _, c := range moving {
		g.Set(c.i+dr, c.j+dc, c.p)
	}
	if g.VoC() != before {
		// Theorem 8.1 guarantees equality; reaching here indicates an
		// implementation bug, so fail loudly rather than return a wrong
		// partition.
		panic(fmt.Sprintf("shape: Theorem 8.1 violated: VoC %d -> %d", before, g.VoC()))
	}
	return nil
}

// ReduceResult describes the outcome of reducing a partition toward
// Archetype A.
type ReduceResult struct {
	// Grid is the reduced partition (a fresh grid; the input is never
	// mutated).
	Grid *partition.Grid
	// From and To are the archetypes before and after.
	From, To Archetype
	// VoCBefore and VoCAfter bracket the change; VoCAfter ≤ VoCBefore.
	VoCBefore, VoCAfter int64
	// PushSteps counts the Push operations the cleanup phase applied.
	PushSteps int
	// Rebuilt is true when the reduction used the Section IX candidate
	// construction (counts-preserving) rather than Push steps alone.
	Rebuilt bool
}

// ReduceToA transforms any partition into an Archetype A partition with
// the same per-processor element counts and a Volume of Communication no
// greater than the input's — the computational content of Theorems
// 8.2–8.4. The strategy mirrors the paper:
//
//  1. Exhaust remaining Push operations in all four directions (this is
//     exactly how Archetype C is dissolved, Theorem 8.3, and it is the
//     program's "beautify" function);
//  2. If the result is still not Archetype A, construct the six candidate
//     shapes of Section IX with the same element counts and adopt the
//     cheapest whose VoC does not exceed the current one (Theorems 8.2
//     and 8.4 guarantee one exists: B unfolds into side-by-side
//     rectangles and D is B after a Theorem 8.1 translation).
func ReduceToA(g *partition.Grid) (*ReduceResult, error) {
	res := &ReduceResult{
		From:      Classify(g),
		VoCBefore: g.VoC(),
	}
	work := g.Clone()

	// Phase 1: beautify — exhaust all remaining pushes in every
	// direction, with the runner's plateau-cycle protection.
	steps, _ := push.Condense(work, push.FullPlan(work.K()), nil, 0)
	res.PushSteps = steps

	if Classify(work) != ArchetypeA {
		// Phase 2: candidate construction with identical counts.
		if best, ok := cheapestCandidate(work); ok && best.VoC() <= work.VoC() {
			work = best
			res.Rebuilt = true
		}
	}

	res.Grid = work
	res.To = Classify(work)
	res.VoCAfter = work.VoC()
	if res.VoCAfter > res.VoCBefore {
		return nil, fmt.Errorf("shape: reduction raised VoC %d -> %d", res.VoCBefore, res.VoCAfter)
	}
	return res, nil
}

// cheapestCandidate returns the feasible Section IX candidate of
// model.Compare with the same element counts as g and the minimum VoC.
// The ranking is by VoC alone, so the algorithm Compare prices under
// does not matter.
func cheapestCandidate(g *partition.Grid) (*partition.Grid, bool) {
	ratio, err := ratioFromCounts(g)
	if err != nil {
		return nil, false
	}
	cands, _, err := model.Compare(model.SCB, model.DefaultMachine(ratio), g.N())
	if err != nil {
		return nil, false
	}
	var best *partition.Grid
	for _, c := range cands {
		if !c.Feasible || !countsMatch(c.Grid, g) {
			continue
		}
		if best == nil || c.VoC < best.VoC() {
			best = c.Grid
		}
	}
	return best, best != nil
}

// ratioFromCounts recovers a Ratio whose Counts(n) reproduce g's element
// counts exactly (speeds proportional to counts).
func ratioFromCounts(g *partition.Grid) (partition.Ratio, error) {
	cp := float64(g.Count(partition.P))
	cr := float64(g.Count(partition.R))
	cs := float64(g.Count(partition.S))
	if cs <= 0 || cr <= 0 || cp <= 0 {
		return partition.Ratio{}, errors.New("shape: degenerate counts")
	}
	return partition.NewRatio(cp/cs, cr/cs, 1)
}

func countsMatch(a, b *partition.Grid) bool {
	for _, p := range partition.Procs {
		if a.Count(p) != b.Count(p) {
			return false
		}
	}
	return true
}
