package push

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/partition"
)

// TestCandidatesArePushFixedPoints closes the paper's loop: the six
// candidate canonical shapes of Section IX are exactly the states the
// Push search is meant to terminate in, so no VoC-*decreasing* Push
// (Types 1–4) may exist on any of them, for any ratio, in any direction.
// (Plateau Pushes of Types 5–6 may shuffle ragged cells at equal VoC;
// that is allowed — the DFA's accept states are defined up to VoC.)
func TestCandidatesArePushFixedPoints(t *testing.T) {
	decreasing := []Type{TypeOne, TypeTwo, TypeThree, TypeFour}
	for _, ratio := range partition.PaperRatios {
		for _, s := range partition.AllShapes {
			if s == partition.RectangleCorner && partition.SquareCornerFeasible(ratio) {
				// The Rectangle-Corner is the Type 1 optimum only when
				// two squares cannot fit (Section IX-B.1); where they
				// can, Push correctly improves it toward the
				// Square-Corner, so it is not a fixed point there.
				continue
			}
			g, err := partition.Build(s, 90, ratio)
			if err != nil {
				continue
			}
			for _, p := range [2]partition.Proc{partition.R, partition.S} {
				for _, d := range geom.AllDirections {
					for _, ty := range decreasing {
						c := g.Clone()
						if res, ok := Attempt(c, p, d, ty, nil); ok {
							t.Errorf("%v (ratio %v): %v %v %v improved a candidate by %d — not a fixed point",
								s, ratio, p, d, ty, res.DeltaVoC)
						}
					}
				}
			}
		}
	}
}

// TestCornerSquaresArePushStable is the K-processor counterpart: like the
// three-processor candidates, the corner squares of four processors admit
// no VoC-decreasing Push.
func TestCornerSquaresArePushStable(t *testing.T) {
	g, err := partition.BuildCornerSquares(90, partition.Speeds{20, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	for p := range g.Fastest() {
		for _, d := range geom.AllDirections {
			for _, ty := range []Type{TypeOne, TypeTwo, TypeThree, TypeFour} {
				c := g.Clone()
				if res, ok := Attempt(c, p, d, ty, nil); ok {
					t.Errorf("push %v %v %v improved corner squares by %d", p, d, ty, res.DeltaVoC)
				}
			}
		}
	}
}

// TestRandomStartsNeverBeatBestCandidate: the search never finds a state
// with lower VoC than the best canonical candidate for the ratio — the
// candidates really are the floor, at test scale.
func TestRandomStartsNeverBeatBestCandidate(t *testing.T) {
	const n = 60
	for _, ratio := range []partition.Ratio{
		partition.MustRatio(2, 1, 1),
		partition.MustRatio(5, 2, 1),
		partition.MustRatio(10, 1, 1),
	} {
		best := int64(1 << 62)
		for _, s := range partition.AllShapes {
			if g, err := partition.Build(s, n, ratio); err == nil && g.VoC() < best {
				best = g.VoC()
			}
		}
		for seed := int64(0); seed < 8; seed++ {
			res, err := Run(Config{N: n, Ratio: ratio, Seed: seed, Beautify: true})
			if err != nil {
				t.Fatal(err)
			}
			if res.FinalVoC < best {
				t.Errorf("ratio %v seed %d: search found VoC %d below the candidate floor %d",
					ratio, seed, res.FinalVoC, best)
			}
		}
	}
}
