package partition

import (
	"fmt"
	"math"
)

// This file holds the K-processor candidate shapes of the §XI extension
// and their closed-form volumes: the traditional strips, the corner
// squares that generalise the Square-Corner, and the band that
// generalises the Block-Rectangle.

// BuildStrips constructs the traditional K-processor partition: vertical
// strips with widths proportional to speed. Every row hosts all K
// processors, so the normalised VoC is (K−1)·N² — the baseline the corner
// shapes are measured against.
func BuildStrips(n int, s Speeds) (*Grid, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	g := NewGridK(n, len(s))
	counts := s.Counts(n)
	// Column-major fill from the right, slowest processor first, so the
	// fastest keeps the leftmost strip.
	col, row := n-1, 0
	for p := len(s) - 2; p >= 0; p-- {
		for c := 0; c < counts[p]; c++ {
			g.Set(row, col, Proc(p))
			row++
			if row == n {
				row = 0
				col--
			}
		}
	}
	return g, nil
}

// BuildCornerSquares generalises the Square-Corner to K processors: each
// slower processor receives a near-square in its own matrix corner (up to
// four slower processors), the fastest keeps the remainder. Feasible when
// the squares fit without meeting: opposite corners may not overlap
// diagonally and adjacent corners may not overlap along their shared
// side.
func BuildCornerSquares(n int, s Speeds) (*Grid, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	slow := len(s) - 1
	if slow > 4 {
		return nil, fmt.Errorf("partition: corner-squares supports at most 4 slower processors, got %d", slow)
	}
	counts := s.Counts(n)
	var sides [4]int // zero for corners no processor takes
	for p := range slow {
		sides[p] = int(math.Ceil(math.Sqrt(float64(counts[p]))))
		if sides[p] > n {
			return nil, fmt.Errorf("partition: square of %v side %d exceeds N=%d", Proc(p), sides[p], n)
		}
	}
	// Corner order: bottom-left, top-right, top-left, bottom-right —
	// pairs of adjacent processors share at most one matrix side.
	type corner struct{ anchorRow, anchorCol int } // 0 = top/left, 1 = bottom/right
	corners := [4]corner{{1, 0}, {0, 1}, {0, 0}, {1, 1}}
	// Squares on a shared side must not overlap: bottom-left and top-left
	// share the left side, bottom-left and bottom-right the bottom,
	// top-right and top-left the top, top-right and bottom-right the
	// right. Squares in diagonal corners must not cross in both
	// dimensions.
	for _, c := range [][2]int{{0, 2}, {0, 3}, {1, 2}, {1, 3}, {0, 1}, {2, 3}} {
		if sides[c[0]]+sides[c[1]] > n {
			return nil, fmt.Errorf("partition: corner squares of %v and %v (sides %d+%d) exceed N=%d",
				Proc(c[0]), Proc(c[1]), sides[c[0]], sides[c[1]], n)
		}
	}

	g := NewGridK(n, len(s))
	for p := range slow {
		co := corners[p]
		side := sides[p]
		remaining := counts[p]
		for r := 0; r < side && remaining > 0; r++ {
			for c := 0; c < side && remaining > 0; c++ {
				i, j := r, c
				if co.anchorRow == 1 {
					i = n - 1 - r
				}
				if co.anchorCol == 1 {
					j = n - 1 - c
				}
				g.Set(i, j, Proc(p))
				remaining--
			}
		}
	}
	return g, nil
}

// NormalizedStripsVoC is the closed-form strips baseline: every row hosts
// all K processors and columns are pure, so VoC/N² = K−1.
func NormalizedStripsVoC(k int) float64 { return float64(k - 1) }

// NormalizedCornerSquaresVoC is the closed-form corner-squares volume:
// each square of fraction f_p contributes 2√f_p (its rows and columns).
func NormalizedCornerSquaresVoC(s Speeds) float64 {
	t := s.T()
	var v float64
	for _, speed := range s[1:] {
		v += 2 * math.Sqrt(speed/t)
	}
	return v
}

// BuildBand generalises the Block-Rectangle to K processors: the slower
// processors share a full-width bottom band, side by side, each a block
// of the band's height; the fastest keeps the rest. This is the strongest
// rectangular baseline for moderate heterogeneity (the K-processor
// analogue of Section IX's Type 4).
func BuildBand(n int, s Speeds) (*Grid, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	g := NewGridK(n, len(s))
	counts := s.Counts(n)
	band := 0
	for _, c := range counts[:len(s)-1] {
		band += c
	}
	h := (band + n - 1) / n
	if h > n {
		return nil, fmt.Errorf("partition: band height %d exceeds N=%d", h, n)
	}
	// Fill the band column-major from the left, slow processors in
	// decreasing speed; any slack stays with the fastest at the band's
	// right end.
	col, row := 0, n-1
	for p := range g.Fastest() {
		for c := 0; c < counts[p]; c++ {
			g.Set(row, col, p)
			row--
			if row < n-h {
				row = n - 1
				col++
			}
		}
	}
	return g, nil
}

// NormalizedBandVoC is the closed-form band baseline: every band row
// crosses all K−1 side-by-side blocks (cost K−2 per row over height
// Σf_p) and every column hosts two processors (cost 1). For K=3 this is
// the Block-Rectangle's 1 + Σf.
func NormalizedBandVoC(s Speeds) float64 {
	t := s.T()
	var slow float64
	for _, speed := range s[1:] {
		slow += speed / t
	}
	return 1 + float64(len(s)-2)*slow
}
