package partition

import "math/rand"

// NewRandom builds the random start state q₀ of the DFA exactly as the
// paper describes (Section VI-A.2): every element begins assigned to the
// fastest processor P; then each slower processor X in turn claims its
// quota by drawing random (row, column) pairs, claiming the element only if
// it still belongs to P.
//
// The quota for each processor comes from ratio.Counts(n), so the element
// counts match the processing-speed ratio exactly.
func NewRandom(n int, ratio Ratio, rng *rand.Rand) *Grid {
	g := NewGrid(n)
	RandomizeInto(g, ratio, rng)
	return g
}

// RandomizeInto resets the three-processor grid g to the all-P state and
// redraws the paper's uniform random start in place — the allocation-free
// form of NewRandom that lets the census reuse pooled grids instead of
// allocating N² cells per run. It consumes rng identically to NewRandom,
// so seeded runs are reproducible whichever entry point built the grid.
func RandomizeInto(g *Grid, ratio Ratio, rng *rand.Rand) {
	g.mustBeThree("RandomizeInto")
	g.Reset()
	counts := ratio.Counts(g.N())
	drawUniform(g, counts[:], rng)
}

// NewRandomK builds the random start state of a search over the K
// processors of s, as NewRandom does for three: every cell starts on the
// fastest, then each slower processor claims its quota at uniform random
// positions still owned by the fastest.
func NewRandomK(n int, s Speeds, rng *rand.Rand) (*Grid, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	g := NewGridK(n, len(s))
	drawUniform(g, s.Counts(n), rng)
	return g, nil
}

// drawUniform hands each slower processor x of the all-fastest grid g, in
// decreasing speed, counts[x] cells drawn as uniform random (row, column)
// pairs, claiming a cell only if it still belongs to the fastest.
func drawUniform(g *Grid, counts []int, rng *rand.Rand) {
	n, f := g.N(), g.Fastest()
	for x := range f {
		for remaining := counts[x]; remaining > 0; {
			i := rng.Intn(n)
			j := rng.Intn(n)
			if g.At(i, j) == f {
				g.Set(i, j, x)
				remaining--
			}
		}
	}
}

// NewRandomClustered builds a random start state whose R and S cells are
// drawn from random rectangular patches rather than uniformly — a harder
// adversarial family for the Push search used by the census harness to
// widen coverage of start states beyond the paper's uniform sampling.
func NewRandomClustered(n int, ratio Ratio, rng *rand.Rand) *Grid {
	g := NewGrid(n)
	RandomizeClusteredInto(g, ratio, rng)
	return g
}

// RandomizeClusteredInto is the in-place, allocation-free form of
// NewRandomClustered, mirroring RandomizeInto.
func RandomizeClusteredInto(g *Grid, ratio Ratio, rng *rand.Rand) {
	g.mustBeThree("RandomizeClusteredInto")
	g.Reset()
	n := g.N()
	counts := ratio.Counts(n)
	for _, x := range [2]Proc{R, S} {
		remaining := counts[x]
		for remaining > 0 {
			// Pick a random patch and claim P-cells inside it.
			h := 1 + rng.Intn(n/2+1)
			w := 1 + rng.Intn(n/2+1)
			top := rng.Intn(n - h + 1)
			left := rng.Intn(n - w + 1)
			for i := top; i < top+h && remaining > 0; i++ {
				for j := left; j < left+w && remaining > 0; j++ {
					if g.At(i, j) == P {
						g.Set(i, j, x)
						remaining--
					}
				}
			}
		}
	}
}
