// Package matrix provides the dense linear-algebra substrate for the
// partition-shape study: square float64 matrices and several matrix-matrix
// multiplication kernels built around the kij loop order that the paper's
// communication analysis assumes (Section II, Fig 1).
//
// The kernels are deliberately self-contained (no BLAS): the paper's local
// multiplications used ATLAS, which we substitute with our own serial,
// blocked and parallel kij kernels and with MulRuns, the kernel every
// executor computes its own cells with. MulRuns runs on AVX vector lanes
// on amd64 CPUs that have them (one multiply and one add per lane, never
// a fused multiply-add) and in portable Go elsewhere, bit-identical to the
// serial kij kernel either way. What matters for the study is the
// *communication* structure, which is independent of the local kernel.
package matrix

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
)

// Dense is a square row-major matrix of float64.
type Dense struct {
	n    int
	data []float64
}

// New returns an n×n zero matrix.
func New(n int) *Dense {
	if n < 0 {
		panic("matrix: negative dimension")
	}
	return &Dense{n: n, data: make([]float64, n*n)}
}

// FromRows builds a matrix from row slices. All rows must have equal length
// n and there must be n of them.
func FromRows(rows [][]float64) (*Dense, error) {
	n := len(rows)
	m := New(n)
	for i, r := range rows {
		if len(r) != n {
			return nil, fmt.Errorf("matrix: row %d has length %d, want %d", i, len(r), n)
		}
		copy(m.data[i*n:(i+1)*n], r)
	}
	return m, nil
}

// N returns the dimension.
func (m *Dense) N() int { return m.n }

// At returns the element at (i, j).
func (m *Dense) At(i, j int) float64 { return m.data[i*m.n+j] }

// Set assigns the element at (i, j).
func (m *Dense) Set(i, j int, v float64) { m.data[i*m.n+j] = v }

// Row returns the i-th row as a live slice (mutations are visible).
func (m *Dense) Row(i int) []float64 { return m.data[i*m.n : (i+1)*m.n] }

// Data returns the backing slice (row-major, length n²).
func (m *Dense) Data() []float64 { return m.data }

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	c := New(m.n)
	copy(c.data, m.data)
	return c
}

// Zero resets every element to 0.
func (m *Dense) Zero() {
	for i := range m.data {
		m.data[i] = 0
	}
}

// FillRandom fills the matrix with uniform values in [-1, 1) from rng.
func (m *Dense) FillRandom(rng *rand.Rand) {
	for i := range m.data {
		m.data[i] = 2*rng.Float64() - 1
	}
}

// FillSequential fills with a deterministic pattern useful in tests:
// element (i,j) = i*n + j, scaled to keep magnitudes small.
func (m *Dense) FillSequential() {
	scale := 1.0 / float64(m.n*m.n)
	for i := 0; i < m.n; i++ {
		for j := 0; j < m.n; j++ {
			m.Set(i, j, float64(i*m.n+j)*scale)
		}
	}
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Dense {
	m := New(n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Transpose returns a newly allocated transpose of m.
func (m *Dense) Transpose() *Dense {
	t := New(m.n)
	for i := 0; i < m.n; i++ {
		for j := 0; j < m.n; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// Equal reports exact element-wise equality.
func (m *Dense) Equal(o *Dense) bool {
	if m.n != o.n {
		return false
	}
	for i, v := range m.data {
		if v != o.data[i] {
			return false
		}
	}
	return true
}

// MaxDiff returns the maximum absolute element-wise difference, or an error
// when the dimensions differ.
func (m *Dense) MaxDiff(o *Dense) (float64, error) {
	if m.n != o.n {
		return 0, errors.New("matrix: dimension mismatch")
	}
	var d float64
	for i, v := range m.data {
		d = math.Max(d, math.Abs(v-o.data[i]))
	}
	return d, nil
}

// ApproxEqual reports whether every element differs by at most tol.
func (m *Dense) ApproxEqual(o *Dense, tol float64) bool {
	d, err := m.MaxDiff(o)
	return err == nil && d <= tol
}

// FrobeniusNorm returns sqrt(sum of squares of elements).
func (m *Dense) FrobeniusNorm() float64 {
	var s float64
	for _, v := range m.data {
		s += v * v
	}
	return math.Sqrt(s)
}

// String renders small matrices for debugging; larger matrices are
// summarised by dimension and norm.
func (m *Dense) String() string {
	if m.n > 8 {
		return fmt.Sprintf("Dense(%d×%d, ‖·‖F=%.4g)", m.n, m.n, m.FrobeniusNorm())
	}
	var b strings.Builder
	for i := 0; i < m.n; i++ {
		for j := 0; j < m.n; j++ {
			fmt.Fprintf(&b, "%8.4f ", m.At(i, j))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func checkTriple(c, a, b *Dense) {
	if a.n != b.n || a.n != c.n {
		panic("matrix: dimension mismatch")
	}
	if c == a || c == b {
		panic("matrix: destination must not alias an operand")
	}
}

// MulKIJ computes C += A·B with the paper's kij loop order: for each pivot
// k, every element of C is updated using column k of A and row k of B
// (Fig 1). C must be zeroed first for a plain product.
func MulKIJ(c, a, b *Dense) {
	checkTriple(c, a, b)
	n := a.n
	for k := 0; k < n; k++ {
		brow := b.data[k*n : (k+1)*n]
		for i := 0; i < n; i++ {
			aik := a.data[i*n+k]
			if aik == 0 {
				continue
			}
			crow := c.data[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				crow[j] += aik * brow[j]
			}
		}
	}
}

// MulIJK computes C += A·B in the classic ijk order. Used as an
// independent oracle for the kij kernels in tests.
func MulIJK(c, a, b *Dense) {
	checkTriple(c, a, b)
	n := a.n
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for k := 0; k < n; k++ {
				s += a.data[i*n+k] * b.data[k*n+j]
			}
			c.data[i*n+j] += s
		}
	}
}

// DefaultBlock is the cache-blocking factor used by MulBlocked when the
// caller passes 0.
const DefaultBlock = 64

// MulBlocked computes C += A·B with cache blocking (kij inside blocks).
// block <= 0 selects DefaultBlock.
func MulBlocked(c, a, b *Dense, block int) {
	checkTriple(c, a, b)
	if block <= 0 {
		block = DefaultBlock
	}
	n := a.n
	for kk := 0; kk < n; kk += block {
		kmax := min(kk+block, n)
		for ii := 0; ii < n; ii += block {
			imax := min(ii+block, n)
			for jj := 0; jj < n; jj += block {
				jmax := min(jj+block, n)
				for k := kk; k < kmax; k++ {
					brow := b.data[k*n : (k+1)*n]
					for i := ii; i < imax; i++ {
						aik := a.data[i*n+k]
						if aik == 0 {
							continue
						}
						crow := c.data[i*n : (i+1)*n]
						for j := jj; j < jmax; j++ {
							crow[j] += aik * brow[j]
						}
					}
				}
			}
		}
	}
}

// MulMasked updates only the C elements whose mask entry is true. mask is
// row-major of length n². It is the kernel a processor runs when its
// assigned region is an arbitrary (possibly non-rectangular) shape, exactly
// what non-traditional partitions require: the mask's row runs through
// MulRuns, so only masked cells are visited.
func MulMasked(c, a, b *Dense, mask []bool) {
	checkTriple(c, a, b)
	if len(mask) != a.n*a.n {
		panic("matrix: mask length mismatch")
	}
	MulRuns(c, a, b, MaskRuns(mask, a.n), 0, a.n)
}
