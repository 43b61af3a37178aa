package partition

import (
	"fmt"
	"strconv"
	"strings"
)

// Ratio is the relative processing-speed ratio Pr : Rr : Sr of the three
// processors (Section IV, assumption 2). The paper normalises Sr = 1 and
// requires Pr ≥ Rr ≥ Sr; constructors here enforce that ordering.
type Ratio struct {
	Pr, Rr, Sr float64
}

// NewRatio builds a validated ratio.
func NewRatio(pr, rr, sr float64) (Ratio, error) {
	r := Ratio{Pr: pr, Rr: rr, Sr: sr}
	if err := r.Validate(); err != nil {
		return Ratio{}, err
	}
	return r, nil
}

// MustRatio is NewRatio that panics on invalid input; for tests and
// literals.
func MustRatio(pr, rr, sr float64) Ratio {
	r, err := NewRatio(pr, rr, sr)
	if err != nil {
		panic(err)
	}
	return r
}

// ParseRatio parses "Pr:Rr:Sr", e.g. "5:2:1". Sr may be omitted
// ("5:2" means 5:2:1).
func ParseRatio(s string) (Ratio, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 2 && len(parts) != 3 {
		return Ratio{}, fmt.Errorf("partition: ratio %q: want Pr:Rr[:Sr]", s)
	}
	vals := make([]float64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return Ratio{}, fmt.Errorf("partition: ratio %q: %v", s, err)
		}
		vals[i] = v
	}
	sr := 1.0
	if len(vals) == 3 {
		sr = vals[2]
	}
	return NewRatio(vals[0], vals[1], sr)
}

// Validate checks positivity and the ordering Pr ≥ Rr ≥ Sr.
func (r Ratio) Validate() error {
	if r.Pr <= 0 || r.Rr <= 0 || r.Sr <= 0 {
		return fmt.Errorf("partition: ratio %v: all speeds must be positive", r)
	}
	if r.Pr < r.Rr || r.Rr < r.Sr {
		return fmt.Errorf("partition: ratio %v: want Pr ≥ Rr ≥ Sr", r)
	}
	return nil
}

// T returns the ratio sum Pr + Rr + Sr (Eq 12).
func (r Ratio) T() float64 { return r.Pr + r.Rr + r.Sr }

// Speed returns the relative speed of processor p.
func (r Ratio) Speed(p Proc) float64 {
	switch p {
	case P:
		return r.Pr
	case R:
		return r.Rr
	case S:
		return r.Sr
	}
	panic("partition: invalid processor")
}

// Fraction returns p's share of the matrix, Speed(p)/T — the volume of
// elements assigned to p under computational load balance (Thm 9.1 proof).
func (r Ratio) Fraction(p Proc) float64 { return r.Speed(p) / r.T() }

// Counts apportions the n² matrix elements to the processors
// proportionally to speed (see apportion), so the counts are exact and
// sum to n².
func (r Ratio) Counts(n int) [NumProcs]int {
	var counts [NumProcs]int
	apportion(n*n, r.T(), []float64{R: r.Rr, S: r.Sr, P: r.Pr}, counts[:])
	return counts
}

// apportion splits area cells among the processors in proportion to
// speed[p], whose sum is t, with largest-remainder rounding: the leftover
// cells go to the largest fractional parts, ties to the faster processor
// and then to the lower Proc.
func apportion(area int, t float64, speed []float64, counts []int) {
	var fracs [MaxProcs]float64
	assigned := 0
	for p, v := range speed {
		exact := float64(area) * v / t
		counts[p] = int(exact)
		fracs[p] = exact - float64(counts[p])
		assigned += counts[p]
	}
	for ; assigned < area; assigned++ {
		best := 0
		for p := 1; p < len(speed); p++ {
			if fracs[p] > fracs[best] || (fracs[p] == fracs[best] && speed[p] > speed[best]) {
				best = p
			}
		}
		counts[best]++
		fracs[best] = -1
	}
}

// Speeds is the relative speed of each of K processors, fastest first
// (Speeds[0] ≥ Speeds[1] ≥ … > 0), the K-processor counterpart of Ratio
// for the §XI extension; the slowest is conventionally 1. On a grid of K
// processors Speeds[0] is the fastest, Proc(K−1), and Speeds[i] for i ≥ 1
// is Proc(i−1).
type Speeds []float64

// Validate checks positivity, ordering and length.
func (s Speeds) Validate() error {
	if len(s) < 2 {
		return fmt.Errorf("partition: need at least 2 processors, got %d", len(s))
	}
	if len(s) > MaxProcs {
		return fmt.Errorf("partition: at most %d processors, got %d", MaxProcs, len(s))
	}
	for i, v := range s {
		if !(v > 0) {
			return fmt.Errorf("partition: speed %d is %v, must be positive", i, v)
		}
		if i > 0 && v > s[i-1] {
			return fmt.Errorf("partition: speeds %v must be non-increasing (fastest first)", s)
		}
	}
	return nil
}

// T returns the speed sum.
func (s Speeds) T() float64 {
	var t float64
	for _, v := range s {
		t += v
	}
	return t
}

// Counts apportions the n² matrix elements to the processors in
// proportion to speed, as Ratio.Counts does. counts[p] is Proc(p)'s share,
// so the fastest's is counts[K−1].
func (s Speeds) Counts(n int) []int {
	k := len(s)
	speed := make([]float64, k)
	for p := range speed {
		speed[p] = s[(p+1)%k]
	}
	counts := make([]int, k)
	apportion(n*n, s.T(), speed, counts)
	return counts
}

func (s Speeds) String() string {
	parts := make([]string, len(s))
	for i, v := range s {
		parts[i] = fmt.Sprintf("%g", v)
	}
	return strings.Join(parts, ":")
}

// Normalized returns the ratio scaled so Sr = 1.
func (r Ratio) Normalized() Ratio {
	return Ratio{Pr: r.Pr / r.Sr, Rr: r.Rr / r.Sr, Sr: 1}
}

func (r Ratio) String() string {
	return fmt.Sprintf("%s:%s:%s", trimFloat(r.Pr), trimFloat(r.Rr), trimFloat(r.Sr))
}

// Key is the canonical quantization identity of a ratio: the one string
// under which every layer that memoizes by ratio — the serving cache /
// singleflight key in internal/serve and the atlas lattice in
// internal/atlas — agrees on whether two ratios are "the same scenario".
// Each component is rendered with strconv.FormatFloat(v, 'f', -1, 64),
// the shortest decimal that round-trips the exact float64, which is
// injective: Key(a) == Key(b) ⇔ a and b are component-wise equal as
// float64 values. The atlas compares components directly (SameScenario)
// to stay allocation-free on the lookup path; because of injectivity
// that is the same predicate, so a ratio can never atlas-hit while
// cache-missing (or vice versa) through rounding drift.
func (r Ratio) Key() string { return r.String() }

// SameScenario reports whether two ratios quantize to the same Key
// without allocating. It is the comparison the atlas Snap uses; for
// validated ratios (positive finite components, so no NaN or -0) Key
// equality and SameScenario are equivalent (see Key) and a table test
// pins that equivalence.
func (r Ratio) SameScenario(o Ratio) bool {
	return r.Pr == o.Pr && r.Rr == o.Rr && r.Sr == o.Sr
}

func trimFloat(v float64) string {
	return strconv.FormatFloat(v, 'f', -1, 64)
}

// PaperRatios are the eleven processor ratios studied in Section VII.
var PaperRatios = []Ratio{
	MustRatio(2, 1, 1),
	MustRatio(3, 1, 1),
	MustRatio(4, 1, 1),
	MustRatio(5, 1, 1),
	MustRatio(10, 1, 1),
	MustRatio(2, 2, 1),
	MustRatio(3, 2, 1),
	MustRatio(4, 2, 1),
	MustRatio(5, 2, 1),
	MustRatio(5, 3, 1),
	MustRatio(5, 4, 1),
}
