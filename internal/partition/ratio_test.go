package partition

import (
	"math"
	"testing"
	"testing/quick"
)

func TestParseRatio(t *testing.T) {
	cases := []struct {
		in      string
		want    Ratio
		wantErr bool
	}{
		{"5:2:1", Ratio{5, 2, 1}, false},
		{"5:2", Ratio{5, 2, 1}, false},
		{"10 : 1 : 1", Ratio{10, 1, 1}, false},
		{"2.5:1.5:1", Ratio{2.5, 1.5, 1}, false},
		{"1:2:3", Ratio{}, true}, // violates Pr ≥ Rr ≥ Sr
		{"5", Ratio{}, true},
		{"a:b:c", Ratio{}, true},
		{"0:0:0", Ratio{}, true},
		{"-1:1:1", Ratio{}, true},
	}
	for _, c := range cases {
		got, err := ParseRatio(c.in)
		if c.wantErr {
			if err == nil {
				t.Errorf("ParseRatio(%q): expected error, got %v", c.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseRatio(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseRatio(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestRatioT(t *testing.T) {
	r := MustRatio(5, 2, 1)
	if r.T() != 8 {
		t.Errorf("T = %v, want 8", r.T())
	}
}

func TestRatioSpeedAndFraction(t *testing.T) {
	r := MustRatio(5, 2, 1)
	if r.Speed(P) != 5 || r.Speed(R) != 2 || r.Speed(S) != 1 {
		t.Error("Speed wrong")
	}
	if r.Fraction(P) != 5.0/8 {
		t.Errorf("Fraction(P) = %v", r.Fraction(P))
	}
}

func TestRatioSpeedInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Speed of invalid proc should panic")
		}
	}()
	MustRatio(2, 1, 1).Speed(Proc(9))
}

func TestRatioCountsExact(t *testing.T) {
	for _, r := range PaperRatios {
		for _, n := range []int{10, 33, 100, 1000} {
			counts := r.Counts(n)
			sum := counts[P] + counts[R] + counts[S]
			if sum != n*n {
				t.Errorf("ratio %v n=%d: counts sum %d != %d", r, n, sum, n*n)
			}
			// Counts are within one cell of the exact fractional share.
			for _, p := range Procs {
				exact := float64(n*n) * r.Fraction(p)
				if d := float64(counts[p]) - exact; d < -1 || d > 1 {
					t.Errorf("ratio %v n=%d proc %v: count %d vs exact %.2f", r, n, p, counts[p], exact)
				}
			}
		}
	}
}

func TestSpeedsValidate(t *testing.T) {
	for _, c := range []struct {
		s       Speeds
		wantErr bool
	}{
		{Speeds{2, 1}, false},
		{Speeds{5, 3, 2, 1}, false},
		{Speeds{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, false},
		{Speeds{1}, true},
		{Speeds{1, 2}, true},             // increasing
		{Speeds{2, 0}, true},             // non-positive
		{Speeds{2, math.NaN()}, true},    // not a number
		{make(Speeds, MaxProcs+1), true}, // too many
	} {
		if err := c.s.Validate(); (err != nil) != c.wantErr {
			t.Errorf("Validate(%v) err=%v, wantErr=%v", c.s, err, c.wantErr)
		}
	}
	if got := (Speeds{8, 4, 2, 1}).String(); got != "8:4:2:1" {
		t.Errorf("String = %q", got)
	}
}

// TestSpeedsCounts checks the K-processor apportionment: the counts sum
// to n², Proc(p)'s count (the fastest last) is within one cell of its
// exact share, and on three
// processors equal Ratio.Counts, ties included (2:2:1 splits a leftover
// cell between the equal Pr and Rr).
func TestSpeedsCounts(t *testing.T) {
	for _, s := range []Speeds{{4, 2, 1, 1}, {3, 1}, {8, 4, 2, 1, 1}, {1, 1, 1, 1, 1, 1, 1, 1, 1, 1}} {
		for _, n := range []int{10, 37, 100} {
			counts := s.Counts(n)
			sum := 0
			for p, c := range counts {
				sum += c
				exact := float64(n*n) * s[(p+1)%len(s)] / s.T()
				if d := float64(c) - exact; d < -1 || d > 1 {
					t.Errorf("speeds %v n=%d: Proc(%d) gets %d of exact %.2f", s, n, p, c, exact)
				}
			}
			if sum != n*n {
				t.Errorf("speeds %v n=%d: counts %v sum to %d", s, n, counts, sum)
			}
		}
	}
	for _, r := range PaperRatios {
		for _, n := range []int{7, 10, 33, 101} {
			want := r.Counts(n)
			got := Speeds{r.Pr, r.Rr, r.Sr}.Counts(n)
			for _, p := range Procs {
				if got[p] != want[p] {
					t.Errorf("ratio %v n=%d: Speeds counts %v, Ratio counts %v", r, n, got, want)
				}
			}
		}
	}
}

func TestQuickCountsAlwaysSum(t *testing.T) {
	f := func(a, b, c uint8, nn uint8) bool {
		pr := float64(a%20) + 1
		rr := float64(b%20) + 1
		sr := float64(c%20) + 1
		if rr > pr {
			pr, rr = rr, pr
		}
		if sr > rr {
			rr, sr = sr, rr
		}
		if rr > pr {
			pr, rr = rr, pr
		}
		r := MustRatio(pr, rr, sr)
		n := int(nn%50) + 2
		counts := r.Counts(n)
		return counts[P]+counts[R]+counts[S] == n*n &&
			counts[P] >= 0 && counts[R] >= 0 && counts[S] >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestRatioNormalized(t *testing.T) {
	r := MustRatio(10, 4, 2)
	n := r.Normalized()
	if n.Pr != 5 || n.Rr != 2 || n.Sr != 1 {
		t.Errorf("Normalized = %v", n)
	}
}

func TestRatioString(t *testing.T) {
	if got := MustRatio(5, 2, 1).String(); got != "5:2:1" {
		t.Errorf("String = %q", got)
	}
	if got := MustRatio(2.5, 1.5, 1).String(); got != "2.5:1.5:1" {
		t.Errorf("String = %q", got)
	}
}

func TestPaperRatiosValid(t *testing.T) {
	if len(PaperRatios) != 11 {
		t.Fatalf("paper studies 11 ratios, have %d", len(PaperRatios))
	}
	for _, r := range PaperRatios {
		if err := r.Validate(); err != nil {
			t.Errorf("paper ratio %v invalid: %v", r, err)
		}
		if r.Sr != 1 {
			t.Errorf("paper ratio %v should be normalised to Sr=1", r)
		}
	}
}

func TestMustRatioPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustRatio should panic on invalid ratio")
		}
	}()
	MustRatio(1, 2, 3)
}

func TestRatioKeyCanonical(t *testing.T) {
	// Every spelling of the same float64 components must collapse to one
	// key — this is the identity both the serve cache and the atlas
	// lattice quantize on, so drift here would split the tiers.
	tests := []struct {
		inputs []string // parse-equivalent spellings
		key    string   // the single canonical key
	}{
		{[]string{"5:2:1", "5.0:2.00:1", "  5 : 2 : 1 ", "5:2"}, "5:2:1"},
		{[]string{"2.5:1.5:1", "2.50:1.50:1.0", "2.5:1.5"}, "2.5:1.5:1"},
		{[]string{"10:1:1", "10.0:1.0:1.0"}, "10:1:1"},
		{[]string{"3.25:2.75:1", "3.250:2.750:1"}, "3.25:2.75:1"},
		// 0.1 is not exactly representable; the shortest round-trip of
		// the float64 nearest 1.1 is still "1.1".
		{[]string{"1.1:1.1:1.1", "1.10:1.10:1.10"}, "1.1:1.1:1.1"},
	}
	for _, tc := range tests {
		for _, in := range tc.inputs {
			r, err := ParseRatio(in)
			if err != nil {
				t.Fatalf("ParseRatio(%q): %v", in, err)
			}
			if got := r.Key(); got != tc.key {
				t.Errorf("ParseRatio(%q).Key() = %q, want %q", in, got, tc.key)
			}
			// The key must round-trip: parsing it yields the exact same
			// scenario, so a ratio that reached one layer as a key
			// string is bit-identical everywhere.
			back, err := ParseRatio(r.Key())
			if err != nil {
				t.Fatalf("ParseRatio(Key %q): %v", r.Key(), err)
			}
			if !back.SameScenario(r) {
				t.Errorf("Key %q did not round-trip: %v vs %v", r.Key(), back, r)
			}
		}
	}
}

func TestRatioKeyEquivalentToSameScenario(t *testing.T) {
	// Key equality and the allocation-free SameScenario comparison must
	// be the same predicate on validated ratios: the atlas snaps with
	// SameScenario while the serve cache keys on Key, and any gap would
	// let a ratio atlas-hit under one cache key and miss under another.
	ulp := func(v float64) float64 { return math.Nextafter(v, math.Inf(1)) }
	ratios := []Ratio{
		MustRatio(5, 2, 1),
		MustRatio(5, 2, 1),
		MustRatio(2.5, 1.5, 1),
		MustRatio(ulp(2.5), 1.5, 1), // one ULP off: a different scenario
		MustRatio(2.5, ulp(1.5), 1),
		MustRatio(0.1+0.2, 0.3, 0.3), // 0.30000000000000004 ≠ 0.3
		MustRatio(0.3, 0.3, 0.3),
		MustRatio(1.1, 1.1, 1.1),
	}
	for i, a := range ratios {
		for j, b := range ratios {
			keyEq := a.Key() == b.Key()
			scenEq := a.SameScenario(b)
			if keyEq != scenEq {
				t.Errorf("ratios[%d]=%v ratios[%d]=%v: Key equality %v but SameScenario %v",
					i, a, j, b, keyEq, scenEq)
			}
		}
	}
}
