package partition

import "testing"

// checkCounts fails unless g holds exactly the apportioned cells of s.
func checkCounts(t *testing.T, g *Grid, s Speeds, n int) {
	t.Helper()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	for p, want := range s.Counts(n) {
		if g.Count(Proc(p)) != want {
			t.Errorf("Count(%d) = %d, want %d", p, g.Count(Proc(p)), want)
		}
	}
}

func TestBuildStrips(t *testing.T) {
	s := Speeds{4, 2, 1, 1}
	const n = 80
	g, err := BuildStrips(n, s)
	if err != nil {
		t.Fatal(err)
	}
	checkCounts(t, g, s, n)
	// Strips: VoC ≈ (K−1)·N² (every row hosts all K processors, up to
	// the ragged boundary columns).
	want := NormalizedStripsVoC(len(s)) * float64(n*n)
	if got := float64(g.VoC()); got < want*0.95 || got > want*1.1 {
		t.Errorf("strips VoC %v, closed form %v", got, want)
	}
	if _, err := BuildStrips(10, Speeds{1, 2}); err == nil {
		t.Error("invalid speeds should error")
	}
}

func TestBuildCornerSquares(t *testing.T) {
	s := Speeds{20, 1, 1, 1, 1} // four slow corner squares
	const n = 120
	g, err := BuildCornerSquares(n, s)
	if err != nil {
		t.Fatal(err)
	}
	checkCounts(t, g, s, n)
	want := NormalizedCornerSquaresVoC(s) * float64(n*n)
	if got := float64(g.VoC()); got < want*0.9 || got > want*1.15 {
		t.Errorf("corner squares VoC %v, closed form %v", got, want)
	}
}

func TestBuildCornerSquaresErrors(t *testing.T) {
	if _, err := BuildCornerSquares(40, Speeds{2, 2, 2, 1, 1, 1}); err == nil {
		t.Error("5 slow processors must be rejected")
	}
	// Two equal-share squares on the diagonal (each side ≈ 0.58·N)
	// cannot fit together.
	if _, err := BuildCornerSquares(20, Speeds{1, 1, 1}); err == nil {
		t.Error("oversized squares must be rejected")
	}
	if _, err := BuildCornerSquares(10, Speeds{1, 2}); err == nil {
		t.Error("invalid speeds must be rejected")
	}
}

func TestKProcCrossover(t *testing.T) {
	// The three-processor crossover generalises: for K=4 with speeds
	// x:1:1:1, corner squares beat the band baseline once x is large
	// enough (6/√T = 1+3/T ⇒ √T = 3+√6, x ≈ 26.7) and lose below it.
	lowX, highX := 3.0, 40.0
	low := Speeds{lowX, 1, 1, 1}
	high := Speeds{highX, 1, 1, 1}
	if NormalizedCornerSquaresVoC(low) < NormalizedBandVoC(low) {
		t.Errorf("at x=%v corner squares should lose to the band: %v vs %v",
			lowX, NormalizedCornerSquaresVoC(low), NormalizedBandVoC(low))
	}
	if NormalizedCornerSquaresVoC(high) > NormalizedBandVoC(high) {
		t.Errorf("at x=%v corner squares should win: %v vs %v",
			highX, NormalizedCornerSquaresVoC(high), NormalizedBandVoC(high))
	}
	// The strips baseline is dominated by the band everywhere.
	if NormalizedBandVoC(low) >= NormalizedStripsVoC(4) {
		t.Error("band should beat strips")
	}
	// Concrete grids agree with the closed forms' ordering at high x.
	const n = 100
	cs, err := BuildCornerSquares(n, high)
	if err != nil {
		t.Fatal(err)
	}
	band, err := BuildBand(n, high)
	if err != nil {
		t.Fatal(err)
	}
	if cs.VoC() >= band.VoC() {
		t.Errorf("at x=%v grids disagree: corners %d vs band %d", highX, cs.VoC(), band.VoC())
	}
	st, err := BuildStrips(n, high)
	if err != nil {
		t.Fatal(err)
	}
	if band.VoC() >= st.VoC() {
		t.Errorf("band %d should beat strips %d", band.VoC(), st.VoC())
	}
}

func TestBuildBandCounts(t *testing.T) {
	s := Speeds{5, 2, 1, 1}
	const n = 90
	g, err := BuildBand(n, s)
	if err != nil {
		t.Fatal(err)
	}
	checkCounts(t, g, s, n)
	want := NormalizedBandVoC(s) * float64(n*n)
	if got := float64(g.VoC()); got < want*0.9 || got > want*1.2 {
		t.Errorf("band VoC %v, closed form %v", got, want)
	}
	if _, err := BuildBand(10, Speeds{1, 2}); err == nil {
		t.Error("invalid speeds should error")
	}
}
