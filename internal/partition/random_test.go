package partition

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/geom"
)

func TestNewRandomCountsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, ratio := range PaperRatios {
		g := NewRandom(60, ratio, rng)
		counts := ratio.Counts(60)
		for _, p := range Procs {
			if g.Count(p) != counts[p] {
				t.Errorf("ratio %v: Count(%v) = %d, want %d", ratio, p, g.Count(p), counts[p])
			}
		}
		if err := g.Validate(); err != nil {
			t.Errorf("ratio %v: %v", ratio, err)
		}
	}
	for _, speeds := range []Speeds{{3, 1}, {4, 2, 1, 1}, {8, 4, 2, 1, 1}} {
		g, err := NewRandomK(40, speeds, rng)
		if err != nil {
			t.Fatal(err)
		}
		if g.K() != len(speeds) {
			t.Errorf("speeds %v: K = %d", speeds, g.K())
		}
		for p, want := range speeds.Counts(40) {
			if g.Count(Proc(p)) != want {
				t.Errorf("speeds %v: Count(%d) = %d, want %d", speeds, p, g.Count(Proc(p)), want)
			}
		}
		if err := g.Validate(); err != nil {
			t.Errorf("speeds %v: %v", speeds, err)
		}
	}
	if _, err := NewRandomK(10, Speeds{1, 2}, rng); err == nil {
		t.Error("increasing speeds should error")
	}
}

func TestNewRandomDeterministicPerSeed(t *testing.T) {
	ratio := MustRatio(3, 2, 1)
	a := NewRandom(40, ratio, rand.New(rand.NewSource(99)))
	b := NewRandom(40, ratio, rand.New(rand.NewSource(99)))
	if !a.Equal(b) {
		t.Error("same seed must give same start state")
	}
	c := NewRandom(40, ratio, rand.New(rand.NewSource(100)))
	if a.Equal(c) {
		t.Error("different seeds should (overwhelmingly) differ")
	}
}

func TestNewRandomClustered(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ratio := MustRatio(4, 2, 1)
	g := NewRandomClustered(64, ratio, rng)
	counts := ratio.Counts(64)
	for _, p := range Procs {
		if g.Count(p) != counts[p] {
			t.Errorf("Count(%v) = %d, want %d", p, g.Count(p), counts[p])
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRenderASCII(t *testing.T) {
	g := NewGrid(100)
	// Bottom-left 40×40 block of R, top-right 20×20 of S.
	for i := 60; i < 100; i++ {
		for j := 0; j < 40; j++ {
			g.Set(i, j, R)
		}
	}
	for i := 0; i < 20; i++ {
		for j := 80; j < 100; j++ {
			g.Set(i, j, S)
		}
	}
	out := g.RenderASCII(10)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 10 {
		t.Fatalf("want 10 lines, got %d", len(lines))
	}
	if lines[9][0] != 'R' {
		t.Errorf("bottom-left should render R, got %c", lines[9][0])
	}
	if lines[0][9] != 'S' {
		t.Errorf("top-right should render S, got %c", lines[0][9])
	}
	if lines[5][5] != '.' {
		t.Errorf("middle should render P, got %c", lines[5][5])
	}

	// A box split evenly between R and S renders R; one split evenly
	// between S and P renders S.
	tie := NewGrid(2)
	tie.Set(0, 0, R)
	tie.Set(0, 1, S)
	tie.Set(1, 0, R)
	tie.Set(1, 1, S)
	if got := tie.RenderASCII(1); got != "R\n" {
		t.Errorf("R/S tie renders %q, want R", got)
	}
	tie.FillRect(geom.NewRect(0, 0, 2, 1), P)
	if got := tie.RenderASCII(1); got != "S\n" {
		t.Errorf("S/P tie renders %q, want S", got)
	}
}

func TestRenderASCIIFullResolutionFallback(t *testing.T) {
	g := NewGrid(4)
	g.Set(0, 0, S)
	out := g.RenderASCII(0) // falls back to n boxes
	if !strings.HasPrefix(out, "S...") {
		t.Errorf("unexpected render:\n%s", out)
	}
}

func TestWritePGM(t *testing.T) {
	g := NewGrid(8)
	g.Set(0, 0, S)
	g.Set(7, 7, R)
	var buf bytes.Buffer
	if err := g.WritePGM(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if !bytes.HasPrefix(data, []byte("P5\n8 8\n255\n")) {
		t.Fatalf("bad header: %q", data[:12])
	}
	pix := data[len("P5\n8 8\n255\n"):]
	if len(pix) != 64 {
		t.Fatalf("pixel count %d", len(pix))
	}
	if pix[0] != 0 {
		t.Errorf("S pixel should be black, got %d", pix[0])
	}
	if pix[63] != 160 {
		t.Errorf("R pixel should be gray, got %d", pix[63])
	}
	if pix[1] != 255 {
		t.Errorf("P pixel should be white, got %d", pix[1])
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := NewRandom(30, MustRatio(5, 2, 1), rng)
	buf := g.Encode()
	back, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(g) {
		t.Error("decode(encode) differs")
	}
	if err := back.Validate(); err != nil {
		t.Error(err)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode([]byte{1, 2}); err == nil {
		t.Error("truncated header should error")
	}
	if _, err := Decode([]byte{0, 0, 0, 3, 0, 0}); err == nil {
		t.Error("wrong length should error")
	}
	g := NewGrid(2)
	buf := g.Encode()
	buf[4] = 9 // invalid processor
	if _, err := Decode(buf); err == nil {
		t.Error("invalid processor should error")
	}
}

func BenchmarkNewRandom(b *testing.B) {
	ratio := MustRatio(2, 1, 1)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		NewRandom(200, ratio, rng)
	}
}

func TestDownsampleProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	g := NewRandom(60, MustRatio(3, 2, 1), rng)
	coarse := g.Downsample(15)
	if coarse.N() != 15 {
		t.Fatalf("coarse N = %d", coarse.N())
	}
	if err := coarse.Validate(); err != nil {
		t.Fatal(err)
	}
	// Fallback when boxes out of range: same resolution copy.
	same := g.Downsample(0)
	if same.N() != g.N() || !same.Equal(g) {
		t.Error("Downsample(0) should be an identity copy")
	}
	// A solid block survives downsampling as a solid block.
	solid := NewGrid(40)
	solid.FillRect(geom.NewRect(0, 0, 20, 20), R)
	c := solid.Downsample(10)
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			if c.At(i, j) != R {
				t.Fatalf("block corner lost at (%d,%d)", i, j)
			}
		}
	}
}
