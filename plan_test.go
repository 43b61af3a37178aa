package heteropart

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"
)

func TestNewPlanRoundTrip(t *testing.T) {
	m := DefaultMachine(MustRatio(10, 1, 1))
	p, err := NewPlan(SCB, m, 96)
	if err != nil {
		t.Fatal(err)
	}
	if p.Shape != "Square-Corner" {
		t.Errorf("plan shape %q, want Square-Corner at 10:1:1", p.Shape)
	}
	if len(p.Procs) != 3 {
		t.Fatalf("procs = %d", len(p.Procs))
	}
	var sendSum int64
	elements := 0
	for _, pp := range p.Procs {
		elements += pp.Elements
		sendSum += pp.SendElements
	}
	if elements != 96*96 {
		t.Errorf("plan elements sum %d", elements)
	}
	if sendSum != p.VoC {
		t.Errorf("Σ sends %d != VoC %d", sendSum, p.VoC)
	}

	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"shape": "Square-Corner"`) {
		t.Errorf("JSON missing shape:\n%s", buf.String())
	}
	back, err := ReadPlan(&buf)
	if err != nil {
		t.Fatal(err)
	}
	g1, err := p.Partition()
	if err != nil {
		t.Fatal(err)
	}
	g2, err := back.Partition()
	if err != nil {
		t.Fatal(err)
	}
	if !g1.Equal(g2) {
		t.Error("plan partition did not survive the JSON round trip")
	}
	if back.VoC != p.VoC || back.Expected.Total != p.Expected.Total {
		t.Error("plan scalars did not survive the round trip")
	}
}

func TestPlanExecutable(t *testing.T) {
	// A deserialised plan drives a real execution.
	m := DefaultMachine(MustRatio(4, 2, 1))
	p, err := NewPlan(PCB, m, 40)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadPlan(&buf)
	if err != nil {
		t.Fatal(err)
	}
	g, err := loaded.Partition()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	a := NewMatrix(40)
	b := NewMatrix(40)
	a.FillRandom(rng)
	b.FillRandom(rng)
	_, stats, err := Multiply(ExecConfig{Machine: m, Algorithm: PCB}, g, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if stats.TotalVolume != loaded.VoC {
		t.Errorf("executed volume %d != planned VoC %d", stats.TotalVolume, loaded.VoC)
	}
}

func TestReadPlanErrors(t *testing.T) {
	if _, err := ReadPlan(strings.NewReader("{not json")); err == nil {
		t.Error("bad JSON should error")
	}
	p := &Plan{Grid: "!!!not-base64!!!"}
	if _, err := p.Partition(); err == nil {
		t.Error("bad base64 should error")
	}
	p2 := &Plan{Grid: "AAAA"}
	if _, err := p2.Partition(); err == nil {
		t.Error("truncated grid should error")
	}
}

// TestReadPlanRejectsCorrupt feeds ReadPlan plans that parse as JSON but
// are truncated, hand-edited, or bit-rotted. Every one must fail with a
// typed *PlanError naming the bad field — never return a zero-valued or
// inconsistent plan.
func TestReadPlanRejectsCorrupt(t *testing.T) {
	goodJSON := func(t *testing.T) string {
		t.Helper()
		p, err := NewPlan(SCB, DefaultMachine(MustRatio(5, 2, 1)), 24)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := p.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}

	cases := []struct {
		name    string
		mutate  func(s string) string
		field   string // expected PlanError field; "" = any decode error
		wantErr bool
	}{
		{"pristine", func(s string) string { return s }, "", false},
		{"truncated JSON", func(s string) string { return s[:len(s)/2] }, "", true},
		{"empty input", func(string) string { return "" }, "", true},
		{"zero n", func(s string) string { return strings.Replace(s, `"n": 24`, `"n": 0`, 1) }, "n", true},
		{"negative n", func(s string) string { return strings.Replace(s, `"n": 24`, `"n": -8`, 1) }, "n", true},
		{"bad ratio", func(s string) string { return strings.Replace(s, `"ratio": "5:2:1"`, `"ratio": "fast:slow"`, 1) }, "ratio", true},
		{"inverted ratio", func(s string) string { return strings.Replace(s, `"ratio": "5:2:1"`, `"ratio": "1:2:5"`, 1) }, "ratio", true},
		{"bad algorithm", func(s string) string { return strings.Replace(s, `"algorithm": "SCB"`, `"algorithm": "QUIC"`, 1) }, "algorithm", true},
		{"bad topology", func(s string) string {
			return strings.Replace(s, `"topology": "fully-connected"`, `"topology": "mesh"`, 1)
		}, "topology", true},
		{"bad shape", func(s string) string { return strings.Replace(s, `"shape": "`, `"shape": "Hexagon-`, 1) }, "shape", true},
		{"negative voc", func(s string) string { return strings.Replace(s, `"voc": `, `"voc": -`, 1) }, "voc", true},
		{"voc mismatch", func(s string) string { return strings.Replace(s, `"voc": `, `"voc": 1`, 1) }, "voc", true},
		{"garbage grid", func(s string) string {
			i := strings.Index(s, `"grid": "`)
			j := strings.Index(s[i+9:], `"`)
			return s[:i+9] + "AAAA" + s[i+9+j:]
		}, "grid", true},
		{"grid not base64", func(s string) string {
			i := strings.Index(s, `"grid": "`)
			j := strings.Index(s[i+9:], `"`)
			return s[:i+9] + "@@@@" + s[i+9+j:]
		}, "grid", true},
		{"proc count tampered", func(s string) string { return strings.Replace(s, `"elements": `, `"elements": 9`, 1) }, "procs", true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			in := c.mutate(goodJSON(t))
			p, err := ReadPlan(strings.NewReader(in))
			if !c.wantErr {
				if err != nil {
					t.Fatalf("pristine plan rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("corrupt plan accepted: %+v", p)
			}
			if c.field != "" {
				var pe *PlanError
				if !errors.As(err, &pe) {
					t.Fatalf("err = %v (%T), want *PlanError", err, err)
				}
				if pe.Field != c.field {
					t.Fatalf("PlanError field = %q (%v), want %q", pe.Field, err, c.field)
				}
			}
		})
	}
}

func TestMultiplyPIOPublicAPI(t *testing.T) {
	const n = 24
	ratio := MustRatio(3, 1, 1)
	g, err := BuildShape(SquareCorner, n, ratio)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	a := NewMatrix(n)
	b := NewMatrix(n)
	a.FillRandom(rng)
	b.FillRandom(rng)
	c, stats, err := MultiplyPIO(ExecConfig{Machine: DefaultMachine(ratio)}, g, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if stats.TotalVolume != g.VoC() {
		t.Errorf("volume %d != VoC %d", stats.TotalVolume, g.VoC())
	}
	if c.N() != n {
		t.Error("dimension")
	}
}
