package heteropart

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateEquivalence = flag.Bool("update", false, "rewrite the equivalence golden files with the current output")

// The plan equivalence golden pins the full /v1/plan-shaped facade output
// (NewPlan and NewPlanForShape JSON, floats and all) to bytes generated at
// seed state, before per-link pricing existed. A Machine carrying an
// explicit LinkMatrix whose six links equal the seed network must keep
// producing these exact bytes.

type planScenario struct {
	ratio string
	alg   Algorithm
	topo  string
	n     int
}

var planScenarios = []planScenario{
	{"10:1:1", SCB, "fully-connected", 64},
	{"10:1:1", PIO, "star", 64},
	{"5:2:1", PCB, "fully-connected", 96},
	{"3:1:1", SCO, "star", 64},
	{"2:2:1", PCO, "fully-connected", 64},
	{"4:3:2", PIO, "fully-connected", 80},
}

// writePlanCorpus renders NewPlan plus all six NewPlanForShape outputs for
// every scenario, using mutate to install the machine configuration under
// test (nil Cost at seed; an explicit link matrix since).
func writePlanCorpus(t *testing.T, mutate func(*Machine)) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, sc := range planScenarios {
		ratio, err := ParseRatio(sc.ratio)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := ParseTopologySpec(sc.topo)
		if err != nil {
			t.Fatal(err)
		}
		m := spec.Apply(DefaultMachine(ratio))
		if mutate != nil {
			mutate(&m)
		}
		buf.WriteString("== optimal " + sc.ratio + " " + sc.alg.String() + " " + sc.topo + "\n")
		p, err := NewPlan(sc.alg, m, sc.n)
		if err != nil {
			t.Fatalf("NewPlan %+v: %v", sc, err)
		}
		if err := p.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		for _, s := range AllShapes {
			sp, err := NewPlanForShape(sc.alg, m, sc.n, s)
			if err != nil {
				buf.WriteString("== shape " + s.String() + " infeasible\n")
				continue
			}
			buf.WriteString("== shape " + s.String() + "\n")
			if err := sp.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
		}
	}
	return buf.Bytes()
}

func checkPlanGolden(t *testing.T, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "plan_seed_equivalence.golden")
	if *updateEquivalence {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update at seed state first): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("plan JSON diverged from the seed golden %s.\n"+
			"A one-class link table is contractually byte-identical to the seed;\n"+
			"regenerate with -update only for an intentional, justified change.", path)
	}
}

// TestPlanSeedEquivalenceLegacy pins the default Machine plan path to the
// seed bytes.
func TestPlanSeedEquivalenceLegacy(t *testing.T) {
	checkPlanGolden(t, writePlanCorpus(t, nil))
}

// TestPlanSeedEquivalenceUniformCost replays the corpus with an explicit
// LinkMatrix whose six links all carry the machine's network, and Net
// scrambled so nothing may read it: plan JSON must stay byte-identical to
// seed, star scenarios included.
func TestPlanSeedEquivalenceUniformCost(t *testing.T) {
	checkPlanGolden(t, writePlanCorpus(t, func(m *Machine) {
		lm := &LinkMatrix{}
		for p := range lm.Links {
			for q := range lm.Links[p] {
				lm.Links[p][q] = m.Net
			}
		}
		m.Cost = lm
		m.Net.Alpha, m.Net.Beta = 999, 999
	}))
}

// TestPlanTopologySpecRoundTrip checks the wire path for link topologies:
// the plan's topology field carries the canonical spec, validates, and
// round-trips through ReadPlan.
func TestPlanTopologySpecRoundTrip(t *testing.T) {
	spec, err := ParseTopologySpec("2+1:10")
	if err != nil {
		t.Fatal(err)
	}
	m := spec.Apply(DefaultMachine(MustRatio(5, 2, 1)))
	p, err := NewPlan(SCB, m, 64)
	if err != nil {
		t.Fatal(err)
	}
	if p.Topology != "2+1:10" {
		t.Fatalf("plan topology %q, want canonical spec", p.Topology)
	}
	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadPlan(&buf)
	if err != nil {
		t.Fatalf("spec-topology plan failed validation round trip: %v", err)
	}
	if back.Topology != p.Topology || back.Shape != p.Shape {
		t.Fatalf("round trip changed plan: %q/%q vs %q/%q", back.Topology, back.Shape, p.Topology, p.Shape)
	}
	// A corrupt spec must be rejected with a typed error.
	p.Topology = "links:PR=1"
	if err := p.Validate(); err == nil {
		t.Fatal("plan with incomplete link spec validated")
	} else if _, ok := err.(*PlanError); !ok {
		t.Fatalf("error %T, want *PlanError", err)
	}
}
