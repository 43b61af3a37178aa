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
// seed state, before per-link pricing existed. A fully-connected Machine
// priced through the all-ones link spec must keep producing these exact
// bytes.

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
// every scenario on its own topology. A non-empty fullyConnected spec
// replaces the fully-connected scenarios' topology, and their plans are
// relabelled "fully-connected": the label is the one field that replay
// changes by design.
func writePlanCorpus(t *testing.T, fullyConnected string) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, sc := range planScenarios {
		ratio, err := ParseRatio(sc.ratio)
		if err != nil {
			t.Fatal(err)
		}
		topo := sc.topo
		if topo == "fully-connected" && fullyConnected != "" {
			topo = fullyConnected
		}
		spec, err := ParseTopologySpec(topo)
		if err != nil {
			t.Fatal(err)
		}
		m := spec.Apply(DefaultMachine(ratio))
		write := func(p *Plan) {
			if p.Topology != spec.String() {
				t.Fatalf("plan topology %q, want %q", p.Topology, spec)
			}
			p.Topology = sc.topo
			if err := p.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
		}
		buf.WriteString("== optimal " + sc.ratio + " " + sc.alg.String() + " " + sc.topo + "\n")
		p, err := NewPlan(sc.alg, m, sc.n)
		if err != nil {
			t.Fatalf("NewPlan %+v: %v", sc, err)
		}
		write(p)
		for _, s := range AllShapes {
			sp, err := NewPlanForShape(sc.alg, m, sc.n, s)
			if err != nil {
				buf.WriteString("== shape " + s.String() + " infeasible\n")
				continue
			}
			buf.WriteString("== shape " + s.String() + "\n")
			write(sp)
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
	checkPlanGolden(t, writePlanCorpus(t, ""))
}

// TestPlanSeedEquivalenceUniformCost replays the corpus with every
// fully-connected scenario priced through the all-ones link spec: plan
// JSON must stay byte-identical to seed. Star relays through P and takes
// no multipliers, so its scenarios replay on the legacy star.
func TestPlanSeedEquivalenceUniformCost(t *testing.T) {
	checkPlanGolden(t, writePlanCorpus(t, "links:PR=1,PS=1,RS=1"))
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
