package experiment

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/model"
	"repro/internal/partition"
)

var update = flag.Bool("update", false, "rewrite the golden files with the current output")

// checkGolden compares got against testdata/<name>, rewriting the file
// when -update is set:
//
//	go test ./internal/experiment -run Golden -update
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
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
		t.Fatalf("missing golden (run with -update first): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output diverged from %s:\n%s", path, got)
	}
}

// goldenTopologies are the two interconnects the pricing goldens pin.
var goldenTopologies = []struct {
	name string
	spec string
}{
	{"fully-connected", ""},
	{"star", "star"},
}

// mustSpec parses a topology spec a test names literally.
func mustSpec(t testing.TB, s string) model.TopologySpec {
	t.Helper()
	spec, err := model.ParseTopologySpec(s)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestOptimalShapesGolden pins every candidate's VoC, modelled Total and
// simulated Total from OptimalShapes as hex floats, over the paper ratios
// at n=40 on both legacy topologies. The printed tables round to a few
// significant digits at these sizes; this golden holds the exact prices.
func TestOptimalShapesGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, topo := range goldenTopologies {
		rows, err := OptimalShapes(context.Background(), 40, nil, mustSpec(t, topo.spec))
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			fmt.Fprintf(&buf, "%s %s %v best=%v\n", topo.name, r.Ratio, r.Algorithm, r.Best)
			for _, c := range r.Costs {
				if !c.Feasible {
					fmt.Fprintf(&buf, "  %-22v infeasible\n", c.Shape)
					continue
				}
				fmt.Fprintf(&buf, "  %-22v voc=%d total=%x sim=%x\n", c.Shape, c.VoC, c.Total, c.SimTotal)
			}
		}
	}
	checkGolden(t, "optimal_shapes.golden", buf.Bytes())
}

// TestFaultStudyGolden pins FaultStudy's rows (clean and faulted
// simulated times, degradation) as hex floats for every algorithm over
// the paper ratios at n=64 on both legacy topologies.
func TestFaultStudyGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, topo := range goldenTopologies {
		for _, ratio := range partition.PaperRatios {
			for _, a := range model.AllAlgorithms {
				rows, err := FaultStudy(context.Background(), a, mustSpec(t, topo.spec), 64, ratio, CanonicalFaultPlan)
				if err != nil {
					t.Fatal(err)
				}
				clean, faulted := FaultWinners(rows)
				fmt.Fprintf(&buf, "%s %s %v clean=%v faulted=%v\n", topo.name, ratio, a, clean, faulted)
				for _, r := range rows {
					if !r.Feasible {
						fmt.Fprintf(&buf, "  %-22v infeasible\n", r.Shape)
						continue
					}
					fmt.Fprintf(&buf, "  %-22v clean=%x faulted=%x degradation=%x\n",
						r.Shape, r.Clean, r.Faulted, r.Degradation)
				}
			}
		}
	}
	checkGolden(t, "fault_study.golden", buf.Bytes())
}
