package model

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/partition"
)

var updateEquivalence = flag.Bool("update", false, "rewrite the equivalence golden files with the current output")

// The equivalence suite pins the evaluator to bytes generated from the
// seed code, before per-link pricing existed. The golden file was
// produced with -update at seed state; the single per-link evaluator must
// keep reproducing it bit for bit (floats are rendered in hex, so "equal
// bytes" means "equal float64 bits").
//
// Coverage: six shapes × the eleven paper ratios × N ∈ {64, 128, 256},
// all five algorithms, both legacy topologies, plus the closed forms.

// hexF renders a float64 with no loss: equal strings ⇔ equal bits.
func hexF(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }

var equivalenceSizes = []int{64, 128, 256}

// seedEvaluate is the evaluation entry point under test. It exists so the
// golden corpus can be replayed against different Machine configurations
// (nil Cost and an all-equal LinkMatrix) that must all agree.
type seedEvaluate func(a Algorithm, ratio partition.Ratio, topo Topology, snap partition.Metrics) Breakdown

func legacyEvaluate(a Algorithm, ratio partition.Ratio, topo Topology, snap partition.Metrics) Breakdown {
	m := DefaultMachine(ratio)
	m.Topology = topo
	return Evaluate(a, m, snap)
}

// writeEquivalenceCorpus renders the full evaluation corpus using eval.
func writeEquivalenceCorpus(t *testing.T, eval seedEvaluate) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, n := range equivalenceSizes {
		for _, ratio := range partition.PaperRatios {
			for _, s := range partition.AllShapes {
				g, err := partition.Build(s, n, ratio)
				if err != nil {
					fmt.Fprintf(&buf, "%s|%s|%d infeasible\n", s, ratio.Key(), n)
					continue
				}
				snap := g.Snapshot()
				fmt.Fprintf(&buf, "%s|%s|%d voc=%d sends=%d,%d,%d\n",
					s, ratio.Key(), n, snap.VoC,
					snap.Sends[partition.P], snap.Sends[partition.R], snap.Sends[partition.S])
				for _, topo := range []Topology{FullyConnected, Star} {
					for _, a := range AllAlgorithms {
						b := eval(a, ratio, topo, snap)
						fmt.Fprintf(&buf, "  %s/%s comm=%s overlap=%s comp=%s total=%s\n",
							topo, a, hexF(b.Comm), hexF(b.Overlap), hexF(b.Comp), hexF(b.Total))
					}
				}
			}
		}
	}
	// Closed forms (NormalizedVoC and the Fig 13/14 SCB seconds at N=5000).
	for _, ratio := range partition.PaperRatios {
		for _, s := range partition.AllShapes {
			v, ok := NormalizedVoC(s, ratio)
			if !ok {
				fmt.Fprintf(&buf, "closed|%s|%s infeasible\n", s, ratio.Key())
				continue
			}
			sec, _ := SCBCommSeconds(s, DefaultMachine(ratio), 5000)
			fmt.Fprintf(&buf, "closed|%s|%s voc=%s scb5000=%s\n", s, ratio.Key(), hexF(v), hexF(sec))
		}
	}
	return buf.Bytes()
}

func checkEquivalenceGolden(t *testing.T, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "seed_equivalence.golden")
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
		t.Fatalf("evaluation output diverged from the seed golden %s.\n"+
			"If the change is intentional, regenerate with -update and justify the diff;\n"+
			"a one-class link table is contractually bit-identical to the seed.", path)
	}
}

// TestSeedEquivalenceLegacy pins the default (legacy) Machine evaluation
// path to the seed golden bytes.
func TestSeedEquivalenceLegacy(t *testing.T) {
	if testing.Short() {
		t.Skip("equivalence corpus builds 396 grids; skipped in -short")
	}
	checkEquivalenceGolden(t, writeEquivalenceCorpus(t, legacyEvaluate))
}

// TestSeedEquivalenceUniformCost replays the corpus with an explicit
// LinkMatrix whose six links all carry the default network, star rows
// included: pricing through the installed matrix must reproduce the seed
// bytes bit for bit.
func TestSeedEquivalenceUniformCost(t *testing.T) {
	if testing.Short() {
		t.Skip("equivalence corpus builds 396 grids; skipped in -short")
	}
	eval := func(a Algorithm, ratio partition.Ratio, topo Topology, snap partition.Metrics) Breakdown {
		m := DefaultMachine(ratio)
		m.Topology = topo
		m.Cost = allEqualLinkMatrix(m.Net)
		// Scramble Net, so the test fails if pricing silently reads it
		// instead of the installed matrix.
		m.Net = Hockney{Alpha: 999, Beta: 999}
		return Evaluate(a, m, snap)
	}
	checkEquivalenceGolden(t, writeEquivalenceCorpus(t, eval))
}
