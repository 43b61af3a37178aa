// Command shapeopt compares the six candidate canonical shapes for a
// processor ratio and reports the optimum per MMM algorithm (the Section X
// methodology).
//
// Usage:
//
//	shapeopt -ratio 10:1:1 [-n 200] [-alg SCB] [-topology star]
//
// Atlas mode bakes that decision for a whole quantized ratio plane into
// a snapshot pland can serve from without searching:
//
//	shapeopt -build-atlas atlas.bin [-scale 10] [-pr-max 20] [-rr-max 20]
//	         [-n 200] [-alg SCB] [-topology full]
//	shapeopt -dump-atlas atlas.bin [-spot 200] [-spot-seed 1]
//
// -dump-atlas prints the snapshot header, grid resolution, per-shape
// winner counts, and the winner phase diagram; -spot N additionally
// re-derives N randomly chosen cells with the live search and exits 2
// on any divergence (0 or a value over the cell count means every
// cell).
//
// Winner-map mode runs the topology census: the Section IX–X winner map
// recomputed once per interconnect class (uniform, 2+1, 3-island), with
// a per-class count of cells whose winner moved:
//
//	shapeopt -winner-map [-alg SCB] [-pr-max 12] [-rr-max 4] [-step 1] [-n 60]
//
// The -topology flag accepts the full spec grammar everywhere outside
// atlas mode: the legacy "full"/"star", the classes "2+1[:f]" and
// "3-island[:f]", and explicit "links:PR=…,PS=…,RS=…" matrices.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"text/tabwriter"

	"repro/internal/atlas"
	"repro/internal/experiment"
	"repro/internal/model"
	"repro/internal/partition"
	"repro/internal/sim"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("shapeopt: ")
	var (
		ratioStr  = flag.String("ratio", "5:2:1", "processor speed ratio Pr:Rr:Sr")
		n         = flag.Int("n", 200, "matrix dimension")
		algStr    = flag.String("alg", "", "algorithm (SCB, PCB, SCO, PCO, PIO); empty = all (atlas modes: SCB)")
		topoStr   = flag.String("topology", "full", "network topology: full, star, 2+1[:f], 3-island[:f], or links:PR=…,PS=…,RS=…")
		winnerMap = flag.Bool("winner-map", false, "run the topology census: per-class winner maps over the ratio plane")
		step      = flag.Float64("step", 1, "winner-map ratio-plane sample step")
		buildPath = flag.String("build-atlas", "", "sweep the ratio grid and write an atlas snapshot to this path")
		dumpPath  = flag.String("dump-atlas", "", "load an atlas snapshot and print its contents")
		scale     = flag.Int("scale", 10, "atlas grid resolution: lattice step is 1/scale")
		prMax     = flag.Float64("pr-max", 20, "atlas grid upper bound for Pr")
		rrMax     = flag.Float64("rr-max", 20, "atlas grid upper bound for Rr")
		spot      = flag.Int("spot", 0, "with -dump-atlas: spot-check this many random cells against live search (≤0 = none with 0 meaning none, over cell count = all)")
		spotSeed  = flag.Int64("spot-seed", 1, "seed for the spot-check cell sample")
	)
	flag.Parse()

	if *buildPath != "" && *dumpPath != "" {
		log.Fatal("-build-atlas and -dump-atlas are mutually exclusive")
	}
	if *buildPath != "" {
		os.Exit(buildAtlas(*buildPath, *algStr, *topoStr, *n, *scale, *prMax, *rrMax))
	}
	if *dumpPath != "" {
		os.Exit(dumpAtlas(*dumpPath, *spot, *spotSeed))
	}
	if *winnerMap {
		os.Exit(winnerMapMode(os.Stdout, *algStr, *rrMax, *prMax, *step, *n))
	}
	os.Exit(compareShapes(os.Stdout, *ratioStr, *n, *algStr, *topoStr))
}

// parseTopology accepts the full topology spec grammar, with "full" kept
// as the historical alias for "fully-connected".
func parseTopology(s string) (model.TopologySpec, error) {
	if s == "full" {
		s = model.FullyConnected.String()
	}
	return model.ParseTopologySpec(s)
}

// winnerMapMode runs the topology census and renders each class's phase
// diagram plus its flip count against the uniform baseline.
func winnerMapMode(w io.Writer, algStr string, rrMax, prMax, step float64, n int) int {
	alg := model.SCB
	if algStr != "" {
		a, err := model.ParseAlgorithm(algStr)
		if err != nil {
			log.Print(err)
			return 2
		}
		alg = a
	}
	entries, err := experiment.RunTopologyCensus(context.Background(), alg, rrMax, prMax, step, n)
	if err != nil {
		log.Print(err)
		return 1
	}
	if err := experiment.WriteCensus(w, entries); err != nil {
		log.Print(err)
		return 1
	}
	return 0
}

// buildAtlas sweeps the quantized ratio plane and writes the snapshot.
func buildAtlas(path, algStr, topoStr string, n, scale int, prMax, rrMax float64) int {
	alg := model.SCB
	if algStr != "" {
		a, err := model.ParseAlgorithm(algStr)
		if err != nil {
			log.Print(err)
			return 2
		}
		alg = a
	}
	spec, err := parseTopology(topoStr)
	if err != nil {
		log.Print(err)
		return 2
	}
	topo, legacy := spec.Legacy()
	if !legacy {
		// The snapshot format bakes winners for the uniform cost model
		// only; pland's atlas tier skips link-matrix scenarios to match.
		log.Printf("atlas mode supports the legacy topologies (full, star) only, got %q", topoStr)
		return 2
	}
	g, err := atlas.NewGrid(scale, prMax, rrMax)
	if err != nil {
		log.Print(err)
		return 2
	}
	log.Printf("sweeping %d cells (%s, %s topology, n=%d, step 1/%d, Pr≤%g, Rr≤%g)",
		g.Cells(), alg, topo, n, scale, prMax, rrMax)
	lastPct := -1
	a, err := atlas.Build(context.Background(), atlas.BuildConfig{
		Algorithm: alg,
		Topology:  topo,
		N:         n,
		Grid:      g,
		Progress: func(done, total int) {
			if pct := done * 100 / total; pct >= lastPct+10 {
				lastPct = pct
				log.Printf("  %3d%% (%d/%d rows)", pct, done, total)
			}
		},
	})
	if err != nil {
		log.Print(err)
		return 1
	}
	if err := a.Write(path); err != nil {
		log.Print(err)
		return 1
	}
	log.Printf("wrote %s: %d cells (%d valid) in %d bytes", path, a.Cells(), a.ValidCells(), len(a.Encode()))
	return 0
}

// dumpAtlas prints a snapshot and optionally spot-checks it against the
// live planner.
func dumpAtlas(path string, spot int, seed int64) int {
	a, err := atlas.Load(path)
	if err != nil {
		log.Print(err)
		return 1
	}
	if err := a.Dump(os.Stdout); err != nil {
		log.Print(err)
		return 1
	}
	if spot <= 0 {
		return 0
	}
	cells := spot
	if cells > a.ValidCells() {
		cells = a.ValidCells()
	}
	fmt.Printf("\nspot-check: re-deriving %d of %d valid cells with the live search (seed %d)\n",
		cells, a.ValidCells(), seed)
	mismatches, err := a.SpotCheck(context.Background(), spot, seed)
	if err != nil {
		log.Print(err)
		return 1
	}
	if len(mismatches) > 0 {
		for _, m := range mismatches {
			fmt.Printf("  MISMATCH %s\n", m)
		}
		log.Printf("%d/%d cells diverge from live search", len(mismatches), cells)
		return 2
	}
	fmt.Printf("spot-check: all %d cells bit-identical to live search\n", cells)
	return 0
}

// compareShapes is the single-ratio report: each candidate's modelled and
// simulated execution time and efficiency per algorithm, then the optimum.
func compareShapes(w io.Writer, ratioStr string, n int, algStr, topoStr string) int {
	ratio, err := partition.ParseRatio(ratioStr)
	if err != nil {
		log.Print(err)
		return 2
	}
	spec, err := parseTopology(topoStr)
	if err != nil {
		log.Print(err)
		return 2
	}
	m := spec.Apply(model.DefaultMachine(ratio))
	algs := model.AllAlgorithms[:]
	if algStr != "" {
		a, err := model.ParseAlgorithm(algStr)
		if err != nil {
			log.Print(err)
			return 2
		}
		algs = []model.Algorithm{a}
	}

	// One comparison per algorithm; lists[i][j] is shape j under algs[i].
	lists := make([][]model.Candidate, len(algs))
	bests := make([]int, len(algs))
	for i, a := range algs {
		if lists[i], bests[i], err = model.Compare(a, m, n); err != nil {
			log.Print(err)
			return 1
		}
	}

	fmt.Fprintf(w, "Candidate shapes for ratio %s on N=%d (%s topology)\n\n", ratio, n, m.TopologyName())
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "shape\tVoC (elements)\talgorithm\tmodel T_exe (s)\tsim T_exe (s)\tefficiency")
	for j, first := range lists[0] {
		if !first.Feasible {
			fmt.Fprintf(tw, "%s\tinfeasible\t\t\t\t\n", first.Shape)
			continue
		}
		for i, a := range algs {
			c := lists[i][j]
			name, voc := "", ""
			if i == 0 {
				name, voc = c.Shape.String(), fmt.Sprintf("%d", c.VoC)
			}
			res, err := sim.Simulate(a, m, c.Grid)
			if err != nil {
				log.Print(err)
				return 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6f\t%.6f\t%.1f%%\n", name, voc, a, c.Breakdown.Total, res.TExe,
				100*model.Efficiency(a, m, c.Grid.Snapshot()))
		}
	}
	if err := tw.Flush(); err != nil {
		log.Print(err)
		return 1
	}
	fmt.Fprintln(w)
	for i, a := range algs {
		b := lists[i][bests[i]]
		fmt.Fprintf(w, "optimal for %s: %s (model T_exe %.6f s)\n", a, b.Shape, b.Breakdown.Total)
	}
	return 0
}
