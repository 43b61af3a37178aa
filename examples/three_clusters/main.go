// three_clusters models the "three interconnected clusters" setting of
// Becker & Lastovetsky [10]: three geographically separate clusters of
// different aggregate speeds jointly multiply matrices. The interconnect
// matters here — if the two slower clusters reach each other only through
// the fastest one (a star), shapes that avoid R↔S traffic gain an extra
// edge. The example compares every candidate under both topologies and
// under a simulated execution.
//
// Run with: go run ./examples/three_clusters
package main

import (
	"fmt"
	"log"

	heteropart "repro"
)

func main() {
	log.SetFlags(0)
	const n = 200
	ratio := heteropart.MustRatio(4, 2, 1) // aggregate cluster speeds
	fmt.Printf("three clusters, aggregate speeds %s, N=%d\n\n", ratio, n)

	for _, topo := range []heteropart.TopologySpec{heteropart.FullyConnected, heteropart.Star} {
		m := topo.Apply(heteropart.DefaultMachine(ratio))
		fmt.Printf("— %s topology —\n", topo)
		fmt.Printf("%-22s %-10s %-14s %-14s\n", "shape", "VoC", "SCB model(s)", "SCB sim(s)")
		best, cands, err := heteropart.Optimal(heteropart.SCB, m, n)
		if err != nil {
			log.Fatal(err)
		}
		for _, c := range cands {
			if !c.Feasible {
				fmt.Printf("%-22s infeasible\n", c.Shape)
				continue
			}
			res, err := heteropart.Simulate(heteropart.SCB, m, c.Grid)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-22s %-10d %-14.6f %-14.6f\n", c.Shape, c.VoC, c.Breakdown.Total, res.TExe)
		}
		fmt.Printf("optimal: %v\n\n", best)
	}

	fmt.Println("Shapes that keep the two slow clusters out of each other's rows and")
	fmt.Println("columns avoid the double hop through the fast cluster under the star,")
	fmt.Println("so the star topology widens the margin of the corner-style partitions.")
}
