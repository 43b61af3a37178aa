// four_processors exercises the paper's §XI extension: the Push search on
// four heterogeneous processors (e.g. two GPUs and two CPU sockets). The
// example runs the search engine from a four-processor random start and
// shows that the same condensation behaviour — monotone VoC reduction
// terminating in compact, blocky shapes — carries over past three
// processors, exactly as the paper anticipates.
//
// Run with: go run ./examples/four_processors
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/partition"
	"repro/internal/push"
)

func main() {
	log.SetFlags(0)
	ratio := partition.Speeds{8, 4, 2, 1} // GPU0 : GPU1 : socket0 : socket1
	const n = 80
	fmt.Printf("four abstract processors, speeds %s, N=%d\n\n", ratio, n)

	var bestDrop float64
	var best *push.RunResult
	for seed := int64(0); seed < 6; seed++ {
		start, err := partition.NewRandomK(n, ratio, rand.New(rand.NewSource(seed)))
		if err != nil {
			log.Fatal(err)
		}
		res, err := push.Run(push.Config{N: n, Seed: seed, Start: start, Beautify: true})
		if err != nil {
			log.Fatal(err)
		}
		drop := 1 - float64(res.FinalVoC)/float64(res.InitialVoC)
		fmt.Printf("seed %d: %4d pushes, VoC %6d → %6d (−%2.0f%%)\n",
			seed, res.Steps, res.InitialVoC, res.FinalVoC, 100*drop)
		if drop > bestDrop {
			bestDrop, best = drop, res
		}
	}
	fmt.Printf("\nbest condensed shape ('.'=fastest, 1..3=slower processors):\n\n%s\n",
		best.Final.RenderASCII(40))
	fmt.Println("The slower processors condense into compact blocks whose rows and columns")
	fmt.Println("overlap as little as possible — the same structure the three-processor")
	fmt.Println("candidates formalise, now discovered automatically for four processors.")
}
