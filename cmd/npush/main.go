// Command npush runs the Push search on any number of processors — the
// paper's §XI extension ("The ultimate aim is to determine the optimal
// data partitioning shape … for any number of heterogeneous processors").
// It runs the same engine as pushsearch, from a K-processor random start.
//
// Usage:
//
//	npush -ratio 8:4:2:1 [-n 80] [-runs 3] [-seed 1] [-boxes 32]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"repro/internal/partition"
	"repro/internal/push"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("npush: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run carries the whole program. It takes its argument list and output
// stream explicitly so tests can drive it like a user.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("npush", flag.ContinueOnError)
	var (
		ratioStr = fs.String("ratio", "8:4:2:1", "speed ratio, fastest first, colon-separated")
		n        = fs.Int("n", 80, "matrix dimension")
		runs     = fs.Int("runs", 3, "number of runs")
		seed     = fs.Int64("seed", 1, "base seed")
		boxes    = fs.Int("boxes", 32, "render granularity")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *n < 2 {
		return fmt.Errorf("-n must be at least 2, got %d", *n)
	}
	var speeds partition.Speeds
	for _, part := range strings.Split(*ratioStr, ":") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return fmt.Errorf("ratio %q: %v", *ratioStr, err)
		}
		speeds = append(speeds, v)
	}
	if err := speeds.Validate(); err != nil {
		return err
	}

	fmt.Fprintf(stdout, "%d-processor Push search, ratio %s, N=%d\n\n", len(speeds), speeds, *n)
	for r := 0; r < *runs; r++ {
		s := *seed + int64(r)
		start, err := partition.NewRandomK(*n, speeds, rand.New(rand.NewSource(s)))
		if err != nil {
			return err
		}
		res, err := push.Run(push.Config{N: *n, Seed: s, Start: start, Beautify: true})
		if err != nil {
			return err
		}
		drop := 100 * (1 - float64(res.FinalVoC)/float64(res.InitialVoC))
		fmt.Fprintf(stdout, "run %d: %d pushes, VoC %d → %d (−%.0f%%), converged=%v\n",
			r, res.Steps, res.InitialVoC, res.FinalVoC, drop, res.Converged)
		if r == 0 {
			fmt.Fprintf(stdout, "\nterminal shape ('.' = fastest; slower processors by speed rank, 1, 2, … or R, S at K=3):\n%s\n",
				res.Final.RenderASCII(*boxes))
		}
	}
	return nil
}
