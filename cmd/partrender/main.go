// Command partrender renders partitions as ASCII art or PGM images, in
// the paper's white/gray/black convention at reduced granularity (Fig 7).
//
// Modes:
//
//	partrender -shape square-corner -ratio 10:1:1            a canonical shape
//	partrender -evolve -ratio 2:1:1 -n 200 -at 0,100,200     a DFA run's frames
//	partrender -shape block-rectangle -pgm out.pgm           write a PGM image
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"repro/internal/experiment"
	"repro/internal/partition"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("partrender: ")
	var (
		shapeStr = flag.String("shape", "", "candidate shape to render")
		ratioStr = flag.String("ratio", "2:1:1", "processor speed ratio")
		n        = flag.Int("n", 200, "matrix dimension")
		boxes    = flag.Int("boxes", 40, "render granularity (boxes per side)")
		evolve   = flag.Bool("evolve", false, "render snapshots of a DFA run (Fig 7)")
		at       = flag.String("at", "0,50,100,150", "evolve: comma-separated snapshot steps")
		seed     = flag.Int64("seed", 1, "evolve: run seed")
		pgmPath  = flag.String("pgm", "", "write a PGM image to this path instead of ASCII")
	)
	flag.Parse()

	ratio, err := partition.ParseRatio(*ratioStr)
	if err != nil {
		log.Fatal(err)
	}

	if *evolve {
		var steps []int
		for _, s := range strings.Split(*at, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				log.Fatal(err)
			}
			steps = append(steps, v)
		}
		frames, res, err := experiment.ExampleRun(*n, ratio, *seed, steps, *boxes)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("DFA run: ratio %s, N=%d, seed %d — %d pushes, VoC %d → %d, plan %v\n\n",
			ratio, *n, *seed, res.Steps, res.InitialVoC, res.FinalVoC, res.Plan)
		shown := map[int]bool{}
		for _, s := range append(steps, res.Steps) {
			if shown[s] {
				continue
			}
			shown[s] = true
			if f, ok := frames[s]; ok {
				fmt.Printf("--- step %d ---\n%s\n", s, f)
			}
		}
		return
	}

	if *shapeStr == "" {
		log.Fatal("need -shape or -evolve")
	}
	sh, err := partition.ParseShape(*shapeStr)
	if err != nil {
		log.Fatal(err)
	}
	g, err := partition.Build(sh, *n, ratio)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s, ratio %s, N=%d, VoC %d\n\n", sh, ratio, *n, g.VoC())
	if *pgmPath != "" {
		f, err := os.Create(*pgmPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := g.WritePGM(f); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s (%d×%d PGM)\n", *pgmPath, *n, *n)
		return
	}
	fmt.Println(g.RenderASCII(*boxes))
}
