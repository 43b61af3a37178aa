// Command study runs the paper's full pipeline for one ratio: the Push
// census (Postulate 1 check), the Section VIII reduction of the best
// terminal state, and the Section X candidate comparison.
//
// Usage:
//
//	study -ratio 5:2:1 [-n 100] [-runs 50] [-topology star]
//	      [-journal study.jsonl] [-resume]
//
// -topology takes the topology spec grammar ("full" or "fully-connected",
// "star", "2+1[:f]", "3-island[:f]", "links:PR=…,PS=…,RS=…"); an unknown
// spec exits 2. The run exits 1 when the census finds a counterexample to
// Postulate 1 or a phase fails.
//
// SIGINT/SIGTERM interrupts the pipeline cleanly (non-zero exit). With
// -journal the census phase checkpoints every completed DFA run, and
// -resume replays the journal so a restarted study repeats no work.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/partition"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main's testable core: it parses args, runs one study, writes
// its report to stdout and returns the process exit code. Failures print
// a single diagnostic line to stderr.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("study", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		ratioStr = fs.String("ratio", "5:2:1", "processor speed ratio Pr:Rr:Sr")
		n        = fs.Int("n", 100, "matrix dimension")
		runs     = fs.Int("runs", 30, "DFA runs")
		seed     = fs.Int64("seed", 1, "base seed")
		topoStr  = fs.String("topology", "full", "network topology: full, star, 2+1[:f], 3-island[:f], or links:PR=…,PS=…,RS=…")
		journal  = fs.String("journal", "", "checkpoint census runs to this JSONL file")
		resume   = fs.Bool("resume", false, "replay an existing -journal and finish the remaining runs")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintf(stderr, "study: %v\n", err)
		return code
	}
	topo := *topoStr
	if topo == "full" {
		topo = model.FullyConnected.String()
	}
	spec, err := model.ParseTopologySpec(topo)
	if err != nil {
		return fail(2, err)
	}
	ratio, err := partition.ParseRatio(*ratioStr)
	if err != nil {
		return fail(1, err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	st, err := core.RunContext(ctx, core.StudyConfig{
		N:        *n,
		Ratio:    ratio,
		Runs:     *runs,
		Seed:     *seed,
		Topology: spec,
		Journal:  *journal,
		Resume:   *resume,
	})
	if err != nil {
		return fail(1, err)
	}
	if err := st.Write(stdout); err != nil {
		return fail(1, err)
	}
	if st.Counterexamples > 0 {
		return 1
	}
	return 0
}
