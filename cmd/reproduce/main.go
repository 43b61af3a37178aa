// Command reproduce runs the complete reproduction suite in one shot and
// writes a markdown report: the §VII census, the Fig 13/14 comparisons,
// the §X optimal-shape tables, the engine ablation, the latency sweep,
// the optimal-shape phase diagram and the fault-injection study. It is
// the non-benchmark twin of `go test -bench=.` for generating
// EXPERIMENTS.md-style reports.
//
// Usage:
//
//	reproduce [-n 80] [-runs 20] [-seed 1] > report.md
//
// A failing section is reported inside the markdown and the remaining
// sections still run; the command exits non-zero if any section failed.
// SIGINT/SIGTERM stops the current section, flushes what was generated,
// and skips the rest (also a non-zero exit).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/experiment"
	"repro/internal/model"
	"repro/internal/partition"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("reproduce: ")
	var (
		n    = flag.Int("n", 80, "matrix dimension for grid-based studies")
		runs = flag.Int("runs", 20, "DFA runs per ratio in the census")
		seed = flag.Int64("seed", 1, "base seed")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if err := report(ctx, os.Stdout, *n, *runs, *seed); err != nil {
		log.Fatal(err)
	}
}

// section is one report chapter: its body writes markdown to w and may
// fail without sinking the whole report.
type section struct {
	title string
	body  func(ctx context.Context, w io.Writer) error
}

// report runs every section, embedding failures in the markdown, and
// returns an error if any section failed or the run was interrupted.
func report(ctx context.Context, out io.Writer, n, runs int, seed int64) error {
	start := time.Now()
	fmt.Fprintf(out, "# Reproduction report (N=%d, %d runs/ratio, seed %d)\n\n", n, runs, seed)

	sections := []section{
		{"§VII archetype census (Postulate 1)", func(ctx context.Context, w io.Writer) error {
			census, err := experiment.CensusContext(ctx, experiment.CensusConfig{
				N: n, RunsPerRatio: runs, Seed: seed, Beautify: true,
			})
			// A quarantine means the census still completed around the
			// failed runs: print the table, then surface the error.
			var qe *experiment.QuarantineError
			if err != nil && !errors.As(err, &qe) {
				return err
			}
			if werr := experiment.WriteCensusTable(w, census); werr != nil {
				return werr
			}
			fmt.Fprintf(w, "\ncounterexamples: %d\n", experiment.CensusCounterexamples(census))
			return err
		}},
		{fmt.Sprintf("Fig 14 sweep (SCB, fully connected, N=5000 model / N=%d sim)", n), func(ctx context.Context, w io.Writer) error {
			fig14, err := experiment.Fig14SweepContext(ctx, nil, 5000, n)
			if err != nil {
				return err
			}
			if err := experiment.WriteFig14Table(w, fig14); err != nil {
				return err
			}
			fmt.Fprintf(w, "\ncrossover: x = %.0f (theory ≈ 9.7)\n", experiment.Crossover(fig14))
			return nil
		}},
		{"§X optimal shape per ratio × algorithm", func(ctx context.Context, w io.Writer) error {
			fmt.Fprintf(w, "### fully connected\n\n")
			full, err := experiment.OptimalShapes(ctx, n, nil, model.TopologySpec{})
			if err != nil {
				return err
			}
			if err := experiment.WriteOptimalTable(w, full); err != nil {
				return err
			}
			fmt.Fprintf(w, "\n### star topology\n\n")
			spec, err := model.ParseTopologySpec("star")
			if err != nil {
				return err
			}
			star, err := experiment.OptimalShapes(ctx, n, nil, spec)
			if err != nil {
				return err
			}
			return experiment.WriteOptimalTable(w, star)
		}},
		{"Optimal-shape phase diagram (SCB)", func(ctx context.Context, w io.Writer) error {
			var full model.TopologySpec
			wm, err := experiment.ComputeWinnerMap(ctx, model.SCB, full.String(), full, 6, 20, 1, n)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "```\n")
			if err := wm.Write(w); err != nil {
				return err
			}
			fmt.Fprintf(w, "```\n")
			return nil
		}},
		{"Push-engine ablation (3:1:1)", func(ctx context.Context, w io.Writer) error {
			abl, err := experiment.PushAblationContext(ctx, n, partition.MustRatio(3, 1, 1), min(runs, 8), seed)
			if err != nil {
				return err
			}
			return experiment.WriteAblationTable(w, abl)
		}},
		{"Latency sensitivity (Block-Rectangle, 5:2:1)", func(ctx context.Context, w io.Writer) error {
			lat, err := experiment.LatencySweep(nil, partition.MustRatio(5, 2, 1), n)
			if err != nil {
				return err
			}
			return experiment.WriteLatencyTable(w, lat)
		}},
		{"Fault-injection study (SCB, 5:2:1, canonical plan)", func(ctx context.Context, w io.Writer) error {
			rows, err := experiment.FaultStudy(ctx, model.SCB, model.TopologySpec{}, n,
				partition.MustRatio(5, 2, 1), experiment.CanonicalFaultPlan)
			if err != nil {
				return err
			}
			return experiment.WriteFaultTable(w, rows)
		}},
		{"Execution recovery study (worker R killed mid-multiply)", func(ctx context.Context, w io.Writer) error {
			rows, err := experiment.RecoveryStudy(ctx, experiment.RecoveryStudyConfig{})
			if err != nil {
				return err
			}
			return experiment.WriteRecoveryTable(w, rows)
		}},
	}

	var failed []string
	for _, s := range sections {
		if err := ctx.Err(); err != nil {
			fmt.Fprintf(out, "## %s\n\n**skipped: %v**\n\n", s.title, err)
			failed = append(failed, s.title)
			continue
		}
		fmt.Fprintf(out, "## %s\n\n", s.title)
		if err := s.body(ctx, out); err != nil {
			fmt.Fprintf(out, "\n**section failed: %v**\n", err)
			failed = append(failed, s.title)
			log.Printf("section %q: %v", s.title, err)
		}
		fmt.Fprintf(out, "\n")
	}

	fmt.Fprintf(out, "_generated in %v_\n", time.Since(start).Round(time.Millisecond))
	if len(failed) > 0 {
		return fmt.Errorf("%d of %d sections failed: %v", len(failed), len(sections), failed)
	}
	return nil
}
