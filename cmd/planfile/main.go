// Command planfile creates, inspects and executes partition plans — the
// serialisable artefact a downstream runtime would consume.
//
// Modes:
//
//	planfile -create -ratio 10:1:1 -alg SCB -n 500 -o plan.json
//	planfile -show plan.json
//	planfile -exec plan.json [-seed 1]      run the plan on goroutine processors
//
// A truncated, corrupt, or internally inconsistent plan file (fields out
// of range, grid/VoC mismatch, tampered processor shares) is rejected
// with a one-line diagnostic naming the offending field, and the process
// exits non-zero — it is never silently executed.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	heteropart "repro"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main's testable core: parses args, performs one mode, and
// returns the process exit code. Failures print a single diagnostic line
// to stderr.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("planfile", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		create   = fs.Bool("create", false, "create a plan")
		show     = fs.String("show", "", "print a plan file")
		execPath = fs.String("exec", "", "execute a plan file")
		ratioStr = fs.String("ratio", "5:2:1", "create: processor ratio")
		algStr   = fs.String("alg", "SCB", "create: MMM algorithm")
		n        = fs.Int("n", 200, "create: matrix dimension")
		out      = fs.String("o", "", "create: output path (default stdout)")
		topoStr  = fs.String("topology", "fully-connected", "create: network topology (fully-connected, star, 2+1[:f], 3-island[:f], links:…)")
		seed     = fs.Int64("seed", 1, "exec: matrix seed")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "planfile: %v\n", err)
		return 1
	}

	switch {
	case *create:
		ratio, err := heteropart.ParseRatio(*ratioStr)
		if err != nil {
			return fail(err)
		}
		alg, err := heteropart.ParseAlgorithm(*algStr)
		if err != nil {
			return fail(err)
		}
		spec, err := heteropart.ParseTopologySpec(*topoStr)
		if err != nil {
			return fail(err)
		}
		plan, err := heteropart.NewPlan(alg, spec.Apply(heteropart.DefaultMachine(ratio)), *n)
		if err != nil {
			return fail(err)
		}
		w := stdout
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				return fail(err)
			}
			defer f.Close()
			w = f
		}
		if err := plan.WriteJSON(w); err != nil {
			return fail(err)
		}
		if *out != "" {
			fmt.Fprintf(stdout, "wrote %s: %s for ratio %s (VoC %d, expected T_exe %.6fs)\n",
				*out, plan.Shape, plan.Ratio, plan.VoC, plan.Expected.Total)
		}
		return 0

	case *show != "":
		plan, err := readPlanFile(*show)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "plan: %s, ratio %s, N=%d, %s on %s topology\n",
			plan.Shape, plan.Ratio, plan.N, plan.Algorithm, plan.Topology)
		fmt.Fprintf(stdout, "VoC %d elements; expected T_comm=%.6fs T_exe=%.6fs\n",
			plan.VoC, plan.Expected.Comm, plan.Expected.Total)
		for _, pp := range plan.Procs {
			fmt.Fprintf(stdout, "  %s: speed %g, %d elements, sends %d, rect rows %d..%d cols %d..%d\n",
				pp.Processor, pp.Speed, pp.Elements, pp.SendElements,
				pp.Rect[0], pp.Rect[2]-1, pp.Rect[1], pp.Rect[3]-1)
		}
		g, err := plan.Partition()
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "\n%s", g.RenderASCII(32))
		return 0

	case *execPath != "":
		plan, err := readPlanFile(*execPath)
		if err != nil {
			return fail(err)
		}
		g, err := plan.Partition()
		if err != nil {
			return fail(err)
		}
		ratio, err := heteropart.ParseRatio(plan.Ratio)
		if err != nil {
			return fail(err)
		}
		alg, err := heteropart.ParseAlgorithm(plan.Algorithm)
		if err != nil {
			return fail(err)
		}
		rng := rand.New(rand.NewSource(*seed))
		a := heteropart.NewMatrix(plan.N)
		b := heteropart.NewMatrix(plan.N)
		a.FillRandom(rng)
		b.FillRandom(rng)
		_, stats, err := heteropart.Multiply(
			heteropart.ExecConfig{Machine: heteropart.DefaultMachine(ratio), Algorithm: alg}, g, a, b)
		if err != nil {
			return fail(err)
		}
		status := "volume matches plan"
		if stats.TotalVolume != plan.VoC {
			status = fmt.Sprintf("VOLUME MISMATCH: moved %d, planned %d", stats.TotalVolume, plan.VoC)
		}
		fmt.Fprintf(stdout, "executed %s: moved %d elements, wall %v — %s\n",
			plan.Shape, stats.TotalVolume, stats.Wall, status)
		return 0

	default:
		fs.Usage()
		return 2
	}
}

// readPlanFile loads and validates a plan, prefixing the diagnostic with
// the file path and, for validation failures, the offending field.
func readPlanFile(path string) (*heteropart.Plan, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	plan, err := heteropart.ReadPlan(f)
	if err != nil {
		var pe *heteropart.PlanError
		if errors.As(err, &pe) {
			return nil, fmt.Errorf("%s: corrupt plan (field %q): %s", path, pe.Field, pe.Reason)
		}
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return plan, nil
}
