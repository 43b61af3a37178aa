package experiment

import (
	"context"
	"fmt"
	"io"
	"math"

	"repro/internal/model"
	"repro/internal/partition"
	"repro/internal/sim"
)

// FaultRow reports one candidate shape's simulated execution time on a
// clean platform and under a fault plan — the robustness counterpart of
// the Section X optimal-shape comparison. The paper's clean model picks
// a winner assuming speeds and links hold; this study asks which shapes
// keep their advantage when a processor straggles or a link degrades.
type FaultRow struct {
	Shape    partition.Shape
	Feasible bool
	// Clean and Faulted are simulated TExe seconds.
	Clean, Faulted float64
	// Degradation is Faulted/Clean − 1 (0 = unaffected).
	Degradation float64
}

// FaultStudy simulates the six candidate shapes of model.Compare for
// (algorithm, ratio, topology spec) twice — once clean, once under the
// fault plan returned by plan — and reports each shape's degradation.
// plan receives the horizon (the largest clean makespan across feasible
// shapes) so fault windows can be phrased relative to the study's own
// time scale.
func FaultStudy(ctx context.Context, a model.Algorithm, spec model.TopologySpec, n int, ratio partition.Ratio, plan func(horizon float64) (*sim.FaultPlan, error)) ([]FaultRow, error) {
	if n < 10 {
		return nil, &ConfigError{Field: "n", Reason: fmt.Sprintf("fault study needs n ≥ 10, got %d", n)}
	}
	if err := ratio.Validate(); err != nil {
		return nil, &ConfigError{Field: "ratio", Reason: err.Error()}
	}
	if plan == nil {
		return nil, &ConfigError{Field: "plan", Reason: "fault-plan factory must be non-nil"}
	}
	m := spec.Apply(model.DefaultMachine(ratio))
	cands, _, err := model.Compare(a, m, n)
	if err != nil {
		return nil, err
	}

	// Pass 1: clean baselines and the horizon.
	rows := make([]FaultRow, len(cands))
	horizon := 0.0
	for i, c := range cands {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("experiment: fault study interrupted: %w", err)
		}
		rows[i] = FaultRow{Shape: c.Shape, Feasible: c.Feasible}
		if !c.Feasible {
			continue
		}
		res, err := sim.Simulate(a, m, c.Grid)
		if err != nil {
			return nil, err
		}
		rows[i].Clean = res.TExe
		horizon = math.Max(horizon, res.TExe)
	}

	fp, err := plan(horizon)
	if err != nil {
		return nil, err
	}

	// Pass 2: the same grids under the plan.
	for i, c := range cands {
		if !c.Feasible {
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("experiment: fault study interrupted: %w", err)
		}
		res, err := sim.SimulateFaults(a, m, c.Grid, fp)
		if err != nil {
			return nil, err
		}
		rows[i].Faulted = res.TExe
		if rows[i].Clean > 0 {
			rows[i].Degradation = rows[i].Faulted/rows[i].Clean - 1
		}
	}
	return rows, nil
}

// CanonicalFaultPlan is the default fault scenario of the study: the
// fastest processor P straggles at half speed for the whole run, R's
// link carries a quarter of its bandwidth during the middle half of the
// clean horizon (a flapping link), and S suffers a latency spike worth
// 2% of the horizon early in the run.
func CanonicalFaultPlan(horizon float64) (*sim.FaultPlan, error) {
	if horizon <= 0 {
		// Degenerate studies (no feasible shape, zero makespan) get a
		// plan that can never fire.
		horizon = 1
	}
	fp := sim.NewFaultPlan()
	if err := fp.AddStraggler(partition.P, 2, 0, math.Inf(1)); err != nil {
		return nil, err
	}
	if err := fp.AddLinkDegrade(partition.R, 4, 0.25*horizon, 0.75*horizon); err != nil {
		return nil, err
	}
	if err := fp.AddLatencySpike(partition.S, 0.02*horizon, 0, 0.5*horizon); err != nil {
		return nil, err
	}
	return fp, nil
}

// FaultWinners returns the best feasible shape by clean and by faulted
// simulated time — a changed winner is the study's headline finding.
func FaultWinners(rows []FaultRow) (clean, faulted partition.Shape) {
	bestClean, bestFaulted := math.Inf(1), math.Inf(1)
	for _, r := range rows {
		if !r.Feasible {
			continue
		}
		if r.Clean < bestClean {
			bestClean, clean = r.Clean, r.Shape
		}
		if r.Faulted < bestFaulted {
			bestFaulted, faulted = r.Faulted, r.Shape
		}
	}
	return clean, faulted
}

// WriteFaultTable renders the study as a markdown table.
func WriteFaultTable(w io.Writer, rows []FaultRow) error {
	if _, err := fmt.Fprintln(w, "| shape | clean (s) | faulted (s) | degradation |"); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "|---|---|---|---|"); err != nil {
		return err
	}
	for _, r := range rows {
		if !r.Feasible {
			if _, err := fmt.Fprintf(w, "| %s | infeasible | - | - |\n", r.Shape); err != nil {
				return err
			}
			continue
		}
		if _, err := fmt.Fprintf(w, "| %s | %.6f | %.6f | %+.1f%% |\n",
			r.Shape, r.Clean, r.Faulted, 100*r.Degradation); err != nil {
			return err
		}
	}
	clean, faulted := FaultWinners(rows)
	if _, err := fmt.Fprintf(w, "\nwinner clean: %s; winner under faults: %s\n", clean, faulted); err != nil {
		return err
	}
	return nil
}
