package experiment

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/exec"
	"repro/internal/matrix"
	"repro/internal/model"
	"repro/internal/partition"
	"repro/internal/sim"
)

// RecoveryRow reports one fault scenario of the recovery study: a worker
// killed at a progress fraction mid-multiply, the run completing on the
// survivors via the engine's 3→2 re-plan.
type RecoveryRow struct {
	Algorithm string  `json:"algorithm"`
	Victim    string  `json:"victim"`
	KillFrac  float64 `json:"kill_frac"`
	// BitExact records whether the recovered product matched the serial
	// kij kernel bit for bit.
	BitExact bool `json:"bit_exact"`
	// Survivors is how many workers finished the run; Kind is the
	// recovery re-plan kind ("replan-2proc" for a single loss).
	Survivors int    `json:"survivors"`
	Kind      string `json:"kind"`
	// CleanVolume is the planned exchange volume (= the partition's VoC);
	// RecoveryVolume is the extra elements redistributed to survivors;
	// RemainderNeed is what a from-scratch redistribution of the
	// re-planned remainder would move. The acceptance bound is
	// RecoveryVolume < 2×RemainderNeed.
	CleanVolume    int64 `json:"clean_volume"`
	RecoveryVolume int64 `json:"recovery_volume"`
	RemainderNeed  int64 `json:"remainder_need"`
	BoundOK        bool  `json:"bound_ok"`
	// Repeats is how many clean and how many faulted runs the row
	// summarises (recoveryRepeats). BitExact and BoundOK hold only if they
	// hold in every faulted run; the volumes, survivors and kind are the
	// first faulted run's.
	Repeats int `json:"repeats"`
	// CleanWallMS and FaultedWallMS are the medians of the real elapsed
	// milliseconds of the fault-free and faulted runs, the Q1/Q3 fields
	// their quartiles; WallPenalty is the ratio of the medians − 1.
	CleanWallMS     float64 `json:"clean_wall_ms"`
	CleanWallQ1MS   float64 `json:"clean_wall_q1_ms"`
	CleanWallQ3MS   float64 `json:"clean_wall_q3_ms"`
	FaultedWallMS   float64 `json:"faulted_wall_ms"`
	FaultedWallQ1MS float64 `json:"faulted_wall_q1_ms"`
	FaultedWallQ3MS float64 `json:"faulted_wall_q3_ms"`
	WallPenalty     float64 `json:"wall_penalty"`
	// RecoveryLatencyMS is the median stall between the victim's final
	// heartbeat and its work being re-planned onto the survivors.
	RecoveryLatencyMS float64 `json:"recovery_latency_ms"`
}

// recoveryRepeats is how many times the recovery study runs each clean
// and each faulted scenario: single runs of a few milliseconds read the
// host's load more than the engine.
const recoveryRepeats = 5

// RecoveryStudyConfig parameterises RecoveryStudy. The zero value is
// completed with the defaults documented per field.
type RecoveryStudyConfig struct {
	// N is the matrix dimension (default 64).
	N int
	// Ratio is the processor speed ratio (default 3:2:1).
	Ratio partition.Ratio
	// Shape is the candidate partition shape; it is honoured only when
	// ShapeSet is true, because Square-Corner is the Shape zero value.
	// Unset, the study uses Block-Rectangle, which is feasible at every
	// ratio and size.
	Shape    partition.Shape
	ShapeSet bool
	// Victim is the worker to kill (default R, the middle processor).
	Victim partition.Proc
	// KillFracs are the progress fractions at which the victim dies
	// (default 0.1, 0.5, 0.9).
	KillFracs []float64
	// Algorithms are the algorithms to study (default all five,
	// model.AllAlgorithms).
	Algorithms []model.Algorithm
	// Seed seeds the input matrices (default 1).
	Seed int64
}

func (c *RecoveryStudyConfig) fill() error {
	if c.N == 0 {
		c.N = 64
	}
	if c.N < 16 {
		return &ConfigError{Field: "n", Reason: fmt.Sprintf("recovery study needs n ≥ 16, got %d", c.N)}
	}
	if c.Ratio == (partition.Ratio{}) {
		c.Ratio = partition.MustRatio(3, 2, 1)
	}
	if err := c.Ratio.Validate(); err != nil {
		return &ConfigError{Field: "ratio", Reason: err.Error()}
	}
	if !c.ShapeSet {
		c.Shape = partition.BlockRectangle
	}
	if len(c.KillFracs) == 0 {
		c.KillFracs = []float64{0.1, 0.5, 0.9}
	}
	if len(c.Algorithms) == 0 {
		c.Algorithms = model.AllAlgorithms[:]
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return nil
}

// RecoveryStudy measures the execution engine's fault-recovery overhead:
// for each (algorithm, kill fraction) it runs the multiplication
// recoveryRepeats times clean and recoveryRepeats times with the victim
// killed mid-run, and reports the redistribution volume, the wall-clock
// times with their quartiles and the recovery latency, with every
// faulted product checked bit-exact against the serial kij kernel. It is
// the §X-B experiment under induced node loss.
func RecoveryStudy(ctx context.Context, cfg RecoveryStudyConfig) ([]RecoveryRow, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	g, err := partition.Build(cfg.Shape, cfg.N, cfg.Ratio)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	a := matrix.New(cfg.N)
	b := matrix.New(cfg.N)
	a.FillRandom(rng)
	b.FillRandom(rng)
	want := matrix.New(cfg.N)
	matrix.MulKIJ(want, a, b)

	base := exec.Config{
		Machine:        model.DefaultMachine(cfg.Ratio),
		BlockSize:      8,
		HeartbeatEvery: time.Millisecond,
		LeaseTimeout:   20 * time.Millisecond,
	}
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }
	var rows []RecoveryRow
	for _, alg := range cfg.Algorithms {
		cleanCfg := base
		cleanCfg.Algorithm = alg
		var clean *exec.Stats
		var cleanWall []float64
		for range recoveryRepeats {
			var err error
			if _, clean, err = exec.MultiplyContext(ctx, cleanCfg, g, a, b); err != nil {
				return nil, fmt.Errorf("experiment: recovery study clean run (%v): %w", alg, err)
			}
			cleanWall = append(cleanWall, ms(clean.Wall))
		}
		for _, frac := range cfg.KillFracs {
			fp := sim.NewFaultPlan()
			if err := fp.AddWorkerKill(cfg.Victim, frac); err != nil {
				return nil, err
			}
			fcfg := base
			fcfg.Algorithm = alg
			fcfg.Faults = fp
			row := RecoveryRow{
				Algorithm:   alg.String(),
				Victim:      cfg.Victim.String(),
				KillFrac:    frac,
				BitExact:    true,
				BoundOK:     true,
				CleanVolume: clean.TotalVolume,
				Repeats:     recoveryRepeats,
			}
			var wall, latency []float64
			for rep := range recoveryRepeats {
				c, stats, err := exec.MultiplyContext(ctx, fcfg, g, a, b)
				if err != nil {
					return nil, fmt.Errorf("experiment: recovery study kill %v@%g (%v): %w", cfg.Victim, frac, alg, err)
				}
				if rep == 0 {
					row.Survivors = stats.Survivors()
					if len(stats.RecoveryKinds) > 0 {
						row.Kind = stats.RecoveryKinds[0]
					}
					row.RecoveryVolume = stats.RecoveryVolume
					row.RemainderNeed = stats.RemainderNeed
				}
				row.BitExact = row.BitExact && c.Equal(want)
				row.BoundOK = row.BoundOK && stats.RecoveryVolume < 2*stats.RemainderNeed
				wall = append(wall, ms(stats.Wall))
				latency = append(latency, ms(stats.RecoveryLatency))
			}
			row.CleanWallMS, row.CleanWallQ1MS, row.CleanWallQ3MS = quantile(cleanWall, 0.5), quantile(cleanWall, 0.25), quantile(cleanWall, 0.75)
			row.FaultedWallMS, row.FaultedWallQ1MS, row.FaultedWallQ3MS = quantile(wall, 0.5), quantile(wall, 0.25), quantile(wall, 0.75)
			row.RecoveryLatencyMS = quantile(latency, 0.5)
			if row.CleanWallMS > 0 {
				row.WallPenalty = row.FaultedWallMS/row.CleanWallMS - 1
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// WriteRecoveryTable renders the study as a markdown table; the wall
// columns read median [Q1–Q3] over the row's repeats.
func WriteRecoveryTable(w io.Writer, rows []RecoveryRow) error {
	if _, err := fmt.Fprintln(w, "| alg | kill | survivors | re-plan | recovery vol / need | bound | latency (ms) | clean wall (ms) | faulted wall (ms) | wall penalty | bit-exact |"); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|---|---|---|"); err != nil {
		return err
	}
	for _, r := range rows {
		bound, exact := "<2x", "yes"
		if !r.BoundOK {
			bound = "VIOLATED"
		}
		if !r.BitExact {
			exact = "NO"
		}
		if _, err := fmt.Fprintf(w, "| %s | %s@%.0f%% | %d | %s | %d / %d | %s | %.1f | %.1f [%.1f–%.1f] | %.1f [%.1f–%.1f] | %+.0f%% | %s |\n",
			r.Algorithm, r.Victim, 100*r.KillFrac, r.Survivors, r.Kind,
			r.RecoveryVolume, r.RemainderNeed, bound, r.RecoveryLatencyMS,
			r.CleanWallMS, r.CleanWallQ1MS, r.CleanWallQ3MS,
			r.FaultedWallMS, r.FaultedWallQ1MS, r.FaultedWallQ3MS,
			100*r.WallPenalty, exact); err != nil {
			return err
		}
	}
	return nil
}
