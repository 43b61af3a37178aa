package experiment

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/exec"
	"repro/internal/matrix"
	"repro/internal/model"
	"repro/internal/partition"
	"repro/internal/sim"
)

// IntegrityRow reports one corruption scenario of the integrity study:
// a run under an injected silent-corruption fault plan with ABFT
// verification on, checked bit-exact against the serial kij kernel.
type IntegrityRow struct {
	Algorithm string `json:"algorithm"`
	// Faults is the worker fault spec ("none" for the clean baseline).
	Faults string `json:"faults"`
	// BitExact records whether the verified product matched the serial
	// kij kernel bit for bit — the study's primary acceptance criterion.
	BitExact bool `json:"bit_exact"`
	// Injected is ground truth from the fault plan: delivered results
	// the sim corruption fates actually corrupted. Corrected counts
	// single-cell errors fixed in place, Recomputed counts blocks
	// discarded at verification and re-leased, Rejected counts results
	// refused from quarantined workers.
	Injected   int `json:"injected"`
	Corrected  int `json:"corrected"`
	Recomputed int `json:"recomputed"`
	Rejected   int `json:"rejected"`
	// DetectionRate is (corrected+recomputed+rejected)/injected, capped
	// at 1 (a discarded block can cover several injected corruptions);
	// nil (JSON null) when nothing was injected, because then there was
	// nothing to detect.
	DetectionRate *float64 `json:"detection_rate"`
	// Checks counts C tiles ABFT-verified during the run.
	Checks int `json:"integrity_checks"`
	// Byzantine lists workers quarantined for exceeding the mismatch
	// budget; ReplanKind is the re-plan triggered by the quarantine
	// ("replan-2proc"), empty when nobody was quarantined.
	Byzantine  []string `json:"byzantine,omitempty"`
	ReplanKind string   `json:"replan_kind,omitempty"`
	Survivors  int      `json:"survivors"`
	WallMS     float64  `json:"wall_ms"`
}

// IntegrityOverhead reports the cost of ABFT verification on a clean
// run, at a production-ish block size where the O(tile) checksum work
// amortises. Each of Pairs pairs runs Verify off and on back to back,
// alternating which runs first, so a drift of the machine's speed
// touches both sides of a pair alike.
type IntegrityOverhead struct {
	N         int `json:"n"`
	BlockSize int `json:"block_size"`
	Pairs     int `json:"pairs"`
	// BaseWallMS and VerifiedWallMS are the median walls with Verify
	// off and on.
	BaseWallMS     float64 `json:"base_wall_ms"`
	VerifiedWallMS float64 `json:"verified_wall_ms"`
	// OverheadPct is the median over pairs of verified/base − 1, in
	// percent, and OverheadQ1Pct and OverheadQ3Pct are its quartiles.
	OverheadPct   float64 `json:"overhead_pct"`
	OverheadQ1Pct float64 `json:"overhead_q1_pct"`
	OverheadQ3Pct float64 `json:"overhead_q3_pct"`
}

// IntegrityStudyResult bundles the corruption rows with the clean-run
// overhead measurement.
type IntegrityStudyResult struct {
	Rows     []IntegrityRow    `json:"rows"`
	Overhead IntegrityOverhead `json:"overhead"`
}

// IntegrityStudyConfig parameterises IntegrityStudy. The zero value is
// completed with the defaults documented per field.
type IntegrityStudyConfig struct {
	// N is the matrix dimension of the corruption rows (default 96).
	N int
	// BlockSize is the tile edge of the corruption rows (default 16).
	BlockSize int
	// Ratio is the processor speed ratio (default 3:2:1).
	Ratio partition.Ratio
	// Shape is the candidate partition shape; honoured only when
	// ShapeSet is true (Square-Corner is the Shape zero value). Unset,
	// the study uses Block-Rectangle, feasible at every ratio and size.
	Shape    partition.Shape
	ShapeSet bool
	// Algorithms are the barrier algorithms to study (default SCB, PCB).
	Algorithms []model.Algorithm
	// FaultSpecs are the sim.ParseWorkerFaults specs to drill, with
	// "none" meaning a fault-free run. Default: none, single-cell flips
	// on R at 10% and 20% of its blocks, a deterministic ×8 scaling of
	// every S result (the Byzantine-quarantine case), and a combined
	// flip+scale drill. A worker's flips follow a fixed per-worker seed,
	// so at the default size each flip row injects at least once.
	FaultSpecs []string
	// OverheadN, OverheadBlockSize and OverheadPairs parameterise the
	// clean-run overhead measurement (defaults 256, 64, 20).
	OverheadN         int
	OverheadBlockSize int
	OverheadPairs     int
	// Seed seeds the input matrices (default 1).
	Seed int64
}

func (c *IntegrityStudyConfig) fill() error {
	if c.N == 0 {
		c.N = 96
	}
	if c.N < 16 {
		return &ConfigError{Field: "n", Reason: fmt.Sprintf("integrity study needs n ≥ 16, got %d", c.N)}
	}
	if c.BlockSize == 0 {
		c.BlockSize = 16
	}
	if c.BlockSize < 2 {
		return &ConfigError{Field: "block", Reason: fmt.Sprintf("integrity study needs block size ≥ 2, got %d", c.BlockSize)}
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
	if len(c.Algorithms) == 0 {
		c.Algorithms = []model.Algorithm{model.SCB, model.PCB}
	}
	if len(c.FaultSpecs) == 0 {
		c.FaultSpecs = []string{
			"none",
			"flip:R@0.1",
			"flip:R@0.2",
			"scale:S@8",
			"flip:P@0.1,scale:S@8",
		}
	}
	if c.OverheadN == 0 {
		c.OverheadN = 256
	}
	if c.OverheadBlockSize == 0 {
		c.OverheadBlockSize = 64
	}
	if c.OverheadPairs == 0 {
		c.OverheadPairs = 20
	}
	if c.OverheadPairs < 1 {
		return &ConfigError{Field: "overhead-pairs", Reason: fmt.Sprintf("integrity study needs at least 1 overhead pair, got %d", c.OverheadPairs)}
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return nil
}

// IntegrityStudy is the silent-corruption chaos drill: for each
// (algorithm, fault spec) it runs the multiplication with ABFT
// verification on and the spec's corruption fates injected, and reports
// what the checksums caught — corrections, block recomputations,
// Byzantine quarantines — with every product checked bit-exact against
// the serial kij kernel. A separate clean-run pass measures the
// verification overhead at a production block size.
func IntegrityStudy(ctx context.Context, cfg IntegrityStudyConfig) (*IntegrityStudyResult, error) {
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
		BlockSize:      cfg.BlockSize,
		HeartbeatEvery: time.Millisecond,
		LeaseTimeout:   20 * time.Millisecond,
		Verify:         true,
	}
	res := &IntegrityStudyResult{}
	for _, alg := range cfg.Algorithms {
		for _, spec := range cfg.FaultSpecs {
			fcfg := base
			fcfg.Algorithm = alg
			if spec != "" && spec != "none" {
				fp, err := sim.ParseWorkerFaults(spec)
				if err != nil {
					return nil, &ConfigError{Field: "faults", Reason: err.Error()}
				}
				fcfg.Faults = fp
			}
			c, stats, err := exec.MultiplyContext(ctx, fcfg, g, a, b)
			if err != nil {
				return nil, fmt.Errorf("experiment: integrity study %q (%v): %w", spec, alg, err)
			}
			row := IntegrityRow{
				Algorithm:  alg.String(),
				Faults:     spec,
				BitExact:   c.Equal(want),
				Injected:   stats.InjectedCorruptions,
				Corrected:  stats.CorruptionsCorrected,
				Recomputed: stats.BlocksRecomputed,
				Rejected:   stats.ByzantineRejected,
				Checks:     stats.IntegrityChecks,
				Survivors:  stats.Survivors(),
				WallMS:     float64(stats.Wall.Microseconds()) / 1e3,
			}
			if row.Injected > 0 {
				rate := min(float64(row.Corrected+row.Recomputed+row.Rejected)/float64(row.Injected), 1)
				row.DetectionRate = &rate
			}
			for _, p := range stats.Byzantine {
				row.Byzantine = append(row.Byzantine, p.String())
			}
			if len(stats.Byzantine) > 0 && len(stats.RecoveryKinds) > 0 {
				row.ReplanKind = stats.RecoveryKinds[0]
			}
			res.Rows = append(res.Rows, row)
		}
	}

	oh, err := measureOverhead(ctx, cfg)
	if err != nil {
		return nil, err
	}
	res.Overhead = *oh
	return res, nil
}

// measureOverhead times OverheadPairs pairs of clean runs with Verify
// off and on, alternating which side of a pair runs first.
func measureOverhead(ctx context.Context, cfg IntegrityStudyConfig) (*IntegrityOverhead, error) {
	g, err := partition.Build(cfg.Shape, cfg.OverheadN, cfg.Ratio)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	a := matrix.New(cfg.OverheadN)
	b := matrix.New(cfg.OverheadN)
	a.FillRandom(rng)
	b.FillRandom(rng)

	wall := func(verify bool) (float64, error) {
		c := exec.Config{
			Machine:   model.DefaultMachine(cfg.Ratio),
			Algorithm: model.SCB,
			BlockSize: cfg.OverheadBlockSize,
			Verify:    verify,
		}
		_, stats, err := exec.MultiplyContext(ctx, c, g, a, b)
		if err != nil {
			return 0, fmt.Errorf("experiment: integrity overhead (verify=%v): %w", verify, err)
		}
		return float64(stats.Wall.Microseconds()) / 1e3, nil
	}
	var base, verified, pct []float64
	for i := 0; i < cfg.OverheadPairs; i++ {
		var ms [2]float64 // Verify off, on
		for _, side := range [2]int{i % 2, 1 - i%2} {
			w, err := wall(side == 1)
			if err != nil {
				return nil, err
			}
			ms[side] = w
		}
		base = append(base, ms[0])
		verified = append(verified, ms[1])
		if ms[0] > 0 {
			pct = append(pct, (ms[1]/ms[0]-1)*100)
		}
	}
	return &IntegrityOverhead{
		N:              cfg.OverheadN,
		BlockSize:      cfg.OverheadBlockSize,
		Pairs:          cfg.OverheadPairs,
		BaseWallMS:     quantile(base, 0.5),
		VerifiedWallMS: quantile(verified, 0.5),
		OverheadPct:    quantile(pct, 0.5),
		OverheadQ1Pct:  quantile(pct, 0.25),
		OverheadQ3Pct:  quantile(pct, 0.75),
	}, nil
}

// quantile returns the q-quantile of xs, interpolating linearly between
// order statistics; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// WriteIntegrityTable renders the study as markdown: the corruption
// rows as a table, the overhead measurement as a trailing line.
func WriteIntegrityTable(w io.Writer, res *IntegrityStudyResult) error {
	if _, err := fmt.Fprintln(w, "| alg | faults | injected | corrected | recomputed | rejected | detection | byzantine | survivors | bit-exact |"); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|---|---|"); err != nil {
		return err
	}
	for _, r := range res.Rows {
		exact := "yes"
		if !r.BitExact {
			exact = "NO"
		}
		byz := "-"
		if len(r.Byzantine) > 0 {
			byz = strings.Join(r.Byzantine, ",")
			if r.ReplanKind != "" {
				byz += " (" + r.ReplanKind + ")"
			}
		}
		detection := "-"
		if r.DetectionRate != nil {
			detection = fmt.Sprintf("%.0f%%", 100**r.DetectionRate)
		}
		if _, err := fmt.Fprintf(w, "| %s | %s | %d | %d | %d | %d | %s | %s | %d | %s |\n",
			r.Algorithm, r.Faults, r.Injected, r.Corrected, r.Recomputed, r.Rejected,
			detection, byz, r.Survivors, exact); err != nil {
			return err
		}
	}
	oh := res.Overhead
	_, err := fmt.Fprintf(w, "\nABFT overhead at n=%d, block=%d (median of %d alternating pairs): %.1f ms → %.1f ms (%+.1f%%, quartiles %+.1f%% to %+.1f%%)\n",
		oh.N, oh.BlockSize, oh.Pairs, oh.BaseWallMS, oh.VerifiedWallMS, oh.OverheadPct, oh.OverheadQ1Pct, oh.OverheadQ3Pct)
	return err
}
