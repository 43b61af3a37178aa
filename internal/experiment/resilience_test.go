package experiment

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/model"
	"repro/internal/partition"
)

// censusTestConfig is a small census every resilience test shares: one
// ratio, few runs, tiny N, fixed worker count so schedules vary but
// results must not.
func censusTestConfig() CensusConfig {
	return CensusConfig{
		N:            16,
		RunsPerRatio: 8,
		Ratios:       []partition.Ratio{partition.MustRatio(3, 1, 1)},
		Seed:         42,
		Beautify:     true,
		Workers:      3,
		RetryBackoff: -1, // no sleeping in tests
	}
}

func TestCensusValidationTyped(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*CensusConfig)
	}{
		{"small N", func(c *CensusConfig) { c.N = 5 }},
		{"zero runs", func(c *CensusConfig) { c.RunsPerRatio = 0 }},
		{"negative runs", func(c *CensusConfig) { c.RunsPerRatio = -3 }},
		{"bad ratio", func(c *CensusConfig) { c.Ratios = []partition.Ratio{{}} }},
		{"resume without journal", func(c *CensusConfig) { c.Resume = true; c.Journal = "" }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := censusTestConfig()
			tc.mut(&cfg)
			_, err := Census(cfg)
			var ce *ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("err = %v, want *ConfigError", err)
			}
		})
	}
}

func TestPushAblationValidationTyped(t *testing.T) {
	var ce *ConfigError
	if _, err := PushAblation(20, partition.MustRatio(2, 1, 1), 0, 1); !errors.As(err, &ce) {
		t.Fatalf("runs=0: err = %v, want *ConfigError", err)
	}
	if _, err := PushAblation(20, partition.Ratio{}, 3, 1); !errors.As(err, &ce) {
		t.Fatalf("zero ratio: err = %v, want *ConfigError", err)
	}
}

func TestCensusCancelledReturnsPartial(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rows, err := CensusContext(ctx, censusTestConfig())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// At most the first ratio's (empty) partial row can come back.
	for _, r := range rows {
		if r.Completed != 0 {
			t.Fatalf("pre-cancelled census completed %d runs", r.Completed)
		}
	}
}

// TestCensusJournalResumeBitIdentical is the acceptance scenario: a
// journaled census interrupted mid-flight and resumed must reproduce the
// uninterrupted rows bit for bit, including the float means.
func TestCensusJournalResumeBitIdentical(t *testing.T) {
	baseline, err := Census(censusTestConfig())
	if err != nil {
		t.Fatal(err)
	}

	for _, chop := range []int{0, 7} {
		t.Run(fmt.Sprintf("chop=%d", chop), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "census.jsonl")

			// Interrupt the census after three runs have been dispatched:
			// the hook cancels the context, so in-flight runs abort and
			// only journaled completions survive.
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var calls atomic.Int64
			cfg := censusTestConfig()
			cfg.Journal = path
			cfg.runHook = func(_, _, _ int) {
				if calls.Add(1) == 4 {
					cancel()
				}
			}
			if _, err := CensusContext(ctx, cfg); !errors.Is(err, context.Canceled) {
				t.Fatalf("interrupted census: err = %v, want context.Canceled", err)
			}

			if chop > 0 {
				// Simulate a SIGKILL torn write: chop bytes off the tail.
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if len(data) > chop {
					if err := os.WriteFile(path, data[:len(data)-chop], 0o644); err != nil {
						t.Fatal(err)
					}
				}
			}

			resumed := censusTestConfig()
			resumed.Journal = path
			resumed.Resume = true
			rows, err := Census(resumed)
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			if !reflect.DeepEqual(rows, baseline) {
				t.Fatalf("resumed rows differ from uninterrupted census:\n got %+v\nwant %+v", rows, baseline)
			}
		})
	}
}

func TestCensusResumeRejectsMismatchedJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "census.jsonl")
	cfg := censusTestConfig()
	cfg.Journal = path
	if _, err := Census(cfg); err != nil {
		t.Fatal(err)
	}
	other := censusTestConfig()
	other.Journal = path
	other.Resume = true
	other.Seed++ // different study identity
	if _, err := Census(other); !errors.Is(err, ErrJournalMismatch) {
		t.Fatalf("err = %v, want ErrJournalMismatch", err)
	}
}

func TestCensusJournalRefusesOverwrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "census.jsonl")
	cfg := censusTestConfig()
	cfg.Journal = path
	if _, err := Census(cfg); err != nil {
		t.Fatal(err)
	}
	// Without Resume, an existing journal must not be clobbered.
	if _, err := Census(cfg); !errors.Is(err, os.ErrExist) {
		t.Fatalf("err = %v, want os.ErrExist", err)
	}
}

// TestCensusPanicRetrySucceeds injects a one-shot worker crash: the run
// panics on its first attempt, succeeds on the retry, and the census
// output is indistinguishable from a clean one.
func TestCensusPanicRetrySucceeds(t *testing.T) {
	baseline, err := Census(censusTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := censusTestConfig()
	cfg.runHook = func(ri, run, attempt int) {
		if ri == 0 && run == 2 && attempt == 0 {
			panic("injected transient crash")
		}
	}
	rows, err := Census(cfg)
	if err != nil {
		t.Fatalf("census with transient panic: %v", err)
	}
	if !reflect.DeepEqual(rows, baseline) {
		t.Fatalf("retried census differs from clean run:\n got %+v\nwant %+v", rows, baseline)
	}
}

// TestCensusPanicQuarantine injects a deterministic crash: every attempt
// of one run panics, the run is quarantined, and the census still
// completes with a typed aggregate error.
func TestCensusPanicQuarantine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "census.jsonl")
	cfg := censusTestConfig()
	cfg.Journal = path
	cfg.runHook = func(ri, run, attempt int) {
		if ri == 0 && run == 5 {
			panic("injected permanent crash")
		}
	}
	rows, err := Census(cfg)
	var qe *QuarantineError
	if !errors.As(err, &qe) {
		t.Fatalf("err = %v, want *QuarantineError", err)
	}
	if len(qe.Failures) != 1 {
		t.Fatalf("quarantined %d runs, want 1", len(qe.Failures))
	}
	f := qe.Failures[0]
	if f.RatioIndex != 0 || f.Run != 5 {
		t.Fatalf("quarantined (%d,%d), want (0,5)", f.RatioIndex, f.Run)
	}
	if f.Attempts != 2 { // default budget: 1 retry → 2 attempts
		t.Fatalf("Attempts = %d, want 2", f.Attempts)
	}
	if f.Seed != cfg.Seed+5 {
		t.Fatalf("Seed = %d, want %d", f.Seed, cfg.Seed+5)
	}
	if f.Err == "" || f.Err != "injected permanent crash" {
		t.Fatalf("Err = %q", f.Err)
	}

	if len(rows) != 1 {
		t.Fatalf("rows = %d, want 1 (census must survive the quarantine)", len(rows))
	}
	row := rows[0]
	if row.Failed != 1 {
		t.Fatalf("row.Failed = %d, want 1", row.Failed)
	}
	if row.Completed != cfg.RunsPerRatio {
		t.Fatalf("row.Completed = %d, want %d", row.Completed, cfg.RunsPerRatio)
	}
	total := 0
	for _, c := range row.Counts {
		total += c
	}
	if total != cfg.RunsPerRatio-1 {
		t.Fatalf("aggregated %d runs, want %d (quarantined run excluded)", total, cfg.RunsPerRatio-1)
	}

	// The quarantine is durable: a resume replays it from the journal
	// without re-running the crashing seed (no hook installed here).
	resumed := censusTestConfig()
	resumed.Journal = path
	resumed.Resume = true
	rows2, err := Census(resumed)
	if !errors.As(err, &qe) {
		t.Fatalf("resumed err = %v, want *QuarantineError", err)
	}
	if !reflect.DeepEqual(rows2, rows) {
		t.Fatalf("resumed rows differ:\n got %+v\nwant %+v", rows2, rows)
	}
}

func TestCensusRetryBudgetExhaustedOnlyAfterRetries(t *testing.T) {
	// MaxRetries=3 → 4 attempts; a run that stops panicking on its last
	// attempt must not be quarantined.
	cfg := censusTestConfig()
	cfg.MaxRetries = 3
	cfg.runHook = func(ri, run, attempt int) {
		if ri == 0 && run == 1 && attempt < 3 {
			panic("crashes thrice")
		}
	}
	rows, err := Census(cfg)
	if err != nil {
		t.Fatalf("err = %v, want success on the 4th attempt", err)
	}
	if rows[0].Failed != 0 {
		t.Fatalf("Failed = %d, want 0", rows[0].Failed)
	}
}

func TestFig14SweepContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Fig14SweepContext(ctx, nil, 1000, 40); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestOptimalShapesContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := OptimalShapes(ctx, 40, nil, model.TopologySpec{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
