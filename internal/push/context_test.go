package push

import (
	"context"
	"errors"
	"testing"

	"repro/internal/partition"
)

func TestRunContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunContext(ctx, Config{N: 60, Ratio: partition.MustRatio(3, 1, 1), Seed: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRunConfigValidationTyped(t *testing.T) {
	ratio := partition.MustRatio(3, 1, 1)
	for _, tc := range []struct {
		field string
		cfg   Config
	}{
		{"N", Config{N: 1, Ratio: ratio}},
		{"MaxSteps", Config{N: 20, Ratio: ratio, MaxSteps: -1}},
		{"Start", Config{N: 20, Ratio: ratio, Start: partition.NewGrid(19)}},
		{"Start", Config{N: 20, Ratio: ratio, Start: partition.NewGrid(64), Scratch: partition.NewGrid(20)}},
		{"Scratch", Config{N: 20, Ratio: ratio, Scratch: partition.NewGrid(21)}},
		{"Scratch", Config{N: 20, Ratio: ratio, Start: partition.NewGrid(20), Scratch: partition.NewGrid(64)}},
		{"Scratch", Config{N: 20, Start: partition.NewGridK(20, 4), Scratch: partition.NewGrid(20)}},
		{"Scratch", Config{N: 20, Ratio: ratio, Scratch: partition.NewGridK(20, 2)}},
		{"CostWeights", Config{N: 20, Start: partition.NewGridK(20, 4), CostWeights: &partition.Weights{{0, 1, 2}, {1, 0, 1}, {1, 1, 0}}}},
	} {
		var ce *ConfigError
		if _, err := Run(tc.cfg); !errors.As(err, &ce) {
			t.Errorf("bad %s: err = %v, want *ConfigError", tc.field, err)
		} else if ce.Field != tc.field {
			t.Errorf("bad %s: Field = %q", tc.field, ce.Field)
		}
	}
}

// TestRunContextMatchesRun pins that the context plumbing did not perturb
// the DFA: a background-context run equals the legacy entry point.
func TestRunContextMatchesRun(t *testing.T) {
	cfg := Config{N: 40, Ratio: partition.MustRatio(5, 2, 1), Seed: 9, Beautify: true}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Steps != b.Steps || a.FinalVoC != b.FinalVoC || a.InitialVoC != b.InitialVoC {
		t.Fatalf("Run and RunContext diverge: %+v vs %+v", a, b)
	}
}
