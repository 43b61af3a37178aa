package experiment

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/partition"
)

func TestFaultStudyValidationTyped(t *testing.T) {
	ratio := partition.MustRatio(5, 2, 1)
	var ce *ConfigError
	ctx := context.Background()
	if _, err := FaultStudy(ctx, model.SCB, model.TopologySpec{}, 5, ratio, CanonicalFaultPlan); !errors.As(err, &ce) {
		t.Fatalf("n=5: err = %v, want *ConfigError", err)
	}
	if _, err := FaultStudy(ctx, model.SCB, model.TopologySpec{}, 64, partition.Ratio{}, CanonicalFaultPlan); !errors.As(err, &ce) {
		t.Fatalf("zero ratio: err = %v, want *ConfigError", err)
	}
	if _, err := FaultStudy(ctx, model.SCB, model.TopologySpec{}, 64, ratio, nil); !errors.As(err, &ce) {
		t.Fatalf("nil plan: err = %v, want *ConfigError", err)
	}
}

func TestFaultStudyCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := FaultStudy(ctx, model.SCB, model.TopologySpec{}, 64, partition.MustRatio(5, 2, 1), CanonicalFaultPlan)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestFaultStudyDegradationAndDeterminism(t *testing.T) {
	ratio := partition.MustRatio(5, 2, 1)
	rows, err := FaultStudy(context.Background(), model.SCB, model.TopologySpec{}, 64, ratio, CanonicalFaultPlan)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(partition.AllShapes) {
		t.Fatalf("got %d rows, want %d", len(rows), len(partition.AllShapes))
	}
	feasible := 0
	for _, r := range rows {
		if !r.Feasible {
			continue
		}
		feasible++
		if r.Clean <= 0 || r.Faulted <= 0 {
			t.Errorf("%s: non-positive times %+v", r.Shape, r)
		}
		// The canonical plan only slows the platform, so no shape can
		// finish faster than its clean run.
		if r.Degradation < -1e-12 {
			t.Errorf("%s: negative degradation %v", r.Shape, r.Degradation)
		}
	}
	if feasible == 0 {
		t.Fatal("no feasible shapes in the study")
	}
	again, err := FaultStudy(context.Background(), model.SCB, model.TopologySpec{}, 64, ratio, CanonicalFaultPlan)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, rows) {
		t.Fatalf("fault study is not deterministic:\n got %+v\nwant %+v", again, rows)
	}

	clean, faulted := FaultWinners(rows)
	var sb strings.Builder
	if err := WriteFaultTable(&sb, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), clean.String()) || !strings.Contains(sb.String(), faulted.String()) {
		t.Fatalf("table misses winners:\n%s", sb.String())
	}
}

func TestCanonicalFaultPlanDegenerateHorizon(t *testing.T) {
	for _, h := range []float64{0, -1, math.Inf(-1)} {
		if _, err := CanonicalFaultPlan(h); err != nil {
			t.Fatalf("horizon %v: %v", h, err)
		}
	}
}

func TestFaultStudyStarTopology(t *testing.T) {
	rows, err := FaultStudy(context.Background(), model.PIO, mustSpec(t, "star"), 64, partition.MustRatio(3, 2, 1), CanonicalFaultPlan)
	if err != nil {
		t.Fatal(err)
	}
	any := false
	for _, r := range rows {
		if r.Feasible && r.Faulted > r.Clean {
			any = true
		}
	}
	if !any {
		t.Fatal("canonical plan degraded no shape on the star topology")
	}
}
