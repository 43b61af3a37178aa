package sim

import (
	"errors"
	"math"
	"testing"

	"repro/internal/model"
	"repro/internal/partition"
)

func TestFaultPlanValidationTyped(t *testing.T) {
	fp := NewFaultPlan()
	var ce *ConfigError
	cases := []struct {
		name string
		err  error
	}{
		{"zero factor", fp.AddStraggler(partition.P, 0, 0, 1)},
		{"negative factor", fp.AddStraggler(partition.P, -2, 0, 1)},
		{"NaN factor", fp.AddStraggler(partition.P, math.NaN(), 0, 1)},
		{"negative start", fp.AddStraggler(partition.P, 2, -1, 1)},
		{"inverted window", fp.AddStraggler(partition.P, 2, 5, 3)},
		{"empty window", fp.AddLinkDegrade(partition.R, 2, 1, 1)},
		{"negative spike", fp.AddLatencySpike(partition.S, -0.1, 0, 1)},
		{"invalid proc", fp.AddStraggler(partition.Proc(99), 2, 0, 1)},
	}
	for _, tc := range cases {
		if !errors.As(tc.err, &ce) {
			t.Errorf("%s: err = %v, want *ConfigError", tc.name, tc.err)
		}
	}
}

func TestFaultPlanRejectsOverlappingWindows(t *testing.T) {
	fp := NewFaultPlan()
	if err := fp.AddStraggler(partition.P, 2, 0, 10); err != nil {
		t.Fatal(err)
	}
	var ce *ConfigError
	if err := fp.AddStraggler(partition.P, 3, 5, 15); !errors.As(err, &ce) {
		t.Fatalf("overlap: err = %v, want *ConfigError", err)
	}
	// Adjacent windows are fine, and another processor is independent.
	if err := fp.AddStraggler(partition.P, 3, 10, 20); err != nil {
		t.Fatal(err)
	}
	if err := fp.AddStraggler(partition.R, 3, 5, 15); err != nil {
		t.Fatal(err)
	}
}

func TestStretchOver(t *testing.T) {
	ws := []Window{{From: 2, Until: 4, Factor: 2}}
	cases := []struct {
		name        string
		start, work float64
		want        float64
	}{
		{"entirely before", 0, 1, 1},
		{"entirely after", 4, 3, 3},
		{"entirely inside", 2, 1, 2},   // 1s of work at half speed
		{"spans the onset", 1, 2, 3},   // 1s clean + 1s at half speed
		{"runs past the end", 2, 3, 4}, // window span 2s completes 1s of work, 2s clean after
		{"zero work", 1, 0, 0},
	}
	for _, tc := range cases {
		if got := stretchOver(tc.start, tc.work, ws); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: stretchOver(%v, %v) = %v, want %v", tc.name, tc.start, tc.work, got, tc.want)
		}
	}
	// An infinite window stretches forever.
	inf := []Window{{From: 0, Until: math.Inf(1), Factor: 3}}
	if got := stretchOver(5, 2, inf); math.Abs(got-6) > 1e-12 {
		t.Errorf("infinite window: got %v, want 6", got)
	}
}

func TestSpikeExtra(t *testing.T) {
	spikes := []Spike{{From: 0, Until: 1, Extra: 0.5}, {From: 0.5, Until: 2, Extra: 0.25}}
	if got := spikeExtra(0.75, spikes); got != 0.75 {
		t.Fatalf("overlapping spikes should add: got %v", got)
	}
	if got := spikeExtra(3, spikes); got != 0 {
		t.Fatalf("outside all spikes: got %v", got)
	}
}

func studyGrid(t *testing.T) (model.Machine, *partition.Grid) {
	t.Helper()
	ratio := partition.MustRatio(5, 2, 1)
	g, err := partition.Build(partition.SquareCorner, 64, ratio)
	if err != nil {
		t.Fatal(err)
	}
	return model.DefaultMachine(ratio), g
}

// TestSimulateFaultsNilAndIdentityPlansMatchClean pins the two no-op
// cases: a nil plan and a Factor=1 plan must reproduce the clean result
// exactly, for every algorithm.
func TestSimulateFaultsNilAndIdentityPlansMatchClean(t *testing.T) {
	m, g := studyGrid(t)
	identity := NewFaultPlan()
	for _, p := range partition.Procs {
		if err := identity.AddStraggler(p, 1, 0, math.Inf(1)); err != nil {
			t.Fatal(err)
		}
		if err := identity.AddLinkDegrade(p, 1, 0, math.Inf(1)); err != nil {
			t.Fatal(err)
		}
	}
	for _, a := range model.AllAlgorithms {
		clean, err := Simulate(a, m, g)
		if err != nil {
			t.Fatal(err)
		}
		viaNil, err := SimulateFaults(a, m, g, nil)
		if err != nil {
			t.Fatal(err)
		}
		if viaNil != clean {
			t.Errorf("%v: nil plan differs from clean: %+v vs %+v", a, viaNil, clean)
		}
		viaID, err := SimulateFaults(a, m, g, identity)
		if err != nil {
			t.Fatal(err)
		}
		if viaID.TExe != clean.TExe {
			t.Errorf("%v: identity plan TExe %v, clean %v", a, viaID.TExe, clean.TExe)
		}
	}
}

func TestSimulateFaultsStragglerSlowsAndIsDeterministic(t *testing.T) {
	m, g := studyGrid(t)
	fp := NewFaultPlan()
	if err := fp.AddStraggler(partition.P, 3, 0, math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	for _, a := range model.AllAlgorithms {
		clean, err := Simulate(a, m, g)
		if err != nil {
			t.Fatal(err)
		}
		faulted, err := SimulateFaults(a, m, g, fp)
		if err != nil {
			t.Fatal(err)
		}
		if faulted.TExe <= clean.TExe {
			t.Errorf("%v: straggling P did not slow the run: %v vs clean %v", a, faulted.TExe, clean.TExe)
		}
		again, err := SimulateFaults(a, m, g, fp)
		if err != nil {
			t.Fatal(err)
		}
		if again != faulted {
			t.Errorf("%v: fault simulation is not deterministic: %+v vs %+v", a, again, faulted)
		}
	}
}

func TestSimulateFaultsLinkDegradeAndSpike(t *testing.T) {
	m, g := studyGrid(t)
	clean, err := Simulate(model.SCB, m, g)
	if err != nil {
		t.Fatal(err)
	}
	fp := NewFaultPlan()
	// Degrade every link and stall every early message: communication
	// must finish later than on the clean platform.
	for _, p := range partition.Procs {
		if err := fp.AddLinkDegrade(p, 10, 0, math.Inf(1)); err != nil {
			t.Fatal(err)
		}
		if err := fp.AddLatencySpike(p, clean.TExe, 0, math.Inf(1)); err != nil {
			t.Fatal(err)
		}
	}
	faulted, err := SimulateFaults(model.SCB, m, g, fp)
	if err != nil {
		t.Fatal(err)
	}
	if faulted.TComm <= clean.TComm {
		t.Fatalf("degraded links did not delay communication: %v vs %v", faulted.TComm, clean.TComm)
	}
	// The spike alone stalls each send by a full clean makespan.
	if faulted.TExe < clean.TExe+clean.TExe {
		t.Fatalf("latency spike not applied: faulted %v, clean %v", faulted.TExe, clean.TExe)
	}
}

func TestStretchCPUExported(t *testing.T) {
	fp := NewFaultPlan()
	if err := fp.AddStraggler(partition.P, 3, 0, math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	if got := fp.StretchCPU(partition.P, 0, 2); got != 6 {
		t.Fatalf("StretchCPU(P, 0, 2) = %v, want 6 under a persistent 3× straggler", got)
	}
	// Unaffected processor and nil plan pass work through unchanged.
	if got := fp.StretchCPU(partition.R, 0, 2); got != 2 {
		t.Fatalf("StretchCPU(R) = %v, want 2", got)
	}
	var nilPlan *FaultPlan
	if got := nilPlan.StretchCPU(partition.P, 0, 2); got != 2 {
		t.Fatalf("nil plan StretchCPU = %v, want 2", got)
	}
	// A bounded window stretches only the covered span: 1s of work at
	// factor 2 over [0, 1) takes 2s wall, the rest runs at full speed.
	fp2 := NewFaultPlan()
	if err := fp2.AddStraggler(partition.P, 2, 0, 1); err != nil {
		t.Fatal(err)
	}
	if got := fp2.StretchCPU(partition.P, 0, 3); got != 3.5 {
		t.Fatalf("bounded window: got %v, want 3.5 (1s wall does 0.5 work in the window, 2.5 after)", got)
	}
}
