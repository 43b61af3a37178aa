package core

import (
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/partition"
	"repro/internal/shape"
)

func TestRunStudy(t *testing.T) {
	st, err := Run(StudyConfig{
		N:     36,
		Ratio: partition.MustRatio(5, 2, 1),
		Runs:  5,
		Seed:  3,
	})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range st.Archetypes {
		total += c
	}
	if total != 5 {
		t.Errorf("classified %d of 5 runs", total)
	}
	if st.Counterexamples != 0 {
		t.Errorf("postulate violated %d times", st.Counterexamples)
	}
	if st.ReducedVoC > st.BestTerminalVoC {
		t.Errorf("reduction raised VoC: %d -> %d", st.BestTerminalVoC, st.ReducedVoC)
	}
	if st.MeanVoCDrop <= 0 {
		t.Error("expected VoC reduction")
	}
	for _, a := range model.AllAlgorithms {
		if _, ok := st.Optimal[a]; !ok {
			t.Errorf("no optimum for %v", a)
		}
	}
	// The candidate VoCs must include all six shapes (feasible or not).
	if len(st.CandidateVoC) != partition.NumShapes {
		t.Errorf("candidate VoC entries = %d", len(st.CandidateVoC))
	}
	var sb strings.Builder
	if err := st.Write(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Study of ratio 5:2:1", "archetypes:", "optimal shape per algorithm"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestRunStudyValidation(t *testing.T) {
	if _, err := Run(StudyConfig{N: 2, Ratio: partition.MustRatio(2, 1, 1), Runs: 1}); err == nil {
		t.Error("tiny N should error")
	}
	if _, err := Run(StudyConfig{N: 30, Ratio: partition.MustRatio(2, 1, 1), Runs: 0}); err == nil {
		t.Error("zero runs should error")
	}
	if _, err := Run(StudyConfig{N: 30, Ratio: partition.Ratio{}, Runs: 1}); err == nil {
		t.Error("invalid ratio should error")
	}
}

func TestStudyHighHeterogeneityOptimum(t *testing.T) {
	st, err := Run(StudyConfig{
		N:     60,
		Ratio: partition.MustRatio(20, 1, 1),
		Runs:  2,
		Seed:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Optimal[model.SCB] != partition.SquareCorner {
		t.Errorf("SCB optimum at 20:1:1 = %v, want Square-Corner", st.Optimal[model.SCB])
	}
	// Bulk overlap: square-corner should win at any feasible ratio per
	// the two-processor intuition carried over.
	if st.Optimal[model.SCO] != partition.SquareCorner {
		t.Logf("note: SCO optimum = %v (square-corner expected at high heterogeneity)", st.Optimal[model.SCO])
	}
	if st.Archetypes[shape.ArchetypeUnknown] != 0 {
		t.Error("postulate violated")
	}
}

func TestStudyStarTopology(t *testing.T) {
	star, err := model.ParseTopologySpec("star")
	if err != nil {
		t.Fatal(err)
	}
	st, err := Run(StudyConfig{
		N:        36,
		Ratio:    partition.MustRatio(4, 2, 1),
		Runs:     3,
		Seed:     5,
		Topology: star,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Config.Topology != star {
		t.Error("topology lost")
	}
	var sb strings.Builder
	if err := st.Write(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "star") {
		t.Errorf("report should name the topology:\n%s", sb.String())
	}
}
