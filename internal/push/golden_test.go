package push_test

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/push"
	"repro/internal/shape"
)

var update = flag.Bool("update", false, "rewrite the golden files with the current output")

// goldenRun is one row of the run-equivalence table.
type goldenRun struct {
	n         int
	ratio     partition.Ratio
	seed      int64
	clustered bool
	beautify  bool
	maxSteps  int
	types     []push.Type
	weights   *partition.Weights
	start     bool // supply a random Start drawn from seed+1000
	scratch   bool // run in the pooled scratch grid of this n
}

func (r goldenRun) label() string {
	s := fmt.Sprintf("n=%d ratio=%v seed=%d", r.n, r.ratio, r.seed)
	if r.clustered {
		s += " clustered"
	}
	if r.beautify {
		s += " beautify"
	}
	if r.maxSteps > 0 {
		s += fmt.Sprintf(" max=%d", r.maxSteps)
	}
	if r.types != nil {
		s += fmt.Sprintf(" types=%v", r.types)
	}
	if r.weights != nil {
		s += " weighted"
	}
	if r.start {
		s += " start"
	}
	if r.scratch {
		s += " scratch"
	}
	return s
}

// goldenRuns spans the word boundaries of a 64-bit line (63, 64, 65, 128,
// 130) and every Config path that reaches the engine: both start families,
// Beautify on and off, a step cap that cuts runs short, the relaxed types
// alone in both orders, non-uniform link weights, a supplied start, and a
// scratch grid reused across runs.
func goldenRuns() []goldenRun {
	ratios := []partition.Ratio{
		partition.MustRatio(3, 1, 1), partition.MustRatio(5, 2, 1),
		partition.MustRatio(2, 1, 1), partition.MustRatio(10, 4, 1),
	}
	weights := partition.Weights{
		{0, 1, 7.5},
		{1, 0, 2.25},
		{3, 40, 0},
	}
	var runs []goldenRun
	for k, n := range []int{63, 64, 65, 128, 130} {
		for v := 0; v < 4; v++ {
			seed := int64(100*n + v)
			ratio := ratios[(k+v)%len(ratios)]
			clustered, beautify := v&1 == 1, v&2 == 2
			runs = append(runs,
				goldenRun{n: n, ratio: ratio, seed: seed, clustered: clustered, beautify: beautify},
				goldenRun{n: n, ratio: ratio, seed: seed + 50, clustered: clustered, beautify: beautify, scratch: true})
		}
		ratio := ratios[k%len(ratios)]
		seed := int64(100*n + 7)
		runs = append(runs,
			goldenRun{n: n, ratio: ratio, seed: seed - 7, maxSteps: 256},
			goldenRun{n: n, ratio: ratio, seed: seed, beautify: true, maxSteps: 64},
			goldenRun{n: n, ratio: ratio, seed: seed, types: []push.Type{push.TypeFour, push.TypeSix}},
			goldenRun{n: n, ratio: ratio, seed: seed, types: []push.Type{push.TypeSix, push.TypeFour}, beautify: true},
			goldenRun{n: n, ratio: ratio, seed: seed + 1, weights: &weights, beautify: true},
			goldenRun{n: n, ratio: ratio, seed: seed + 2, start: true},
			goldenRun{n: n, ratio: ratio, seed: seed + 3, start: true, scratch: true, beautify: true})
	}
	return runs
}

// pushCounters reads the engine's cumulative search counters.
func pushCounters(t *testing.T, reg *metrics.Registry) map[string]float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	m, err := metrics.ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestRunEquivalenceGolden pins every result of a seeded search — steps,
// initial and final VoC, the converged flag, an FNV-64a hash of the final
// cells, the terminal archetype, and the run's plateau and memo counters —
// across the table above. An engine change that claims to be a pure
// speedup must leave this file byte-identical.
func TestRunEquivalenceGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("run-equivalence table")
	}
	reg := metrics.NewRegistry()
	push.RegisterMetrics(reg)
	scratch := make(map[int]*partition.Grid)
	var out bytes.Buffer
	for _, r := range goldenRuns() {
		cfg := push.Config{
			N: r.n, Ratio: r.ratio, Seed: r.seed, Clustered: r.clustered,
			Beautify: r.beautify, MaxSteps: r.maxSteps, Types: r.types, CostWeights: r.weights,
		}
		if r.start {
			cfg.Start = partition.NewRandom(r.n, r.ratio, rand.New(rand.NewSource(r.seed+1000)))
		}
		if r.scratch {
			if scratch[r.n] == nil {
				scratch[r.n] = partition.NewGrid(r.n)
			}
			cfg.Scratch = scratch[r.n]
		}
		before := pushCounters(t, reg)
		res, err := push.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", r.label(), err)
		}
		after := pushCounters(t, reg)
		delta := func(name string) int64 { return int64(after[name] - before[name]) }
		if err := res.Final.Validate(); err != nil {
			t.Fatalf("%s: %v", r.label(), err)
		}
		fmt.Fprintf(&out, "%s: steps=%d voc0=%d voc=%d converged=%t fnv=%016x archetype=%v plateau=%d escapes=%d probes=%d hits=%d\n",
			r.label(), res.Steps, res.InitialVoC, res.FinalVoC, res.Converged,
			res.Final.FingerprintFNV(), shape.Classify(res.Final),
			delta("push_plateau_moves_total"), delta("push_plateau_escapes_total"),
			delta("push_memo_probes_total"), delta("push_memo_hits_total"))
	}

	path := filepath.Join("testdata", "run_equivalence.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("run results differ from %s (re-run with -update only if the change is meant to alter the search)\n--- got ---\n%s--- want ---\n%s",
			path, out.Bytes(), want)
	}
}
