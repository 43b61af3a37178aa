package heteropart

// Hot-path benchmarks for the Push search engine. These four benchmarks
// bracket the layers the census rests on — the grid fingerprint, a single
// Push attempt, a full condensation, and the parallel census itself — and
// their before/after numbers are recorded in BENCH_push.json whenever the
// engine's hot path changes.

import (
	"math/rand"
	"testing"

	"repro/internal/experiment"
	"repro/internal/geom"
	"repro/internal/partition"
	"repro/internal/push"
)

// BenchmarkFingerprint measures the cycle-detection hash the condensation
// loop consults after every committed Push.
func BenchmarkFingerprint(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := partition.NewRandom(256, MustRatio(2, 1, 1), rng)
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= g.Fingerprint()
	}
	if sink == 42 {
		b.Log(sink) // keep the loop from being optimised away
	}
}

// BenchmarkAttempt measures single Push attempts (successful early on,
// failing probes once the grid condenses) on a paper-scale grid.
func BenchmarkAttempt(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := partition.NewRandom(256, MustRatio(2, 1, 1), rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := partition.Procs[i%2]
		d := geom.AllDirections[i%4]
		push.AttemptAny(g, p, d, nil, nil)
	}
}

// BenchmarkCondense measures a full condensation — the body of one DFA run
// — from a fixed random start at N=256.
func BenchmarkCondense(b *testing.B) {
	const n = 256
	rng := rand.New(rand.NewSource(1))
	start := partition.NewRandom(n, MustRatio(3, 2, 1), rng)
	plan := push.FullPlan(start.K())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := start.Clone()
		if steps, _ := push.Condense(g, plan, nil, 0); steps == 0 {
			b.Fatal("condense made no progress")
		}
	}
}

// BenchmarkCensus measures the parallel census harness end to end:
// many DFA runs on one ratio, classification included.
func BenchmarkCensus(b *testing.B) {
	cfg := experiment.CensusConfig{
		N:            64,
		RunsPerRatio: 16,
		Ratios:       []partition.Ratio{MustRatio(2, 1, 1)},
		Seed:         1,
		Beautify:     true,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiment.Census(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 1 {
			b.Fatal("bad census")
		}
	}
}
