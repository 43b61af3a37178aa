package calibrate

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/partition"
	"repro/internal/sim"
)

// synthetic bench: proc p takes base[p] seconds, adjustable per test.
type benchTable struct {
	mu   sync.Mutex
	base [partition.NumProcs]float64
}

func (b *benchTable) bench(p partition.Proc, _ int) float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.base[p]
}

func (b *benchTable) set(p partition.Proc, v float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.base[p] = v
}

func TestFirstRoundPublishesHomogeneous(t *testing.T) {
	bt := &benchTable{base: [partition.NumProcs]float64{1e-3, 1e-3, 1e-3}}
	var published []Estimate
	c := New(Config{
		Bench:     bt.bench,
		OnPublish: func(e Estimate) { published = append(published, e) },
	})
	c.RunOnce(context.Background())
	if len(published) != 1 {
		t.Fatalf("publishes = %d, want 1 (first round always publishes)", len(published))
	}
	want := partition.MustRatio(1, 1, 1)
	if published[0].Ratio != want {
		t.Fatalf("ratio = %s, want %s", published[0].Ratio, want)
	}
	if published[0].Generation != 1 {
		t.Fatalf("generation = %d, want 1", published[0].Generation)
	}
	if c.DriftEvents() != 0 {
		t.Fatalf("drift events = %d, want 0 for the initial publish", c.DriftEvents())
	}
}

func TestDriftTriggersRepublish(t *testing.T) {
	bt := &benchTable{base: [partition.NumProcs]float64{1e-3, 1e-3, 1e-3}}
	var published []Estimate
	c := New(Config{
		Alpha:          0.5,
		DriftThreshold: 0.25,
		Quantum:        0.5,
		Bench:          bt.bench,
		OnPublish:      func(e Estimate) { published = append(published, e) },
	})
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		c.RunOnce(ctx)
	}
	if len(published) != 1 {
		t.Fatalf("stable inputs must not republish: publishes = %d", len(published))
	}

	// Slow R and S 4×: P becomes the 4:1:1-fastest processor. The EWMA
	// converges over several rounds, publishing intermediate estimates
	// as each quantum boundary is crossed confidently; what matters is
	// that it lands on 4:1:1 within the window and each publish bumps
	// the generation.
	bt.set(partition.R, 4e-3)
	bt.set(partition.S, 4e-3)
	for i := 0; i < 12; i++ {
		c.RunOnce(ctx)
	}
	if len(published) < 2 {
		t.Fatalf("drift did not trigger a republish: publishes = %d", len(published))
	}
	got := published[len(published)-1]
	want := partition.MustRatio(4, 1, 1)
	if got.Ratio != want {
		t.Fatalf("drifted ratio = %s, want %s", got.Ratio, want)
	}
	for i := 1; i < len(published); i++ {
		if published[i].Generation != published[i-1].Generation+1 {
			t.Fatalf("generations not consecutive: %d after %d",
				published[i].Generation, published[i-1].Generation)
		}
	}
	if c.DriftEvents() == 0 {
		t.Fatal("drift events = 0, want > 0")
	}

	// Noise below the quantum must not flap the published estimate.
	stable := len(published)
	bt.set(partition.R, 4.2e-3)
	for i := 0; i < 8; i++ {
		c.RunOnce(ctx)
	}
	if len(published) != stable {
		t.Fatalf("sub-quantum noise republished: publishes %d -> %d", stable, len(published))
	}
}

func TestStretchHookInjectsStraggler(t *testing.T) {
	fp := sim.NewFaultPlan()
	if err := fp.AddStraggler(partition.P, 3, 0, 1e12); err != nil {
		t.Fatal(err)
	}
	bt := &benchTable{base: [partition.NumProcs]float64{1e-3, 1e-3, 1e-3}}
	c := New(Config{
		Quantum: 0.5,
		Bench:   bt.bench,
		Stretch: fp.StretchCPU,
	})
	est := c.RunOnce(context.Background())
	// P is stretched 3× slower, so R and S are the 3:3:1-fast pair.
	want := partition.MustRatio(3, 3, 1)
	if est.Ratio != want {
		t.Fatalf("ratio under 3× P-straggler = %s, want %s", est.Ratio, want)
	}
	if est.Speeds[partition.P] != 1 {
		t.Fatalf("stretched P must be the slowest (speed 1), got %v", est.Speeds)
	}
}

func TestConfidenceIntervalNarrowsOnStableInput(t *testing.T) {
	bt := &benchTable{base: [partition.NumProcs]float64{1e-3, 1e-3, 1e-3}}
	c := New(Config{Bench: bt.bench})
	ctx := context.Background()
	c.RunOnce(ctx)
	bt.set(partition.R, 1.5e-3) // one noisy sample widens R's CI
	c.RunOnce(ctx)
	bt.set(partition.R, 1e-3)
	wide := c.RunOnce(ctx).CI[partition.R]
	if wide <= 0 {
		t.Fatalf("CI after a noisy sample = %v, want > 0", wide)
	}
	var narrow float64
	for i := 0; i < 30; i++ {
		narrow = c.RunOnce(ctx).CI[partition.R]
	}
	if narrow >= wide {
		t.Fatalf("CI did not narrow on stable input: %v -> %v", wide, narrow)
	}
}

// TestChaosLinkProbeDrift routes the HTTP link probe through a chaos
// proxy and injects latency: the β estimate must rise past the drift
// threshold and force a republish — the "link got slow" half of the
// self-tuning story, induced exactly the way production drift arrives
// (on the wire), not by poking internals.
func TestChaosLinkProbeDrift(t *testing.T) {
	payload := make([]byte, 64<<10)
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(payload)
	}))
	defer origin.Close()

	proxy, err := chaos.New("127.0.0.1:0", origin.Listener.Addr().String(), chaos.Faults{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	bt := &benchTable{base: [partition.NumProcs]float64{1e-3, 1e-3, 1e-3}}
	var published []Estimate
	c := New(Config{
		Alpha:          0.9, // near-instant tracking: the test wants few rounds
		DriftThreshold: 0.5,
		Bench:          bt.bench,
		// Keep-alives off: chaos latency is injected per connection, so
		// each probe must dial fresh to feel it (as the doc on
		// chaos.Faults.Latency prescribes).
		Probe: HTTPLinkProbe(&http.Client{
			Timeout:   5 * time.Second,
			Transport: &http.Transport{DisableKeepAlives: true},
		}, proxy.URL()+"/blob"),
		OnPublish: func(e Estimate) { published = append(published, e) },
	})
	// Several baseline rounds: the first fetch pays connection setup,
	// so β needs a moment to settle (and may republish while it does).
	ctx := context.Background()
	var base Estimate
	for i := 0; i < 6; i++ {
		base = c.RunOnce(ctx)
	}
	if len(published) == 0 || base.Beta <= 0 {
		t.Fatalf("no baseline publish with β > 0 (publishes=%d β=%v)", len(published), base.Beta)
	}
	before := len(published)

	// 50ms of injected latency on a ~64KiB localhost transfer dominates
	// the transfer time: β must jump well past the 0.5 drift threshold.
	proxy.SetFaults(chaos.Faults{Latency: 50 * time.Millisecond})
	for i := 0; i < 10 && len(published) == before; i++ {
		c.RunOnce(ctx)
	}
	if len(published) == before {
		t.Fatal("link drift did not trigger a republish")
	}
	if got := published[len(published)-1].Beta; got < 2*base.Beta {
		t.Fatalf("β after chaos latency = %v, want ≥ 2× baseline %v", got, base.Beta)
	}
}

func TestStartCloseIdempotent(t *testing.T) {
	bt := &benchTable{base: [partition.NumProcs]float64{1e-3, 1e-3, 1e-3}}
	c := New(Config{Interval: time.Hour, Bench: bt.bench})
	c.Start()
	c.Start()
	deadline := time.Now().Add(5 * time.Second)
	for c.Rounds() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if c.Rounds() == 0 {
		t.Fatal("background loop never ran a round")
	}
	c.Close()
	c.Close()
}

func TestCloseWithoutStart(t *testing.T) {
	c := New(Config{})
	c.Close()
}

func TestDefaultKernelBenchMeasuresSomething(t *testing.T) {
	if testing.Short() {
		t.Skip("real kernel bench")
	}
	c := New(Config{BenchN: 32})
	est := c.RunOnce(context.Background())
	if err := est.Ratio.Validate(); err != nil {
		t.Fatalf("default bench produced invalid ratio: %v", err)
	}
}
