package serve

import (
	"bytes"
	"context"
	"net/http"
	"testing"

	heteropart "repro"
	"repro/internal/atlas"
	"repro/internal/metrics"
	"repro/internal/model"
	wire "repro/serve"
)

// buildTestAtlas bakes a small atlas for the serving tests: scale 2,
// Pr ∈ [1,4], Rr ∈ [1,3], n=24 (SCB, fully connected).
func buildTestAtlas(t testing.TB) *atlas.Atlas {
	t.Helper()
	g, err := atlas.NewGrid(2, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	a, err := atlas.Build(context.Background(), atlas.BuildConfig{
		Algorithm: model.SCB,
		Topology:  model.FullyConnected,
		N:         24,
		Grid:      g,
	})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestAtlasHitServesWithoutSearch: an on-atlas request is answered with
// Source "atlas", bit-identical to the live planner's answer, without
// the search engine, cache, or admission gate being involved.
func TestAtlasHitServesWithoutSearch(t *testing.T) {
	s, ts := newTestServer(t, Config{Atlas: buildTestAtlas(t)})
	resp, body := postJSON(t, ts.URL+"/v1/plan", "10s",
		wire.PlanRequest{N: 24, Ratio: "2.5:1.5:1", Algorithm: "SCB"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	pr := decodePlan(t, body)
	if pr.Source != wire.SourceAtlas {
		t.Fatalf("source = %q, want %q", pr.Source, wire.SourceAtlas)
	}
	if pr.Degraded || pr.Search != nil {
		t.Fatalf("atlas answer marked degraded=%v search=%v", pr.Degraded, pr.Search)
	}
	if err := pr.Plan.Validate(); err != nil {
		t.Fatalf("atlas plan does not validate: %v", err)
	}

	// Bit-identical to what the live planner computes for the scenario.
	ratio := heteropart.MustRatio(2.5, 1.5, 1)
	m := heteropart.DefaultMachine(ratio)
	live, err := heteropart.NewPlan(heteropart.SCB, m, 24)
	if err != nil {
		t.Fatal(err)
	}
	var liveJSON, servedJSON bytes.Buffer
	if err := live.WriteJSON(&liveJSON); err != nil {
		t.Fatal(err)
	}
	if err := pr.Plan.WriteJSON(&servedJSON); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(liveJSON.Bytes(), servedJSON.Bytes()) {
		t.Fatalf("atlas plan differs from live plan:\n%s\nvs\n%s", servedJSON.Bytes(), liveJSON.Bytes())
	}

	st := s.Stats()
	if st.AtlasHits != 1 {
		t.Fatalf("atlasHits = %d, want 1", st.AtlasHits)
	}
	if st.Searched != 0 || st.CacheHits != 0 || st.CacheMisses != 0 {
		t.Fatalf("atlas hit leaked into the search path: %+v", st)
	}
	if got := s.gate.InUse(); got != 0 {
		t.Fatalf("gate in use after atlas hit: %d", got)
	}
}

// TestAtlasMissFallsThrough: off-atlas scenarios (off-lattice ratio, or
// a different n/algorithm/topology than the atlas was baked for) take
// the normal search path.
func TestAtlasMissFallsThrough(t *testing.T) {
	s, ts := newTestServer(t, Config{Atlas: buildTestAtlas(t)})
	cases := []wire.PlanRequest{
		{N: 24, Ratio: "2.51:1.5:1", Algorithm: "SCB"},                  // off-lattice
		{N: 24, Ratio: "9:1:1", Algorithm: "SCB"},                       // beyond grid
		{N: 32, Ratio: "2.5:1.5:1", Algorithm: "SCB"},                   // different n
		{N: 24, Ratio: "2.5:1.5:1", Algorithm: "PCB"},                   // different algorithm
		{N: 24, Ratio: "2.5:1.5:1", Algorithm: "SCB", Topology: "star"}, // different topology
	}
	for _, c := range cases {
		resp, body := postJSON(t, ts.URL+"/v1/plan", "10s", c)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%+v: status %d: %s", c, resp.StatusCode, body)
		}
		if pr := decodePlan(t, body); pr.Source == wire.SourceAtlas {
			t.Fatalf("%+v served from atlas, want fall-through", c)
		}
	}
	if st := s.Stats(); st.AtlasHits != 0 {
		t.Fatalf("atlasHits = %d, want 0", st.AtlasHits)
	}
}

// TestAtlasRepeatHitsShareEncoding: the second hit on a cell serves the
// cached bytes (still a correct, validating plan).
func TestAtlasRepeatHitsShareEncoding(t *testing.T) {
	s, ts := newTestServer(t, Config{Atlas: buildTestAtlas(t)})
	var first, second []byte
	for i := 0; i < 2; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/plan", "10s",
			wire.PlanRequest{N: 24, Ratio: "3:2:1", Algorithm: "SCB"})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		if i == 0 {
			first = body
		} else {
			second = body
		}
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("atlas responses differ across hits:\n%s\nvs\n%s", first, second)
	}
	if st := s.Stats(); st.AtlasHits != 2 {
		t.Fatalf("atlasHits = %d, want 2", st.AtlasHits)
	}
}

func TestWarmAtlas(t *testing.T) {
	a := buildTestAtlas(t)
	s, err := New(Config{Atlas: a})
	if err != nil {
		t.Fatal(err)
	}
	encoded, rejected := s.WarmAtlas()
	if rejected != 0 {
		t.Fatalf("warm rejected %d cells", rejected)
	}
	if encoded != a.ValidCells() {
		t.Fatalf("warm encoded %d cells, want %d", encoded, a.ValidCells())
	}
	// Every warmed cell is servable without further encoding.
	in, err := s.parsePlanRequest(wire.PlanRequest{N: 24, Ratio: "4:3:1", Algorithm: "SCB"})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.atlasAnswer(in); !ok {
		t.Fatal("warmed cell missed")
	}
}

// TestAtlasRejectsCustomMachine: serving a default-machine atlas under a
// custom cost model would answer with another machine's winners.
func TestAtlasRejectsCustomMachine(t *testing.T) {
	_, err := New(Config{
		Atlas:   buildTestAtlas(t),
		Machine: heteropart.DefaultMachine,
	})
	if err == nil {
		t.Fatal("New accepted an atlas with a custom machine model")
	}
}

func TestAtlasRejectsOversizedN(t *testing.T) {
	if _, err := New(Config{Atlas: buildTestAtlas(t), MaxN: 10}); err == nil {
		t.Fatal("New accepted an atlas whose n exceeds MaxN")
	}
}

// TestAnswerTierMetrics: the tier counters in /v1/stats and /metrics
// agree with the traffic actually served — one atlas answer, one
// searched answer, then a cache hit for repeating the searched one.
func TestAnswerTierMetrics(t *testing.T) {
	s, ts := newTestServer(t, Config{Atlas: buildTestAtlas(t)})

	reqs := []wire.PlanRequest{
		{N: 24, Ratio: "2.5:1.5:1", Algorithm: "SCB"}, // atlas
		{N: 24, Ratio: "5:2:1", Algorithm: "SCB"},     // searched (off-grid)
		{N: 24, Ratio: "5:2:1", Algorithm: "SCB"},     // cache
	}
	for _, c := range reqs {
		resp, body := postJSON(t, ts.URL+"/v1/plan", "10s", c)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%+v: status %d: %s", c, resp.StatusCode, body)
		}
	}

	st := s.Stats()
	tiers := st.AnswerTiers()
	want := map[string]int64{"atlas": 1, "cache": 1, "searched": 1, "degraded": 0}
	for tier, n := range want {
		if tiers[tier] != n {
			t.Fatalf("stats tier %q = %d, want %d (%+v)", tier, tiers[tier], n, tiers)
		}
	}

	// The same mix must appear in the Prometheus scrape.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	samples, err := metrics.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("parse /metrics: %v", err)
	}
	for tier, n := range want {
		series := `pland_answers_total{tier="` + tier + `"}`
		if got := samples[series]; got != float64(n) {
			t.Fatalf("%s = %v, want %d", series, got, n)
		}
	}
	if got := samples["pland_atlas_hits_total"]; got != 1 {
		t.Fatalf("pland_atlas_hits_total = %v, want 1", got)
	}
	if got := samples["pland_atlas_cells"]; got <= 0 {
		t.Fatalf("pland_atlas_cells = %v, want > 0", got)
	}
}

// TestDegradedPrefersAtlasShape: a flight waiter that degrades on
// deadline uses the atlas's baked winner at the request's (off-atlas)
// dimension — Source "atlas-shape" — instead of the canonical fallback.
func TestDegradedPrefersAtlasShape(t *testing.T) {
	a := buildTestAtlas(t)
	s, err := New(Config{Atlas: a})
	if err != nil {
		t.Fatal(err)
	}
	// Ratio on the lattice, n far from the atlas's 24: the atlas tier
	// misses, but the degraded path can still use the baked winner.
	in, err := s.parsePlanRequest(wire.PlanRequest{N: 48, Ratio: "2.5:1.5:1", Algorithm: "SCB"})
	if err != nil {
		t.Fatal(err)
	}
	resp, derr := s.fallback(in, wire.DegradedDeadline, true, nil)
	if derr != nil {
		t.Fatal(derr)
	}
	if resp.Source != wire.SourceAtlasShape {
		t.Fatalf("degraded source = %q, want %q", resp.Source, wire.SourceAtlasShape)
	}
	if !resp.Degraded || resp.DegradedReason != wire.DegradedDeadline {
		t.Fatalf("degraded flags wrong: %+v", resp)
	}
	if resp.Plan.N != 48 {
		t.Fatalf("plan built for n=%d, want 48", resp.Plan.N)
	}
	if err := resp.Plan.Validate(); err != nil {
		t.Fatalf("atlas-shape plan does not validate: %v", err)
	}
	// Off-lattice ratio: no atlas shape available, canonical fallback.
	in2, err := s.parsePlanRequest(wire.PlanRequest{N: 48, Ratio: "5:2:1", Algorithm: "SCB"})
	if err != nil {
		t.Fatal(err)
	}
	resp2, derr := s.fallback(in2, wire.DegradedDeadline, true, nil)
	if derr != nil {
		t.Fatal(derr)
	}
	if resp2.Source != wire.SourceCanonical {
		t.Fatalf("off-lattice degraded source = %q, want %q", resp2.Source, wire.SourceCanonical)
	}
}

// BenchmarkPlanAtlasHit measures the full handler path for an on-atlas
// request (parse, lookup, pre-encoded write) — the number BENCH_serve's
// loadgen reproduces over HTTP.
func BenchmarkPlanAtlasHit(b *testing.B) {
	s, err := New(Config{Atlas: buildTestAtlas(b)})
	if err != nil {
		b.Fatal(err)
	}
	s.WarmAtlas()
	h := s.Handler()
	body := []byte(`{"n":24,"ratio":"2.5:1.5:1","algorithm":"SCB"}`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := newBenchRequest(body)
		w := &nullResponseWriter{}
		h.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			b.Fatalf("status %d", w.status)
		}
	}
}

func newBenchRequest(body []byte) *http.Request {
	req, _ := http.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	return req
}

// nullResponseWriter discards the response body without the recorder
// bookkeeping, so the benchmark measures the serving path, not the
// harness.
type nullResponseWriter struct {
	h      http.Header
	status int
}

func (w *nullResponseWriter) Header() http.Header {
	if w.h == nil {
		w.h = make(http.Header)
	}
	return w.h
}

func (w *nullResponseWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}

func (w *nullResponseWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return len(b), nil
}
