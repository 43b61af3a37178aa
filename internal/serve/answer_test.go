package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"repro/internal/throttle"
	wire "repro/serve"
)

// TestPlanAndBatchItemAnswerAlike is the differential guard of the plan
// answer path: for every ladder rung, a saturated gate and an open
// breaker, the same scenario sent as a /v1/plan request and as a
// one-item /v1/plan:batch gets the same status, Source, DegradedReason,
// plan and Search presence. Each side runs on its own fresh server, so
// neither sees a cache entry the other made.
func TestPlanAndBatchItemAnswerAlike(t *testing.T) {
	a := buildTestAtlas(t)
	var (
		offLattice = wire.PlanRequest{N: 32, Ratio: "5:2:1", Algorithm: "SCB"}
		offN       = wire.PlanRequest{N: 32, Ratio: "2.5:1.5:1", Algorithm: "SCB"} // lattice ratio, not the atlas's n
		onAtlas    = wire.PlanRequest{N: 24, Ratio: "2.5:1.5:1", Algorithm: "SCB"}
	)
	cases := []struct {
		name string
		rung shedTier
		// warm plans req once at the search rung before the rung is set.
		warm bool
		// saturate fills the admission gate; breaker opens the breaker.
		saturate, breaker bool
		// cacheTTL, when set, expires the warm entry at once.
		cacheTTL   time.Duration
		req        wire.PlanRequest
		wantStatus int
		wantSource string
	}{
		{name: "search", rung: tierSearch, req: offLattice, wantStatus: 200, wantSource: wire.SourceSearch},
		{name: "bounded", rung: tierBounded, req: offLattice, wantStatus: 200, wantSource: wire.SourceSearch},
		{name: "atlas/canonical", rung: tierAtlas, req: offLattice, wantStatus: 200, wantSource: wire.SourceCanonical},
		{name: "atlas/atlas-shape", rung: tierAtlas, req: offN, wantStatus: 200, wantSource: wire.SourceAtlasShape},
		{name: "atlas/on-atlas", rung: tierAtlas, req: onAtlas, wantStatus: 200, wantSource: wire.SourceAtlas},
		{name: "stale/warm", rung: tierStale, warm: true, req: offLattice, wantStatus: 200, wantSource: wire.SourceStaleCache},
		{name: "stale/cold", rung: tierStale, req: offN, wantStatus: 200, wantSource: wire.SourceAtlasShape},
		{name: "reject", rung: tierReject, req: offLattice, wantStatus: http.StatusTooManyRequests},
		{name: "reject/on-atlas", rung: tierReject, req: onAtlas, wantStatus: 200, wantSource: wire.SourceAtlas},
		{name: "saturated", rung: tierSearch, saturate: true, req: offLattice, wantStatus: 200, wantSource: wire.SourceCanonical},
		{name: "saturated/warm", rung: tierSearch, saturate: true, warm: true, req: offLattice, wantStatus: 200, wantSource: wire.SourceCanonical},
		{name: "breaker/cold", rung: tierSearch, breaker: true, req: offLattice, wantStatus: 200, wantSource: wire.SourceCanonical},
		{name: "breaker/warm", rung: tierSearch, breaker: true, warm: true, cacheTTL: time.Nanosecond, req: offLattice, wantStatus: 200, wantSource: wire.SourceStaleCache},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			answer := func(batch bool) (int, *wire.PlanResponse) {
				s, ts := newTestServer(t, Config{
					Atlas:            a,
					ShedInterval:     time.Hour,
					CacheTTL:         c.cacheTTL,
					BreakerThreshold: 1,
					BreakerCooldown:  time.Hour,
				})
				if c.warm {
					if resp, body := postJSON(t, ts.URL+"/v1/plan", "10s", c.req); resp.StatusCode != http.StatusOK {
						t.Fatalf("warm-up status %d: %s", resp.StatusCode, body)
					}
				}
				if c.saturate {
					saturateGate(t, s)
				}
				if c.breaker {
					s.brk.failure()
				}
				s.ladder.tier.Store(int32(c.rung))
				return answerVia(t, ts.URL, batch, c.req)
			}
			plainStatus, plain := answer(false)
			itemStatus, item := answer(true)
			if plainStatus != c.wantStatus || itemStatus != c.wantStatus {
				t.Fatalf("status: plan %d, batch item %d, want %d", plainStatus, itemStatus, c.wantStatus)
			}
			if plain == nil || item == nil {
				return
			}
			if plain.Source != c.wantSource || item.Source != c.wantSource {
				t.Fatalf("source: plan %q, batch item %q, want %q", plain.Source, item.Source, c.wantSource)
			}
			if plain.Degraded != item.Degraded || plain.DegradedReason != item.DegradedReason {
				t.Fatalf("degraded: plan %v/%q, batch item %v/%q",
					plain.Degraded, plain.DegradedReason, item.Degraded, item.DegradedReason)
			}
			if (plain.Search == nil) != (item.Search == nil) {
				t.Fatalf("search summary: plan %v, batch item %v", plain.Search, item.Search)
			}
			pj, _ := json.Marshal(plain.Plan)
			ij, _ := json.Marshal(item.Plan)
			if plain.Plan == nil || !bytes.Equal(pj, ij) {
				t.Fatalf("plans differ:\nplan       %s\nbatch item %s", pj, ij)
			}
		})
	}
}

// answerVia sends req as a /v1/plan request or as a one-item batch and
// returns its status and, on 200, its decoded answer.
func answerVia(t *testing.T, url string, batch bool, req wire.PlanRequest) (int, *wire.PlanResponse) {
	t.Helper()
	if !batch {
		resp, body := postJSON(t, url+"/v1/plan", "10s", req)
		if resp.StatusCode != http.StatusOK {
			return resp.StatusCode, nil
		}
		pr := decodePlan(t, body)
		return resp.StatusCode, &pr
	}
	resp, body := postBatch(t, url, "10s", wire.BatchPlanRequest{Items: []wire.PlanRequest{req}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, body)
	}
	br := decodeBatch(t, body)
	if len(br.Items) != 1 {
		t.Fatalf("batch answered %d items, want 1", len(br.Items))
	}
	it := br.Items[0]
	if it.Status != http.StatusOK {
		return it.Status, nil
	}
	pr, err := it.Plan()
	if err != nil {
		t.Fatal(err)
	}
	return it.Status, pr
}

// saturateGate replaces s's admission gate with a one-slot, no-queue
// gate whose slot is held, so every search-path Acquire is refused.
func saturateGate(t *testing.T, s *Server) {
	t.Helper()
	g, err := throttle.NewGate(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	s.gate = g
}

// TestStaleRungKeepsSearchSummary: the stale rung's answer is the cached
// searched answer marked degraded, and like every other stale-cache
// answer it keeps the summary of the search that produced it.
func TestStaleRungKeepsSearchSummary(t *testing.T) {
	s, ts := newTestServer(t, Config{ShedInterval: time.Hour})
	req := wire.PlanRequest{N: 24, Ratio: "5:2:1", Algorithm: "SCB"}
	_, body := postJSON(t, ts.URL+"/v1/plan", "10s", req)
	searched := decodePlan(t, body)
	if searched.Source != wire.SourceSearch || searched.Search == nil {
		t.Fatalf("warm-up answer: source %q search %v", searched.Source, searched.Search)
	}

	s.ladder.tier.Store(int32(tierStale))
	_, body = postJSON(t, ts.URL+"/v1/plan", "10s", req)
	stale := decodePlan(t, body)
	if stale.Source != wire.SourceStaleCache || stale.DegradedReason != wire.DegradedLoadShed {
		t.Fatalf("stale-rung answer: source %q reason %q", stale.Source, stale.DegradedReason)
	}
	if stale.Search == nil || stale.Search.Steps != searched.Search.Steps || stale.Search.FinalVoC != searched.Search.FinalVoC {
		t.Fatalf("stale-rung search summary %+v, want the cached %+v", stale.Search, searched.Search)
	}
}
