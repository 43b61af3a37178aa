package serve

import (
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/calibrate"
	"repro/internal/partition"
	wire "repro/serve"
)

// TestAutoRatioBeforeEstimateIs503: ratio "auto" with no published
// scenario is a clean 503 with Retry-After, not a guess.
func TestAutoRatioBeforeEstimateIs503(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/plan", "5s",
		wire.PlanRequest{N: 24, Ratio: "auto", Algorithm: "SCB"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 for unresolved auto ratio carries no Retry-After")
	}
}

// TestAutoRatioDriftReplansAndNeverServesOldPlan is the drift half of
// the tentpole: a published estimate resolves ratio "auto" requests;
// when a new estimate with a different ratio publishes, the old plan is
// never served again (its cache key is unreachable), the tracked
// scenario is re-planned in the background, and Stats.Replans counts it.
func TestAutoRatioDriftReplansAndNeverServesOldPlan(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	est := func(pr, rr float64, gen uint64) calibrate.Estimate {
		return calibrate.Estimate{Ratio: partition.MustRatio(pr, rr, 1), Generation: gen}
	}
	s.ApplyEstimate(est(1, 1, 1))
	if ratio, gen, ok := s.Scenario(); !ok || gen != 1 || ratio != partition.MustRatio(1, 1, 1) {
		t.Fatalf("scenario after first publish = %v gen=%d ok=%v", ratio, gen, ok)
	}

	req := wire.PlanRequest{N: 24, Ratio: "auto", Algorithm: "SCB"}
	resp, body := postJSON(t, ts.URL+"/v1/plan", "10s", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	oldRatio := partition.MustRatio(1, 1, 1).String()
	if pr := decodePlan(t, body); pr.Plan.Ratio != oldRatio {
		t.Fatalf("auto plan ratio = %q, want %q", pr.Plan.Ratio, oldRatio)
	}
	// The same scenario on a per-link topology is tracked on its own.
	islandReq := req
	islandReq.Topology = "3-island:10"
	if resp, body := postJSON(t, ts.URL+"/v1/plan", "10s", islandReq); resp.StatusCode != http.StatusOK {
		t.Fatalf("3-island status %d: %s", resp.StatusCode, body)
	}

	// Drift: the calibrator publishes 4:1:1. Replans must happen in the
	// background and new auto requests must resolve to the new ratio.
	s.ApplyEstimate(est(4, 1, 1))
	// Each finished re-plan is tracked again under its new key; the two
	// topologies must stay two scenarios.
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Replans < 2 || len(trackedKeys(s)) < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("after drift: %d re-plans, tracked %v; want both topologies re-planned",
				s.Stats().Replans, trackedKeys(s))
		}
		time.Sleep(5 * time.Millisecond)
	}

	newRatio := partition.MustRatio(4, 1, 1).String()
	for i := 0; i < 5; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/plan", "10s", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d after drift: %s", resp.StatusCode, body)
		}
		pr := decodePlan(t, body)
		if pr.Plan.Ratio == oldRatio {
			t.Fatalf("superseded plan served after drift publish: %+v", pr.Plan)
		}
		if pr.Plan.Ratio != newRatio {
			t.Fatalf("auto plan ratio = %q after drift, want %q", pr.Plan.Ratio, newRatio)
		}
	}
	// The background re-plan kept the link topology: the next 3-island
	// request is its cached answer, not a fresh fully-connected search.
	resp, body = postJSON(t, ts.URL+"/v1/plan", "10s", islandReq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("3-island status %d after drift: %s", resp.StatusCode, body)
	}
	pr := decodePlan(t, body)
	if pr.Source != wire.SourceCache || pr.Plan.Topology != "3-island:10" || pr.Plan.Ratio != newRatio {
		t.Fatalf("3-island after drift: source %q topology %q ratio %q, want cache, 3-island:10, %s",
			pr.Source, pr.Plan.Topology, pr.Plan.Ratio, newRatio)
	}
}

// trackedKeys returns the auto scenarios s tracks for drift invalidation.
func trackedKeys(s *Server) []string {
	s.autoMu.Lock()
	defer s.autoMu.Unlock()
	keys := make([]string, 0, len(s.autoTracked))
	for k := range s.autoTracked {
		keys = append(keys, k)
	}
	return keys
}

// TestApplyEstimateUnchangedRatioIsANoOp: re-publishing the same
// ratio/β must not invalidate or re-plan anything.
func TestApplyEstimateUnchangedRatioIsANoOp(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.ApplyEstimate(calibrate.Estimate{Ratio: partition.MustRatio(2, 1, 1), Generation: 1})
	resp, body := postJSON(t, ts.URL+"/v1/plan", "10s",
		wire.PlanRequest{N: 24, Ratio: "auto", Algorithm: "SCB"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	s.ApplyEstimate(calibrate.Estimate{Ratio: partition.MustRatio(2, 1, 1), Generation: 2})
	time.Sleep(50 * time.Millisecond)
	if n := s.Stats().Replans; n != 0 {
		t.Fatalf("unchanged estimate triggered %d replans", n)
	}
}

// TestLadderMovesOneRungPerInterval proves the structural no-skip
// property: however hard the load signal slams, the ladder moves at
// most one rung per evaluation interval, in both directions, and every
// recorded transition is between adjacent rungs.
func TestLadderMovesOneRungPerInterval(t *testing.T) {
	base := time.Unix(1000, 0)
	lc := newLoadController(300*time.Millisecond, 10*time.Millisecond, 0.85, 0.5, base)
	var shifts []string
	lc.onShift = func(from, to shedTier) {
		if d := int(to - from); d != 1 && d != -1 {
			t.Errorf("transition %v→%v skips rungs", from, to)
		}
		shifts = append(shifts, fmt.Sprintf("%v→%v", from, to))
	}
	overload := func() float64 { return 100.0 } // far past every threshold
	idle := func() float64 { return 0.0 }

	now := base
	// Within the first interval nothing may move, even under huge load.
	if got := lc.tick(now.Add(time.Millisecond), overload); got != tierSearch {
		t.Fatalf("tier moved to %v within the first interval", got)
	}
	// One rung per elapsed interval on the way up... (climbs out of the
	// shed tiers additionally require the latency EWMA to have been
	// refreshed since the last shift, so feed observations between ticks)
	for i := 1; i < int(numTiers); i++ {
		for o := 0; o < climbMinObs; o++ {
			lc.observe(time.Second)
		}
		now = now.Add(11 * time.Millisecond)
		if got := lc.tick(now, overload); got != shedTier(i) {
			t.Fatalf("after %d intervals of overload: tier %v, want %v", i, got, shedTier(i))
		}
	}
	// ...saturating at the top rather than walking off the ladder.
	for o := 0; o < climbMinObs; o++ {
		lc.observe(time.Second)
	}
	now = now.Add(11 * time.Millisecond)
	if got := lc.tick(now, overload); got != tierReject {
		t.Fatalf("tier %v past the top rung", got)
	}
	// And one rung per interval back down.
	for i := int(numTiers) - 2; i >= 0; i-- {
		now = now.Add(11 * time.Millisecond)
		if got := lc.tick(now, idle); got != shedTier(i) {
			t.Fatalf("recovery: tier %v, want %v", got, shedTier(i))
		}
	}
	if len(shifts) != 2*(int(numTiers)-1) {
		t.Fatalf("recorded %d shifts (%v), want %d", len(shifts), shifts, 2*(int(numTiers)-1))
	}
	// The transition matrix agrees: adjacent cells only.
	for from := 0; from < int(numTiers); from++ {
		for to := 0; to < int(numTiers); to++ {
			n := lc.transitions[from][to].Load()
			if n > 0 && from-to != 1 && to-from != 1 {
				t.Errorf("transition matrix has %d non-adjacent %v→%v moves", n, shedTier(from), shedTier(to))
			}
		}
	}
}

// TestLadderShedTierClimbNeedsFreshObservations: at a shed tier the
// gate is bypassed, so the latency EWMA is the only climb signal — and
// right after a shift it still reflects the previous tier's answers.
// The ladder must not climb again until enough fresh samples have
// refreshed it.
func TestLadderShedTierClimbNeedsFreshObservations(t *testing.T) {
	base := time.Unix(1000, 0)
	lc := newLoadController(300*time.Millisecond, 10*time.Millisecond, 0.85, 0.5, base)
	lc.tier.Store(int32(tierAtlas))
	overload := func() float64 { return 100.0 }
	now := base
	for i := 0; i < 5; i++ {
		now = now.Add(11 * time.Millisecond)
		if got := lc.tick(now, overload); got != tierAtlas {
			t.Fatalf("climbed to %v out of a shed tier on a stale EWMA", got)
		}
	}
	for o := 0; o < climbMinObs; o++ {
		lc.observe(time.Second)
	}
	now = now.Add(11 * time.Millisecond)
	if got := lc.tick(now, overload); got != tierStale {
		t.Fatalf("refreshed EWMA under overload: tier %v, want %v", got, tierStale)
	}
}

// TestLadderHysteresisHoldsBetweenThresholds: a load signal between the
// down and up thresholds moves nothing — the gap is the flap damper.
func TestLadderHysteresisHoldsBetweenThresholds(t *testing.T) {
	base := time.Unix(1000, 0)
	lc := newLoadController(300*time.Millisecond, 10*time.Millisecond, 0.85, 0.5, base)
	lc.tier.Store(int32(tierAtlas))
	mid := func() float64 { return 0.7 }
	now := base
	for i := 0; i < 10; i++ {
		now = now.Add(11 * time.Millisecond)
		if got := lc.tick(now, mid); got != tierAtlas {
			t.Fatalf("mid-band signal moved the ladder to %v", got)
		}
	}
}

// TestShedTiersServeDegradedWithoutSearch: at the atlas rung an
// off-atlas request gets the canonical closed form; at the stale rung a
// previously searched answer is reheated from the cache. Both are
// marked Degraded/load-shed, neither touches the gate.
func TestShedTiersServeDegradedWithoutSearch(t *testing.T) {
	s, ts := newTestServer(t, Config{ShedInterval: time.Hour})
	req := wire.PlanRequest{N: 24, Ratio: "5:2:1", Algorithm: "SCB"}

	// Warm the cache with a full-quality answer while at tierSearch.
	if resp, body := postJSON(t, ts.URL+"/v1/plan", "10s", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("warmup status %d: %s", resp.StatusCode, body)
	}

	s.ladder.tier.Store(int32(tierAtlas))
	resp, body := postJSON(t, ts.URL+"/v1/plan", "10s",
		wire.PlanRequest{N: 32, Ratio: "3:2:1", Algorithm: "SCB"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("atlas-tier status %d: %s", resp.StatusCode, body)
	}
	pr := decodePlan(t, body)
	if !pr.Degraded || pr.DegradedReason != wire.DegradedLoadShed {
		t.Fatalf("atlas-tier answer not marked load-shed: %+v", pr)
	}
	if pr.Source != wire.SourceCanonical {
		t.Fatalf("atlas-tier source = %q, want %q (no atlas configured)", pr.Source, wire.SourceCanonical)
	}
	if err := pr.Plan.Validate(); err != nil {
		t.Fatalf("shed plan does not validate: %v", err)
	}

	s.ladder.tier.Store(int32(tierStale))
	resp, body = postJSON(t, ts.URL+"/v1/plan", "10s", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stale-tier status %d: %s", resp.StatusCode, body)
	}
	pr = decodePlan(t, body)
	if pr.Source != wire.SourceStaleCache || !pr.Degraded || pr.DegradedReason != wire.DegradedLoadShed {
		t.Fatalf("stale-tier answer = source %q degraded %v/%q, want reheated cache entry",
			pr.Source, pr.Degraded, pr.DegradedReason)
	}
}

// TestRejectTierStillServesAtlas: at the top rung, off-atlas requests
// get 429 with Retry-After while on-atlas scenarios still answer 200 —
// zero availability loss for the atlas tier, at any load.
func TestRejectTierStillServesAtlas(t *testing.T) {
	s, ts := newTestServer(t, Config{Atlas: buildTestAtlas(t), ShedInterval: time.Hour})
	s.ladder.tier.Store(int32(tierReject))

	resp, body := postJSON(t, ts.URL+"/v1/plan", "10s",
		wire.PlanRequest{N: 24, Ratio: "2:1.5:1", Algorithm: "SCB"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("on-atlas request at reject tier: status %d: %s", resp.StatusCode, body)
	}
	if pr := decodePlan(t, body); pr.Source != wire.SourceAtlas {
		t.Fatalf("on-atlas source = %q at reject tier", pr.Source)
	}

	resp, body = postJSON(t, ts.URL+"/v1/plan", "10s",
		wire.PlanRequest{N: 32, Ratio: "7:3:1", Algorithm: "SCB"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("off-atlas request at reject tier: status %d, want 429: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("reject-tier 429 carries no Retry-After")
	}
	if s.Stats().Shed == 0 {
		t.Fatal("reject-tier 429 not counted in Stats.Shed")
	}
}

// TestAtlasSwapDuringInFlightRequests exercises the atomic snapshot
// swap: requests hammer an on-atlas scenario while SetAtlas flips the
// snapshot between two atlases (and nil) and WarmAtlas re-encodes
// concurrently. Run under -race; every response must be a complete,
// valid plan — a torn swap would fail validation or 500.
func TestAtlasSwapDuringInFlightRequests(t *testing.T) {
	a1, a2 := buildTestAtlas(t), buildTestAtlas(t)
	s, ts := newTestServer(t, Config{Atlas: a1, ShedInterval: time.Hour})
	s.WarmAtlas()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, body := postJSON(t, ts.URL+"/v1/plan", "10s",
					wire.PlanRequest{N: 24, Ratio: "2:1.5:1", Algorithm: "SCB"})
				if resp.StatusCode != http.StatusOK {
					t.Errorf("status %d during atlas swap: %s", resp.StatusCode, body)
					return
				}
				pr := decodePlan(t, body)
				if err := pr.Plan.Validate(); err != nil {
					t.Errorf("torn plan during atlas swap: %v", err)
					return
				}
			}
		}()
	}
	for i := 0; i < 25; i++ {
		next := a2
		if i%2 == 1 {
			next = a1
		}
		if err := s.SetAtlas(next); err != nil {
			t.Errorf("SetAtlas: %v", err)
			break
		}
		s.WarmAtlas()
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
}
