package serve

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// planCorrupt returns a plan whose VoC field disagrees with its own
// grid — valid JSON, a well-formed plan, and a lie. Only independent
// re-verification can tell.
func planCorrupt() PlanResponse {
	resp := planOK()
	p := *resp.Plan
	p.VoC += 7
	resp.Plan = &p
	return resp
}

func testPlanReq() PlanRequest {
	return PlanRequest{N: 40, Ratio: "3:1:1", Algorithm: "SCB"}
}

// replicaByURL finds url's status in a snapshot.
func replicaByURL(t *testing.T, c *Client, url string) ReplicaStatus {
	t.Helper()
	for _, st := range c.Replicas() {
		if st.URL == url {
			return st
		}
	}
	t.Fatalf("replica %s not in pool %+v", url, c.Replicas())
	return ReplicaStatus{}
}

// eventually polls cond until it holds or the deadline passes.
func eventually(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal(msg)
}

// TestNewPoolValidation: an empty pool is a construction error, and
// duplicate URLs collapse to one replica.
func TestNewPoolValidation(t *testing.T) {
	if _, err := NewPool(nil, ClientConfig{}); !errors.Is(err, ErrNoReplicas) {
		t.Fatalf("err = %v, want ErrNoReplicas", err)
	}
	c, err := NewPool([]string{"http://a:1", "http://a:1/", "http://b:2"}, ClientConfig{ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := len(c.Replicas()); got != 2 {
		t.Fatalf("pool has %d replicas, want 2 (dedup)", got)
	}
}

// TestPoolFailoverAndEjection: with one replica answering 500 on every
// call, no client call may fail — retries fail over to the healthy
// replica — and the bad replica must be ejected after the consecutive-
// failure threshold.
func TestPoolFailoverAndEjection(t *testing.T) {
	good := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, planOK())
	}))
	defer good.Close()
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusInternalServerError, ErrorBody{Error: "boom"})
	}))
	defer bad.Close()

	c, err := NewPool([]string{bad.URL, good.URL}, ClientConfig{
		ProbeInterval:  -1,
		Timeout:        5 * time.Second,
		Retry:          RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond},
		RetryBudget:    100,
		EjectThreshold: 3,
		EjectCooldown:  time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for i := 0; i < 20; i++ {
		if _, err := c.Plan(context.Background(), testPlanReq()); err != nil {
			t.Fatalf("call %d: %v — failover must hide a single bad replica", i, err)
		}
	}
	if st := replicaByURL(t, c, bad.URL); st.State != ReplicaEjected {
		t.Fatalf("bad replica state = %v after 20 calls, want ejected", st.State)
	}
	if c.Ejections() == 0 {
		t.Fatal("Ejections() = 0, want ≥ 1")
	}
	if st := replicaByURL(t, c, good.URL); st.State != ReplicaActive || st.LatencyEWMAMs <= 0 {
		t.Fatalf("good replica status = %+v, want active with a latency sample", st)
	}
}

// TestPoolProbationReadmit: a single flaky replica is ejected, recovers,
// and must be re-admitted by its live probation trial after the cooldown
// (probing disabled, so only live traffic can vouch for it).
func TestPoolProbationReadmit(t *testing.T) {
	var healthy atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !healthy.Load() {
			writeJSON(w, http.StatusServiceUnavailable, ErrorBody{Error: "down"})
			return
		}
		writeJSON(w, http.StatusOK, planOK())
	}))
	defer ts.Close()

	c, err := NewPool([]string{ts.URL}, ClientConfig{
		ProbeInterval:  -1,
		Timeout:        time.Second,
		Retry:          RetryPolicy{MaxAttempts: 1, BaseDelay: time.Millisecond},
		EjectThreshold: 2,
		EjectCooldown:  30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for i := 0; i < 2; i++ {
		if _, err := c.Plan(context.Background(), testPlanReq()); err == nil {
			t.Fatal("sick replica answered")
		}
	}
	if st := c.Replicas()[0]; st.State != ReplicaEjected {
		t.Fatalf("state = %v, want ejected", st.State)
	}

	healthy.Store(true)
	time.Sleep(40 * time.Millisecond) // past the cooldown → probation
	if st := c.Replicas()[0]; st.State != ReplicaProbation {
		t.Fatalf("state = %v after cooldown, want probation", st.State)
	}
	if _, err := c.Plan(context.Background(), testPlanReq()); err != nil {
		t.Fatalf("probation trial: %v", err)
	}
	if st := c.Replicas()[0]; st.State != ReplicaActive || st.ConsecutiveFailures != 0 {
		t.Fatalf("status after successful trial = %+v, want active/0 failures", st)
	}
}

// TestPoolProbationRefail: a probation trial that fails re-ejects
// immediately for a fresh cooldown — no three-strikes grace the second
// time around.
func TestPoolProbationRefail(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusServiceUnavailable, ErrorBody{Error: "still down"})
	}))
	defer ts.Close()

	c, err := NewPool([]string{ts.URL}, ClientConfig{
		ProbeInterval:  -1,
		Timeout:        time.Second,
		Retry:          RetryPolicy{MaxAttempts: 1, BaseDelay: time.Millisecond},
		EjectThreshold: 2,
		EjectCooldown:  20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for i := 0; i < 2; i++ {
		c.Plan(context.Background(), testPlanReq())
	}
	ejections := c.Ejections()
	if ejections == 0 {
		t.Fatal("replica not ejected")
	}
	time.Sleep(30 * time.Millisecond)
	c.Plan(context.Background(), testPlanReq()) // failed trial
	if c.Ejections() != ejections+1 {
		t.Fatalf("Ejections() = %d after failed trial, want %d", c.Ejections(), ejections+1)
	}
	if st := c.Replicas()[0]; st.State != ReplicaEjected {
		t.Fatalf("state = %v after failed trial, want re-ejected", st.State)
	}
}

// TestPoolProbeEjectsNotReady: the background prober must eject a
// replica whose /readyz says 503 — before any live request pays for the
// discovery — and re-admit it once it reports ready again.
func TestPoolProbeEjectsNotReady(t *testing.T) {
	var ready atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/readyz" {
			http.NotFound(w, r)
			return
		}
		if ready.Load() {
			w.WriteHeader(http.StatusOK)
		} else {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
	}))
	defer ts.Close()

	c, err := NewPool([]string{ts.URL}, ClientConfig{
		ProbeInterval:  5 * time.Millisecond,
		EjectThreshold: 2,
		EjectCooldown:  10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	eventually(t, 2*time.Second, func() bool {
		return c.Replicas()[0].State == ReplicaEjected
	}, "not-ready replica never ejected by probes")

	ready.Store(true)
	eventually(t, 2*time.Second, func() bool {
		return c.Replicas()[0].State == ReplicaActive
	}, "ready replica never re-admitted by probes")
}

// TestPoolProbeHealthzFallback: a pre-readiness server (404 on /readyz,
// 200 on /healthz) must not be ejected — the prober falls back.
func TestPoolProbeHealthzFallback(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		http.NotFound(w, r)
	}))
	defer ts.Close()

	c, err := NewPool([]string{ts.URL}, ClientConfig{
		ProbeInterval:  5 * time.Millisecond,
		EjectThreshold: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	time.Sleep(60 * time.Millisecond) // ~12 probe rounds
	if st := c.Replicas()[0]; st.State != ReplicaActive || st.ConsecutiveFailures != 0 || c.Ejections() != 0 {
		t.Fatalf("healthz-only replica penalised by probes: %+v, %d ejections", st, c.Ejections())
	}
}

// TestPoolHedgeGoesToDifferentReplica: with both replicas stalling
// longer than the hedge delay, one Plan call must land exactly one
// request on each replica — the hedge may not replay the primary's.
func TestPoolHedgeGoesToDifferentReplica(t *testing.T) {
	var hitsA, hitsB atomic.Int32
	mkServer := func(hits *atomic.Int32) *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			hits.Add(1)
			time.Sleep(80 * time.Millisecond)
			writeJSON(w, http.StatusOK, planOK())
		}))
	}
	a, b := mkServer(&hitsA), mkServer(&hitsB)
	defer a.Close()
	defer b.Close()

	c, err := NewPool([]string{a.URL, b.URL}, ClientConfig{
		ProbeInterval: -1,
		Timeout:       5 * time.Second,
		Hedge:         HedgePolicy{Delay: 10 * time.Millisecond, MaxHedges: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Plan(context.Background(), testPlanReq()); err != nil {
		t.Fatal(err)
	}
	if c.Hedges() != 1 {
		t.Fatalf("Hedges() = %d, want 1", c.Hedges())
	}
	// The loser is cancelled mid-stall, but its handler already counted.
	eventually(t, time.Second, func() bool {
		return hitsA.Load() == 1 && hitsB.Load() == 1
	}, "hedge did not go to the other replica")
}

// TestPoolRejectsCorruptPlan: a replica serving internally inconsistent
// plans (VoC ≠ grid) must never have a response accepted: with a clean
// replica available the call fails over; the corrupt replica racks up
// rejections and is ejected.
func TestPoolRejectsCorruptPlan(t *testing.T) {
	corrupt := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, planCorrupt())
	}))
	defer corrupt.Close()
	clean := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, planOK())
	}))
	defer clean.Close()

	c, err := NewPool([]string{corrupt.URL, clean.URL}, ClientConfig{
		ProbeInterval:  -1,
		Timeout:        5 * time.Second,
		Retry:          RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond},
		RetryBudget:    100,
		EjectThreshold: 3,
		EjectCooldown:  time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for i := 0; i < 20; i++ {
		resp, err := c.Plan(context.Background(), testPlanReq())
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if err := VerifyPlanResponse(testPlanReq(), resp); err != nil {
			t.Fatalf("call %d accepted a corrupt plan: %v", i, err)
		}
	}
	if c.CorruptRejected() == 0 {
		t.Fatal("corrupt replica never sampled — test proves nothing")
	}
	if st := replicaByURL(t, c, corrupt.URL); st.State != ReplicaEjected {
		t.Fatalf("corrupt replica state = %v, want ejected", st.State)
	}
}

// TestPoolAllCorruptSurfacesTypedError: when every replica serves
// garbage the caller gets a *CorruptPlanError naming a replica — never
// a silently accepted bad plan.
func TestPoolAllCorruptSurfacesTypedError(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, planCorrupt())
	}))
	defer ts.Close()

	c := NewClient(ts.URL, ClientConfig{
		Timeout:     2 * time.Second,
		Retry:       RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond},
		RetryBudget: 100,
	})
	defer c.Close()

	_, err := c.Plan(context.Background(), testPlanReq())
	var ce *CorruptPlanError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CorruptPlanError", err)
	}
	if ce.Replica != ts.URL {
		t.Fatalf("error names replica %q, want %q", ce.Replica, ts.URL)
	}
	if got := c.CorruptRejected(); got != 2 {
		t.Fatalf("CorruptRejected() = %d, want 2 (both attempts)", got)
	}
}

// TestPoolDisableVerify: with verification off the tampered plan sails
// through — the knob must actually disengage the check.
func TestPoolDisableVerify(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, planCorrupt())
	}))
	defer ts.Close()

	c := NewClient(ts.URL, ClientConfig{DisableVerify: true})
	defer c.Close()
	if _, err := c.Plan(context.Background(), testPlanReq()); err != nil {
		t.Fatalf("verification disabled but still rejected: %v", err)
	}
	if c.CorruptRejected() != 0 {
		t.Fatal("CorruptRejected() moved with verification off")
	}
}

// TestVerifyPlanResponse: the verifier's individual checks.
func TestVerifyPlanResponse(t *testing.T) {
	req := testPlanReq()
	if err := VerifyPlanResponse(req, &PlanResponse{}); err == nil {
		t.Fatal("plan-less response verified")
	}
	ok := planOK()
	if err := VerifyPlanResponse(req, &ok); err != nil {
		t.Fatalf("clean plan rejected: %v", err)
	}
	bad := planCorrupt()
	if err := VerifyPlanResponse(req, &bad); err == nil {
		t.Fatal("VoC-tampered plan verified")
	}
	wrongN := req
	wrongN.N = 48
	if err := VerifyPlanResponse(wrongN, &ok); err == nil {
		t.Fatal("plan for another dimension verified")
	}
	wrongRatio := req
	wrongRatio.Ratio = "2:1:1"
	if err := VerifyPlanResponse(wrongRatio, &ok); err == nil {
		t.Fatal("plan for another ratio verified")
	}
	// The topology is compared in canonical spec form, so a plan crossed
	// over from another topology fails, per-link specs included.
	for _, topo := range []string{"star", "3-island:10", "2+1", "links:PR=1,PS=10,RS=10"} {
		wrongTopo := req
		wrongTopo.Topology = topo
		if err := VerifyPlanResponse(wrongTopo, &ok); err == nil {
			t.Fatalf("%s plan verified for a %q request", ok.Plan.Topology, topo)
		}
	}
	island := planOK()
	islandPlan := *island.Plan
	islandPlan.Topology = "3-island:10"
	island.Plan = &islandPlan
	islandReq := req
	islandReq.Topology = "3-island"
	if err := VerifyPlanResponse(islandReq, &island); err != nil {
		t.Fatalf("3-island:10 plan rejected for its own topology: %v", err)
	}
	// An unparseable request field skips the cross-check rather than
	// rejecting a plan the server somehow answered.
	looseReq := req
	looseReq.Ratio = "not-a-ratio"
	if err := VerifyPlanResponse(looseReq, &ok); err != nil {
		t.Fatalf("unparseable request field rejected plan: %v", err)
	}
}

// TestDegradedCause: typed reason extraction, including the legacy
// empty-reason degraded response.
func TestDegradedCause(t *testing.T) {
	cases := []struct {
		resp PlanResponse
		want DegradedReason
	}{
		{PlanResponse{}, DegradedNone},
		{PlanResponse{Degraded: true, DegradedReason: DegradedDeadline}, DegradedDeadline},
		{PlanResponse{Degraded: true, DegradedReason: DegradedBreakerOpen}, DegradedBreakerOpen},
		{PlanResponse{Degraded: true}, DegradedSearchError},
		// A reason this client version does not model still round-trips.
		{PlanResponse{Degraded: true, DegradedReason: "quantum-flux"}, "quantum-flux"},
	}
	for i, tc := range cases {
		if got := tc.resp.DegradedCause(); got != tc.want {
			t.Fatalf("case %d: DegradedCause() = %q, want %q", i, got, tc.want)
		}
	}
	if DegradedReason("quantum-flux").Known() {
		t.Fatal("unknown reason reported Known")
	}
	if !DegradedBreakerOpen.Known() {
		t.Fatal("breaker-open not Known")
	}
}

// TestPoolCloseIdempotent: Close twice, and on a probe-less client, is
// safe.
func TestPoolCloseIdempotent(t *testing.T) {
	c := NewClient("http://example.invalid", ClientConfig{})
	c.Close()
	c.Close()
	p, err := NewPool([]string{"http://example.invalid"}, ClientConfig{ProbeInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
	p.Close()
}
