package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/partition"
	"repro/internal/sim"
)

// fakeClock lets breaker tests step through the cooldown deterministically.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newTrippedBreaker(clk *fakeClock) *breaker {
	b := newBreaker(1, time.Second)
	b.now = clk.now
	b.failure() // threshold 1: opens immediately
	return b
}

// TestBreakerHalfOpenReleaseWithoutVerdict: an admitted half-open trial
// that ends without a success/failure verdict (client abort, panic) must
// return its slot via release, or every future allow would report false
// until restart.
func TestBreakerHalfOpenReleaseWithoutVerdict(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	b := newTrippedBreaker(clk)
	if b.allow() {
		t.Fatal("breaker must be open right after tripping")
	}
	clk.advance(2 * time.Second)
	if !b.allow() {
		t.Fatal("cooldown elapsed: half-open trial must be admitted")
	}
	if b.allow() {
		t.Fatal("only one half-open trial may be in flight")
	}
	b.release() // trial abandoned with no verdict
	if !b.allow() {
		t.Fatal("released trial slot must be claimable again")
	}
	b.success()
	if !b.allow() {
		t.Fatal("breaker must be closed after a successful trial")
	}
}

func planInputsForTest(t *testing.T, s *Server) planInputs {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/v1/plan?n=24&ratio=5:2:1&algorithm=SCB", nil)
	in, err := s.parsePlan(req)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestDeadlineDegradeDoesNotClaimTrial: a request that degrades because
// its remaining budget is below minSearchBudget must not consume the
// breaker's half-open trial slot — it has no search outcome to report.
func TestDeadlineDegradeDoesNotClaimTrial(t *testing.T) {
	s, err := New(Config{BreakerThreshold: 1, BreakerCooldown: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	clk := &fakeClock{t: time.Unix(0, 0)}
	s.brk.now = clk.now
	s.brk.failure()
	clk.advance(2 * time.Second) // half-open window

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	resp, err := s.computePlan(ctx, planInputsForTest(t, s), false)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Degraded || resp.DegradedReason != "deadline" {
		t.Fatalf("want deadline degrade, got %+v", resp)
	}
	if !s.brk.allow() {
		t.Fatal("deadline degrade consumed the half-open trial slot")
	}
}

// TestClientCancelDoesNotCountBreakerFailure: a flight leader whose
// client disconnects mid-search surfaces context.Canceled; that says
// nothing about backend health and must neither count toward the
// breaker's failure threshold nor leak a half-open trial slot.
func TestClientCancelDoesNotCountBreakerFailure(t *testing.T) {
	fp := sim.NewFaultPlan()
	if err := fp.AddStraggler(partition.P, 1000, 0, 1e9); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Fault:            fp,
		FaultStepCost:    2 * time.Millisecond,
		BreakerThreshold: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the client is already gone
	resp, err := s.computePlan(ctx, planInputsForTest(t, s), false)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Degraded || resp.DegradedReason != "cancelled" {
		t.Fatalf("want cancelled degrade, got %+v", resp)
	}
	s.brk.mu.Lock()
	failures, open := s.brk.failures, !s.brk.openUntil.IsZero()
	s.brk.mu.Unlock()
	if failures != 0 || open {
		t.Fatalf("client abort counted against the breaker: failures=%d open=%v", failures, open)
	}
	if !s.brk.allow() {
		t.Fatal("breaker must still admit searches after a client abort")
	}
}
