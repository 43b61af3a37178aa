package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"regexp"
	"testing"
	"time"

	heteropart "repro"
	"repro/internal/exec"
	"repro/internal/matrix"
	planserve "repro/internal/serve"
	wire "repro/serve"
)

// TestTinyRuns runs each workload briefly and checks that it answers
// correctly and prints every metric of its kind.
func TestTinyRuns(t *testing.T) {
	for _, tc := range []struct {
		workload string
		trace    bool
	}{
		{"plan_search", false},
		{"plan_hot", false},
		{"plan_hot", true},
		{"multiply", false},
	} {
		name := tc.workload
		if tc.trace {
			name += "/traced"
		}
		t.Run(name, func(t *testing.T) {
			cfg := runConfig{workload: tc.workload, seed: 3, seconds: 1, trace: tc.trace}
			record, result, err := run(context.Background(), cfg, t.TempDir()+"/spans.jsonl")
			if err != nil {
				t.Fatal(err)
			}
			if result["correct"] != true || result["failed"] != 0 || result["attempted"].(int) < 1 {
				t.Fatalf("result %v, failures %v", result, record["failures"])
			}
			defs := endToEnd
			if tc.trace {
				defs = perLayer
			}
			metrics := result["metrics"].(map[string]metric)
			if len(metrics) != len(defs) {
				t.Fatalf("%d metrics, want %d", len(metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("metric %s: got %+v", d.name, m)
				}
				if !tc.trace && !(m.Value > 0) {
					t.Errorf("end-to-end metric %s = %v, want > 0", d.name, m.Value)
				}
			}
			if _, ok := record["metrics"].(map[string]metric)["fail_ratio"]; !ok {
				t.Error("record lacks fail_ratio")
			}
		})
	}
}

// plannedAnswer asks an in-process server for one scenario's plan.
func plannedAnswer(t *testing.T, sc *scenario, timeout string) []byte {
	t.Helper()
	srv, err := planserve.New(planserve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(sc.body))
	req.Header.Set("Request-Timeout", timeout)
	rr := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rr, req)
	if rr.Code != http.StatusOK {
		t.Fatalf("HTTP %d: %s", rr.Code, rr.Body)
	}
	return rr.Body.Bytes()
}

func TestCorruptPlanBodyFails(t *testing.T) {
	sc := newOffLattice(1).at(0)
	body := plannedAnswer(t, sc, requestTimeout)
	v := newVerifier()
	if got := v.check(sc, http.StatusOK, body, nil); !got.ok || !got.full || got.tier != "searched" {
		t.Fatalf("clean answer: %+v", got)
	}
	vocField := regexp.MustCompile(`"voc":(\d)`)
	corrupt := vocField.ReplaceAllFunc(body, func(m []byte) []byte {
		out := append([]byte(nil), m...)
		out[len(out)-1] = '0' + (out[len(out)-1]-'0'+1)%10
		return out
	})
	if bytes.Equal(corrupt, body) {
		t.Fatal("corruption changed nothing")
	}
	if got := v.check(sc, http.StatusOK, corrupt, nil); got.ok {
		t.Fatalf("corrupted voc accepted: %+v", got)
	}
	if answerKey(corrupt) == answerKey(body) {
		t.Fatal("plan_hot's answer key misses the corruption")
	}
	// The same check path counts the answer as failed.
	r := &planRun{samples: []*sample{{sc: sc, status: http.StatusOK, body: corrupt, inWindow: true}}, windowS: 1}
	r.ver = v
	r.ver.checkAll(r.samples)
	out := newOutcome()
	r.endToEnd(out)
	if out.failed != 1 || out.attempted != 1 || out.e2e["full_ratio"] != 0 || out.e2e["ops_per_s"] != 0 {
		t.Fatalf("corrupt answer counted as failed=%d attempted=%d full=%v ops=%v", out.failed, out.attempted, out.e2e["full_ratio"], out.e2e["ops_per_s"])
	}
}

func TestDegradedAnswerIsNotFull(t *testing.T) {
	sc := newOffLattice(2).at(1)
	// A 1ms deadline leaves no search budget: the server answers with the
	// canonical plan, marked degraded.
	body := plannedAnswer(t, sc, "1ms")
	v := newVerifier()
	got := v.check(sc, http.StatusOK, body, nil)
	if !got.ok || got.full || got.tier != "degraded" {
		t.Fatalf("degraded answer: %+v", got)
	}
	r := &planRun{samples: []*sample{{sc: sc, v: got, inWindow: true}}, windowS: 1}
	out := newOutcome()
	r.endToEnd(out)
	if out.failed != 0 || out.e2e["full_ratio"] != 0 || out.named["plans_per_s"].Value != 1 {
		t.Fatalf("degraded answer: failed=%d full_ratio=%v plans/s=%v", out.failed, out.e2e["full_ratio"], out.named["plans_per_s"].Value)
	}
}

// TestBoundedAnswerIsNotFull builds the answer the shed ladder's bounded
// rung gives — a search capped at boundedSteps — and checks it counts as
// correct but not full quality.
func TestBoundedAnswerIsNotFull(t *testing.T) {
	stream := newOffLattice(3)
	var sc *scenario
	var full, bounded searchOutcome
	for i := 0; sc == nil; i++ {
		c := stream.at(i)
		f, err := replaySearch(c, 0)
		if err != nil {
			t.Fatal(err)
		}
		if f.steps > boundedSteps {
			sc, full = c, f
			if bounded, err = replaySearch(c, boundedSteps); err != nil {
				t.Fatal(err)
			}
		}
	}
	_, alg, m, err := sc.machine()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := heteropart.NewPlan(alg, m, planN)
	if err != nil {
		t.Fatal(err)
	}
	answer := func(o searchOutcome) []byte {
		b, err := json.Marshal(wire.PlanResponse{Plan: plan, Source: wire.SourceSearch, Search: &wire.SearchSummary{
			Steps: o.steps, InitialVoC: o.initial, FinalVoC: o.final, Converged: o.converged,
			Archetype: o.archetype, Improved: o.final < plan.VoC,
		}})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	v := newVerifier()
	if got := v.check(sc, http.StatusOK, answer(full), nil); !got.ok || !got.full {
		t.Fatalf("full search: %+v", got)
	}
	if got := v.check(sc, http.StatusOK, answer(bounded), nil); !got.ok || got.full || got.tier != "bounded" {
		t.Fatalf("bounded search: %+v", got)
	}
	wrong := bounded
	wrong.final++
	if got := v.check(sc, http.StatusOK, answer(wrong), nil); got.ok {
		t.Fatalf("wrong search result accepted: %+v", got)
	}
}

func TestFlippedProductCellFails(t *testing.T) {
	const n = 64
	rng := rand.New(rand.NewSource(1))
	a, b := heteropart.NewMatrix(n), heteropart.NewMatrix(n)
	a.FillRandom(rng)
	b.FillRandom(rng)
	ref := heteropart.NewMatrix(n)
	matrix.MulKIJ(ref, a, b)
	ratio := heteropart.MustRatio(10, 1, 1)
	g, err := heteropart.BuildShape(heteropart.SquareCorner, n, ratio)
	if err != nil {
		t.Fatal(err)
	}
	prod, st, err := heteropart.Multiply(exec.Config{Machine: heteropart.DefaultMachine(ratio), Algorithm: heteropart.SCB, Verify: true}, g, a, b)
	if err := checkProduct(prod, st, ref, g, err); err != nil {
		t.Fatalf("clean product: %v", err)
	}
	prod.Set(17, 42, math.Nextafter(prod.At(17, 42), math.Inf(1)))
	if err := checkProduct(prod, st, ref, g, nil); err == nil {
		t.Fatal("a product one ulp off in one cell passed")
	}
	prod.Set(17, 42, ref.At(17, 42))
	st.TotalVolume++
	if err := checkProduct(prod, st, ref, g, nil); err == nil {
		t.Fatal("a moved volume off VoC passed")
	}
	s := mulSample{err: checkProduct(prod, st, ref, g, nil), stats: st}
	r := &mulRun{rounds: [][]mulSample{{s}}, elapsed: time.Second}
	out := newOutcome()
	r.endToEnd(out, r.rounds[0])
	if out.failed != 1 || out.e2e["full_ratio"] != 0 {
		t.Fatalf("failed multiply counted as failed=%d full_ratio=%v", out.failed, out.e2e["full_ratio"])
	}
}

func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Start: 0, End: 10 * ms},
		{ID: 2, Parent: 1, Start: 1 * ms, End: 4 * ms},
		{ID: 3, Parent: 1, Start: 3 * ms, End: 5 * ms},
		{ID: 4, Parent: 1, Start: 9 * ms, End: 12 * ms},
	}
	if got := selfTimes(spans)[1]; got != 5*ms {
		t.Fatalf("self time %v, want 5ms", got)
	}
}

func TestQuantileMatchesInclusiveMethod(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, tc := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {0.95, 3.85}, {1, 4}} {
		if got := quantile(xs, tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
}

func TestOffLatticeStream(t *testing.T) {
	a, b := newOffLattice(5), newOffLattice(5)
	b.at(1999) // drawn all at once; a one at a time below
	seen := map[string]bool{}
	for i := range 2000 {
		sa := a.at(i)
		if seen[sa.key()] {
			t.Fatalf("scenario %d repeats %s", i, sa.key())
		}
		seen[sa.key()] = true
		r, err := heteropart.ParseRatio(sa.ratio)
		if err != nil || r.Pr <= 1 || r.Pr > 20 || r.Rr < 1 || r.Rr > r.Pr || r.Sr != 1 {
			t.Fatalf("scenario %d ratio %s (%v)", i, sa.ratio, err)
		}
	}
	for i := range 2000 {
		if a.at(i).key() != b.at(i).key() {
			t.Fatalf("scenario %d depends on the order it was drawn in", i)
		}
	}
}
