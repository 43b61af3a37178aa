package metrics

import (
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestHistogramBucketBoundaries pins the inclusive-upper-bound
// semantics: an observation exactly on a bound lands in that bound's
// bucket, one just above it lands in the next.
func TestHistogramBucketBoundaries(t *testing.T) {
	h := newHistogram([]float64{0.01, 0.1, 1})
	cases := []struct {
		v    float64
		want int // index into counts
	}{
		{0, 0},
		{0.005, 0},
		{0.01, 0}, // exactly on the bound: inclusive
		{0.010001, 1},
		{0.1, 1},
		{0.5, 2},
		{1, 2},
		{1.0001, 3}, // +Inf bucket
		{1e9, 3},
	}
	for _, c := range cases {
		before := make([]uint64, len(h.counts))
		for i := range h.counts {
			before[i] = h.counts[i].Load()
		}
		h.Observe(c.v)
		for i := range h.counts {
			want := before[i]
			if i == c.want {
				want++
			}
			if got := h.counts[i].Load(); got != want {
				t.Errorf("Observe(%v): bucket %d = %d, want %d", c.v, i, got, want)
			}
		}
	}
	if got, want := h.Count(), uint64(len(cases)); got != want {
		t.Errorf("Count = %d, want %d", got, want)
	}
	var sum float64
	for _, c := range cases {
		sum += c.v
	}
	if got := h.Sum(); math.Abs(got-sum) > 1e-9*sum {
		t.Errorf("Sum = %v, want %v", got, sum)
	}
}

// TestHistogramCumulativeExposition checks the rendered _bucket
// series are cumulative and include +Inf.
func TestHistogramCumulativeExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	got, err := ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("ParseText: %v\n%s", err, b.String())
	}
	want := map[string]float64{
		`lat_seconds_bucket{le="0.1"}`:  2,
		`lat_seconds_bucket{le="1"}`:    3,
		`lat_seconds_bucket{le="+Inf"}`: 4,
		`lat_seconds_count`:             4,
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s = %v, want %v\n%s", k, got[k], w, b.String())
		}
	}
	if s := got["lat_seconds_sum"]; math.Abs(s-5.6) > 1e-9 {
		t.Errorf("sum = %v, want 5.6", s)
	}
}

// TestConcurrentInstruments hammers every instrument type from many
// goroutines; run under -race this is the data-race gate, and the
// final values prove no increment was lost.
func TestConcurrentInstruments(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops_total", "ops")
	g := r.Gauge("level", "level")
	h := r.Histogram("dur_seconds", "dur", []float64{0.5})
	vec := r.NewCounterVec("by_kind_total", "by kind", "kind")

	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			kind := []string{"a", "b"}[w%2]
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				h.Observe(float64(i%2) * 0.75)
				vec.With(kind).Inc()
			}
		}(w)
	}
	// Concurrent scrapes while writers run.
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				var b strings.Builder
				if err := r.WriteText(&b); err != nil {
					t.Errorf("WriteText: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()

	if got := c.Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := g.Value(); got != 0 {
		t.Errorf("gauge = %v, want 0", got)
	}
	if got := h.Count(); got != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", got, workers*perWorker)
	}
	if got := vec.With("a").Value() + vec.With("b").Value(); got != workers*perWorker {
		t.Errorf("vec total = %d, want %d", got, workers*perWorker)
	}
}

// TestScrapeRoundTrip builds a registry with every instrument kind,
// serves it over the HTTP handler, and parses the scrape back.
func TestScrapeRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("reqs_total", "requests").Add(42)
	r.Gauge("temp", "temperature").Set(-3.25)
	r.GaugeFunc("live", "liveness", func() float64 { return 1 })
	r.CounterFunc("ticks_total", "ticks", func() float64 { return 7 })
	r.LabeledGaugeFunc("replica_in_flight", "in flight", "replica", "http://a:1", func() float64 { return 2 })
	r.LabeledGaugeFunc("replica_in_flight", "in flight", "replica", "http://b:2", func() float64 { return 5 })
	hv := r.NewHistogramVec("lat_seconds", "latency", []float64{0.1, 1}, "endpoint")
	hv.With("plan").Observe(0.05)
	hv.With("plan").Observe(2)
	cv := r.NewCounterVec("codes_total", "codes", "endpoint", "code")
	cv.With("plan", "200").Add(3)
	cv.With("plan", `50"3`).Inc() // label value needing escaping

	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	got, err := ParseText(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	want := map[string]float64{
		"reqs_total":  42,
		"temp":        -3.25,
		"live":        1,
		"ticks_total": 7,
		`replica_in_flight{replica="http://a:1"}`:       2,
		`replica_in_flight{replica="http://b:2"}`:       5,
		`lat_seconds_bucket{endpoint="plan",le="0.1"}`:  1,
		`lat_seconds_bucket{endpoint="plan",le="1"}`:    1,
		`lat_seconds_bucket{endpoint="plan",le="+Inf"}`: 2,
		`lat_seconds_count{endpoint="plan"}`:            2,
		`codes_total{endpoint="plan",code="200"}`:       3,
		`codes_total{endpoint="plan",code="50\"3"}`:     1,
	}
	for k, w := range want {
		v, ok := got[k]
		if !ok {
			t.Errorf("scrape missing %s", k)
			continue
		}
		if v != w {
			t.Errorf("%s = %v, want %v", k, v, w)
		}
	}
}

// TestWriteTextDeterministic: two scrapes of the same registry are
// byte-identical, and series within a family come out sorted.
func TestWriteTextDeterministic(t *testing.T) {
	r := NewRegistry()
	v := r.NewCounterVec("x_total", "x", "k")
	v.With("zebra").Inc()
	v.With("apple").Inc()
	var a, b strings.Builder
	if err := r.WriteText(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("scrapes differ:\n%s\n---\n%s", a.String(), b.String())
	}
	ia := strings.Index(a.String(), `k="apple"`)
	iz := strings.Index(a.String(), `k="zebra"`)
	if ia < 0 || iz < 0 || ia > iz {
		t.Errorf("series not sorted by label:\n%s", a.String())
	}
}

// TestRegisterConflicts pins the fail-fast behavior on misuse.
func TestRegisterConflicts(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "a")
	mustPanic(t, "kind conflict", func() { r.Gauge("a_total", "a") })
	mustPanic(t, "vec arity", func() { r.NewCounterVec("b_total", "b", "x", "y").With("only-one") })
	r.LabeledGaugeFunc("rep", "rep", "replica", "u1", func() float64 { return 0 })
	mustPanic(t, "duplicate labeled func", func() {
		r.LabeledGaugeFunc("rep", "rep", "replica", "u1", func() float64 { return 0 })
	})
}

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	fn()
}

// TestParseTextErrors: malformed scrapes are rejected, not silently
// mis-parsed.
func TestParseTextErrors(t *testing.T) {
	for _, bad := range []string{"novalue", "name abc"} {
		if _, err := ParseText(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseText(%q): expected error", bad)
		}
	}
	m, err := ParseText(strings.NewReader("# HELP x y\n\nx 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if m["x"] != 1 {
		t.Errorf("x = %v, want 1", m["x"])
	}
}
