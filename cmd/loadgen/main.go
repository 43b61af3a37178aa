// Command loadgen drives a running pland with an open-loop workload and
// reports latency percentiles, throughput, and plans/sec — the measuring
// half of the serving benchmark (BENCH_serve.json).
//
// Usage:
//
//	loadgen -url http://127.0.0.1:8080 [-rate 200] [-duration 10s]
//	        [-mix atlas=1] [-batch-size 64] [-max-inflight 64]
//	        [-n 200] [-alg SCB] [-scale 10] [-pr-max 20] [-rr-max 20]
//	        [-seed 1] [-json] [-fail-on-error] [-max-p99 0]
//	        [-metrics-check]
//	        [-ramp 50:400:8] [-step-duration 5s] [-out BENCH_degrade.json]
//
// -ramp replaces the single fixed-rate phase with a stepped rate sweep
// (open loop throughout): the offered rate climbs linearly from start
// to end over the given number of steps, each held for -step-duration.
// After every step the server's /metrics is scraped and the report
// records that step's latency quantiles, availability, and answer-tier
// mix (Δ pland_answers_total{tier=...}) — the degradation curve of the
// shed ladder. The run fails if the transition matrix shows the ladder
// ever skipped a rung. The JSON report goes to -out (default stdout).
//
// The arrival process is open-loop: operations launch on a fixed clock
// regardless of how many are still in flight, so a slow server shows up
// as queueing delay in the percentiles instead of silently lowering the
// offered rate. -max-inflight bounds the client's own fan-out; arrivals
// that would exceed it are counted as dropped, not blocked.
//
// -mix weights three operation classes (comma-separated class=weight):
//
//	atlas   single /v1/plan requests whose ratio sits ON the atlas
//	        lattice given by -scale/-pr-max/-rr-max — O(1) answers
//	search  single /v1/plan requests just OFF the lattice, cycling a
//	        small scenario pool so both cold searches and cache hits
//	        appear, like real off-atlas traffic
//	batch   /v1/plan:batch requests carrying -batch-size on-lattice
//	        items each (each item counts toward plans/sec)
//
// -metrics-check scrapes /metrics after the run and fails (exit 1)
// unless the atlas tier actually served (pland_atlas_hits_total > 0)
// and — for a pure atlas mix — the search engine never ran
// (pland_searched_total == 0 and push_runs_total unchanged from the
// pre-run scrape). -fail-on-error and -max-p99 turn the run into a CI
// gate.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/atlas"
	"repro/internal/metrics"
	wire "repro/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("loadgen: ")
	os.Exit(run())
}

// mix is the parsed -mix: cumulative thresholds over [0, 1).
type mix struct {
	atlas, search float64 // batch is the remainder
}

func parseMix(s string) (mix, error) {
	w := map[string]float64{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return mix{}, fmt.Errorf("bad -mix component %q (want class=weight)", part)
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil || f < 0 {
			return mix{}, fmt.Errorf("bad -mix weight %q", part)
		}
		switch name {
		case "atlas", "search", "batch":
			w[name] += f
		default:
			return mix{}, fmt.Errorf("unknown -mix class %q (want atlas, search, or batch)", name)
		}
	}
	total := w["atlas"] + w["search"] + w["batch"]
	if total <= 0 {
		return mix{}, fmt.Errorf("-mix has no positive weight")
	}
	return mix{atlas: w["atlas"] / total, search: (w["atlas"] + w["search"]) / total}, nil
}

// classOf maps one uniform draw to an operation class.
func (m mix) classOf(u float64) string {
	switch {
	case u < m.atlas:
		return "atlas"
	case u < m.search:
		return "search"
	}
	return "batch"
}

// recorder accumulates one class's latencies and counts.
type recorder struct {
	mu      sync.Mutex
	lat     []float64 // milliseconds
	ops     int
	plans   int
	errors  int
	errMsgs map[string]int
}

func (r *recorder) record(latMS float64, plans int, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops++
	if err != nil {
		r.errors++
		if r.errMsgs == nil {
			r.errMsgs = map[string]int{}
		}
		msg := err.Error()
		if len(msg) > 120 {
			msg = msg[:120]
		}
		r.errMsgs[msg]++
		return
	}
	r.plans += plans
	r.lat = append(r.lat, latMS)
}

// percentile reads p (0..100) from sorted data.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p / 100 * float64(len(sorted)-1))
	return sorted[idx]
}

// classReport is one class's slice of the -json output.
type classReport struct {
	Ops    int     `json:"ops"`
	Plans  int     `json:"plans"`
	Errors int     `json:"errors"`
	P50MS  float64 `json:"p50_ms"`
	P95MS  float64 `json:"p95_ms"`
	P99MS  float64 `json:"p99_ms"`
	MaxMS  float64 `json:"max_ms"`
}

func (r *recorder) report() classReport {
	r.mu.Lock()
	defer r.mu.Unlock()
	sort.Float64s(r.lat)
	rep := classReport{Ops: r.ops, Plans: r.plans, Errors: r.errors}
	if n := len(r.lat); n > 0 {
		rep.P50MS = percentile(r.lat, 50)
		rep.P95MS = percentile(r.lat, 95)
		rep.P99MS = percentile(r.lat, 99)
		rep.MaxMS = r.lat[n-1]
	}
	return rep
}

// scenarios generates the request bodies for each class from the atlas
// grid parameters, so on-lattice really means on the server's lattice.
type scenarios struct {
	n       int
	alg     string
	onGrid  []string // lattice ratio strings (atlas hits)
	offGrid []string // just-off-lattice ratio strings (searched)
}

func buildScenarios(n int, algStr string, scale int, prMax, rrMax float64, searchPool int) (*scenarios, error) {
	g, err := atlas.NewGrid(scale, prMax, rrMax)
	if err != nil {
		return nil, err
	}
	sc := &scenarios{n: n, alg: algStr}
	for idx := 0; idx < g.Cells(); idx++ {
		c := g.Cell(idx)
		if !g.Valid(c) {
			continue
		}
		r := g.Ratio(c)
		sc.onGrid = append(sc.onGrid, r.String())
		if len(sc.offGrid) < searchPool {
			// Nudge Pr by a half step: guaranteed off-lattice, still a
			// legal ratio (Pr only grows, Pr ≥ Rr ≥ Sr holds).
			off := r
			off.Pr += g.Step() / 2
			sc.offGrid = append(sc.offGrid, off.String())
		}
	}
	if len(sc.onGrid) == 0 {
		return nil, fmt.Errorf("grid has no valid cells")
	}
	return sc, nil
}

func (sc *scenarios) planReq(rng *rand.Rand, onLattice bool) wire.PlanRequest {
	pool := sc.onGrid
	if !onLattice {
		pool = sc.offGrid
	}
	return wire.PlanRequest{N: sc.n, Ratio: pool[rng.Intn(len(pool))], Algorithm: sc.alg}
}

// scrape fetches url's /metrics into a name→value map.
func scrape(client *http.Client, url string) (map[string]float64, error) {
	resp, err := client.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: HTTP %d", resp.StatusCode)
	}
	return metrics.ParseText(resp.Body)
}

// rampStep is one step's slice of the ramp report.
type rampStep struct {
	Step       int     `json:"step"`
	RatePerSec float64 `json:"rate_per_sec"`
	Sent       int     `json:"sent"`
	Dropped    int     `json:"dropped"`
	Errors     int     `json:"errors"`
	OK         int     `json:"ok"`
	// Availability is successful answers over offered (non-dropped)
	// operations: 1.0 means the server answered everything it was sent.
	Availability float64 `json:"availability"`
	P50MS        float64 `json:"p50_ms"`
	P95MS        float64 `json:"p95_ms"`
	P99MS        float64 `json:"p99_ms"`
	MaxMS        float64 `json:"max_ms"`
	// TierMix is this step's served answers by answer tier
	// (Δ pland_answers_total{tier=...}).
	TierMix map[string]float64 `json:"tier_mix"`
	// Rejected is this step's 429s (Δ pland_shed_total).
	Rejected float64 `json:"rejected"`
	// ShedTierEnd is the shed ladder rung at the end of the step.
	ShedTierEnd string `json:"shed_tier_end"`
}

// rampReport is the BENCH_degrade.json schema.
type rampReport struct {
	Ramp            string             `json:"ramp"`
	StepDurationSec float64            `json:"step_duration_sec"`
	Steps           []rampStep         `json:"steps"`
	Transitions     map[string]float64 `json:"tier_transitions"`
	NoRungSkipped   bool               `json:"no_rung_skipped"`
}

func parseRamp(s string) (start, end float64, steps int, err error) {
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return 0, 0, 0, fmt.Errorf("bad -ramp %q (want start:end:steps)", s)
	}
	if start, err = strconv.ParseFloat(parts[0], 64); err != nil || start <= 0 {
		return 0, 0, 0, fmt.Errorf("bad -ramp start %q", parts[0])
	}
	if end, err = strconv.ParseFloat(parts[1], 64); err != nil || end <= 0 {
		return 0, 0, 0, fmt.Errorf("bad -ramp end %q", parts[1])
	}
	if steps, err = strconv.Atoi(parts[2]); err != nil || steps < 2 {
		return 0, 0, 0, fmt.Errorf("bad -ramp steps %q (want ≥ 2)", parts[2])
	}
	return start, end, steps, nil
}

// tierTransitionSkips scans the transition matrix for non-adjacent
// moves. The server pre-touches every adjacent from/to pair at zero, so
// any series with |from−to| ≠ 1 — or any count on a pair that should
// not exist — is a rung skip.
func tierTransitionSkips(mx map[string]float64) []string {
	idx := map[string]int{}
	for i, n := range wire.ShedTiers {
		idx[n] = i
	}
	var skips []string
	for series, v := range mx {
		from, to, ok := parseFromTo(series)
		if !ok {
			skips = append(skips, fmt.Sprintf("unparseable transition series %q", series))
			continue
		}
		fi, fok := idx[from]
		ti, tok := idx[to]
		if !fok || !tok || (fi-ti != 1 && ti-fi != 1) {
			if v > 0 || !fok || !tok {
				skips = append(skips, fmt.Sprintf("%s→%s ×%g", from, to, v))
			}
		}
	}
	return skips
}

// parseFromTo extracts from/to labels out of a series key like
// `pland_tier_transitions_total{from="search",to="bounded"}`.
func parseFromTo(series string) (from, to string, ok bool) {
	grab := func(label string) (string, bool) {
		i := strings.Index(series, label+`="`)
		if i < 0 {
			return "", false
		}
		rest := series[i+len(label)+2:]
		j := strings.IndexByte(rest, '"')
		if j < 0 {
			return "", false
		}
		return rest[:j], true
	}
	from, fok := grab("from")
	to, tok := grab("to")
	return from, to, fok && tok
}

// runRamp steps the offered rate from start to end and records, per
// step, the latency quantiles and the server's answer-tier mix — the
// degradation curve. It also asserts the structural no-skip property of
// the shed ladder from the transition matrix.
func runRamp(spec string, stepDur time.Duration, outFile string, client *http.Client, url string,
	runPhase func(rate float64, dur time.Duration) (map[string]*recorder, int, int, time.Duration)) int {
	start, end, steps, err := parseRamp(spec)
	if err != nil {
		log.Print(err)
		return 2
	}
	rep := rampReport{Ramp: spec, StepDurationSec: stepDur.Seconds()}

	before, err := scrape(client, url)
	if err != nil {
		log.Printf("pre-ramp metrics scrape: %v", err)
		return 2
	}
	for i := 0; i < steps; i++ {
		rate := start + (end-start)*float64(i)/float64(steps-1)
		recs, sent, dropped, _ := runPhase(rate, stepDur)
		after, err := scrape(client, url)
		if err != nil {
			log.Printf("step %d metrics scrape: %v", i+1, err)
			return 1
		}

		st := rampStep{Step: i + 1, RatePerSec: rate, Sent: sent, Dropped: dropped,
			TierMix: map[string]float64{}}
		var all []float64
		for _, r := range recs {
			r.mu.Lock()
			all = append(all, r.lat...)
			st.Errors += r.errors
			st.OK += r.ops - r.errors
			r.mu.Unlock()
		}
		if served := sent - dropped; served > 0 {
			st.Availability = float64(st.OK) / float64(served)
		}
		sort.Float64s(all)
		if n := len(all); n > 0 {
			st.P50MS = percentile(all, 50)
			st.P95MS = percentile(all, 95)
			st.P99MS = percentile(all, 99)
			st.MaxMS = all[n-1]
		}
		for tier := range (wire.Stats{}).AnswerTiers() {
			key := fmt.Sprintf(`pland_answers_total{tier=%q}`, tier)
			st.TierMix[tier] = after[key] - before[key]
		}
		st.Rejected = after["pland_shed_total"] - before["pland_shed_total"]
		if rung := int(after["pland_shed_tier"]); rung >= 0 && rung < len(wire.ShedTiers) {
			st.ShedTierEnd = wire.ShedTiers[rung]
		}
		rep.Steps = append(rep.Steps, st)
		log.Printf("step %d/%d @ %.0f ops/s: %d ok, %d errors, %d dropped, p99 %.1fms, tier=%s, mix %v",
			i+1, steps, rate, st.OK, st.Errors, dropped, st.P99MS, st.ShedTierEnd, st.TierMix)
		before = after
	}

	final, err := scrape(client, url)
	if err != nil {
		log.Printf("post-ramp metrics scrape: %v", err)
		return 1
	}
	rep.Transitions = map[string]float64{}
	for series, v := range final {
		if strings.HasPrefix(series, "pland_tier_transitions_total{") {
			rep.Transitions[series] = v
		}
	}
	skips := tierTransitionSkips(rep.Transitions)
	rep.NoRungSkipped = len(skips) == 0

	var w io.Writer = os.Stdout
	if outFile != "" {
		f, err := os.Create(outFile)
		if err != nil {
			log.Printf("-out: %v", err)
			return 1
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		log.Printf("write report: %v", err)
		return 1
	}
	if len(skips) > 0 {
		log.Printf("FAIL: shed ladder skipped rungs: %v", skips)
		return 1
	}
	return 0
}

func run() int {
	var (
		url         = flag.String("url", "", "base URL of the pland under test (required)")
		rate        = flag.Float64("rate", 200, "offered operations per second (open loop)")
		duration    = flag.Duration("duration", 10*time.Second, "how long to offer load")
		mixStr      = flag.String("mix", "atlas=1", "workload mix, e.g. atlas=0.8,search=0.15,batch=0.05")
		batchSize   = flag.Int("batch-size", 64, "items per /v1/plan:batch operation")
		maxInflight = flag.Int("max-inflight", 64, "client-side fan-out bound; arrivals past it are dropped")
		n           = flag.Int("n", 200, "matrix dimension for generated requests")
		algStr      = flag.String("alg", "SCB", "algorithm for generated requests")
		scale       = flag.Int("scale", 10, "atlas lattice step is 1/scale (match the served atlas)")
		prMax       = flag.Float64("pr-max", 20, "atlas grid Pr bound (match the served atlas)")
		rrMax       = flag.Float64("rr-max", 20, "atlas grid Rr bound (match the served atlas)")
		searchPool  = flag.Int("search-pool", 32, "distinct off-lattice scenarios the search class cycles")
		seed        = flag.Int64("seed", 1, "scenario sampling seed")
		jsonOut     = flag.Bool("json", false, "emit the report as JSON on stdout")
		failOnErr   = flag.Bool("fail-on-error", false, "exit 1 if any operation failed")
		maxP99      = flag.Duration("max-p99", 0, "exit 1 if any class's p99 exceeds this (0 = no gate)")
		metricsChk  = flag.Bool("metrics-check", false, "scrape /metrics and assert the atlas tier served (and, for a pure atlas mix, that search never ran)")

		rampStr      = flag.String("ramp", "", "run a rate ramp instead of one phase: start:end:steps in ops/sec (e.g. 50:400:8)")
		stepDuration = flag.Duration("step-duration", 5*time.Second, "how long each ramp step offers its rate")
		outFile      = flag.String("out", "", "write the ramp report JSON to this file (empty = stdout)")
	)
	flag.Parse()
	if *url == "" {
		log.Print("-url is required")
		return 2
	}
	m, err := parseMix(*mixStr)
	if err != nil {
		log.Print(err)
		return 2
	}
	sc, err := buildScenarios(*n, *algStr, *scale, *prMax, *rrMax, *searchPool)
	if err != nil {
		log.Print(err)
		return 2
	}
	if *rate <= 0 || *batchSize < 1 || *maxInflight < 1 {
		log.Print("-rate, -batch-size, and -max-inflight must be positive")
		return 2
	}

	httpClient := &http.Client{Timeout: 30 * time.Second}
	var before map[string]float64
	if *metricsChk {
		if before, err = scrape(httpClient, *url); err != nil {
			log.Printf("pre-run metrics scrape: %v", err)
			return 2
		}
	}

	rng := rand.New(rand.NewSource(*seed))
	var reqMu sync.Mutex // guards rng: operations draw scenarios concurrently
	drawReq := func(onLattice bool) wire.PlanRequest {
		reqMu.Lock()
		defer reqMu.Unlock()
		return sc.planReq(rng, onLattice)
	}
	drawBatch := func() wire.BatchPlanRequest {
		reqMu.Lock()
		defer reqMu.Unlock()
		items := make([]wire.PlanRequest, *batchSize)
		for i := range items {
			items[i] = sc.planReq(rng, true)
		}
		return wire.BatchPlanRequest{Items: items}
	}

	post := func(path string, body, out any) error {
		raw, err := json.Marshal(body)
		if err != nil {
			return err
		}
		resp, err := httpClient.Post(*url+path, "application/json", bytes.NewReader(raw))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s: HTTP %d: %.120s", path, resp.StatusCode, data)
		}
		return json.Unmarshal(data, out)
	}

	runOp := func(recs map[string]*recorder, class string) {
		start := time.Now()
		var plans int
		var err error
		switch class {
		case "batch":
			var resp wire.BatchPlanResponse
			if err = post("/v1/plan:batch", drawBatch(), &resp); err == nil {
				plans = resp.Succeeded
				if resp.Failed > 0 {
					err = fmt.Errorf("batch: %d/%d items failed", resp.Failed, len(resp.Items))
				}
			}
		default:
			var resp wire.PlanResponse
			if err = post("/v1/plan", drawReq(class == "atlas"), &resp); err == nil {
				plans = 1
			}
		}
		recs[class].record(float64(time.Since(start))/float64(time.Millisecond), plans, err)
	}

	// runPhase offers one open-loop phase: arrivals on a fixed clock,
	// late arrivals burst to catch up, a full semaphore drops (never
	// blocks the clock).
	runPhase := func(rate float64, dur time.Duration) (recs map[string]*recorder, sent, dropped int, elapsed time.Duration) {
		recs = map[string]*recorder{"atlas": {}, "search": {}, "batch": {}}
		sem := make(chan struct{}, *maxInflight)
		var wg sync.WaitGroup
		interval := time.Duration(float64(time.Second) / rate)
		start := time.Now()
		deadline := start.Add(dur)
		for next := start; next.Before(deadline); next = next.Add(interval) {
			if d := time.Until(next); d > 0 {
				time.Sleep(d)
			}
			reqMu.Lock()
			class := m.classOf(rng.Float64())
			reqMu.Unlock()
			sent++
			select {
			case sem <- struct{}{}:
				wg.Add(1)
				go func() {
					defer wg.Done()
					runOp(recs, class)
					<-sem
				}()
			default:
				dropped++
				recs[class].record(0, 0, fmt.Errorf("dropped: max-inflight reached"))
			}
		}
		wg.Wait()
		return recs, sent, dropped, time.Since(start)
	}

	if *rampStr != "" {
		return runRamp(*rampStr, *stepDuration, *outFile, httpClient, *url, runPhase)
	}

	recs, sent, dropped, elapsed := runPhase(*rate, *duration)

	type report struct {
		Mix         string                 `json:"mix"`
		RatePerSec  float64                `json:"offered_rate_per_sec"`
		DurationSec float64                `json:"duration_sec"`
		Sent        int                    `json:"sent"`
		Dropped     int                    `json:"dropped"`
		Errors      int                    `json:"errors"`
		Plans       int                    `json:"plans"`
		OpsPerSec   float64                `json:"achieved_ops_per_sec"`
		PlansPerSec float64                `json:"plans_per_sec"`
		Classes     map[string]classReport `json:"classes"`
	}
	rep := report{
		Mix:         *mixStr,
		RatePerSec:  *rate,
		DurationSec: elapsed.Seconds(),
		Sent:        sent,
		Dropped:     dropped,
		Classes:     map[string]classReport{},
	}
	okOps := 0
	for class, r := range recs {
		cr := r.report()
		if cr.Ops == 0 {
			continue
		}
		rep.Classes[class] = cr
		rep.Errors += cr.Errors
		rep.Plans += cr.Plans
		okOps += cr.Ops - cr.Errors
	}
	rep.OpsPerSec = float64(okOps) / elapsed.Seconds()
	rep.PlansPerSec = float64(rep.Plans) / elapsed.Seconds()

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(rep)
	} else {
		fmt.Printf("mix %s: %d sent (%d dropped, %d errors) in %.1fs → %.0f ops/s, %.0f plans/s\n",
			*mixStr, sent, dropped, rep.Errors, elapsed.Seconds(), rep.OpsPerSec, rep.PlansPerSec)
		for _, class := range []string{"atlas", "search", "batch"} {
			cr, ok := rep.Classes[class]
			if !ok {
				continue
			}
			fmt.Printf("  %-6s %6d ops  %8d plans  p50 %8.3fms  p95 %8.3fms  p99 %8.3fms  max %8.3fms\n",
				class, cr.Ops, cr.Plans, cr.P50MS, cr.P95MS, cr.P99MS, cr.MaxMS)
		}
	}
	for class, r := range recs {
		r.mu.Lock()
		for msg, count := range r.errMsgs {
			log.Printf("%s: %d× %s", class, count, msg)
		}
		r.mu.Unlock()
	}

	exit := 0
	if *failOnErr && (rep.Errors > 0 || dropped > 0) {
		log.Printf("FAIL: %d errors, %d dropped with -fail-on-error", rep.Errors, dropped)
		exit = 1
	}
	if *maxP99 > 0 {
		gate := float64(*maxP99) / float64(time.Millisecond)
		for class, cr := range rep.Classes {
			if cr.P99MS > gate {
				log.Printf("FAIL: %s p99 %.3fms exceeds -max-p99 %v", class, cr.P99MS, *maxP99)
				exit = 1
			}
		}
	}
	if *metricsChk {
		after, err := scrape(httpClient, *url)
		if err != nil {
			log.Printf("post-run metrics scrape: %v", err)
			return 1
		}
		if hits := after["pland_atlas_hits_total"] - before["pland_atlas_hits_total"]; hits <= 0 {
			log.Printf("FAIL: metrics-check: pland_atlas_hits_total did not grow (Δ=%g) — the atlas tier never served", hits)
			exit = 1
		} else {
			log.Printf("metrics-check: atlas tier served %g answers", hits)
		}
		if m.atlas >= 1 { // pure atlas mix
			if ds := after["pland_searched_total"] - before["pland_searched_total"]; ds != 0 {
				log.Printf("FAIL: metrics-check: pland_searched_total grew by %g on a pure atlas mix", ds)
				exit = 1
			}
			if dp := after["push_runs_total"] - before["push_runs_total"]; dp != 0 {
				log.Printf("FAIL: metrics-check: push_runs_total grew by %g on a pure atlas mix — the search engine ran", dp)
				exit = 1
			}
		}
	}
	return exit
}
