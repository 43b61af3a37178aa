package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	heteropart "repro"
	"repro/internal/atlas"
	"repro/internal/metrics"
	planserve "repro/internal/serve"
	wire "repro/serve"
)

const (
	planN = 128
	// requestTimeout is serve.Client's default deadline.
	requestTimeout = "10s"
	// failedLatency stands in for the latency of a failed request, so that
	// it ranks slower than any success (which answers within the deadline).
	failedLatency = 10 * time.Second
	// The atlas of the plan workloads: scale 4 over Pr, Rr ≤ 10 at n=128,
	// SCB on the fully connected topology — 703 valid cells.
	atlasScale = 4
	atlasMax   = 10
	// hotCacheScenarios off-lattice scenarios are planned by plan_hot's
	// set-up; every fourth timed request repeats one of them.
	hotCacheScenarios = 64
	hotSeqLen         = 1 << 16
	// searchSeed and boundedSteps are serve.Config's defaults for
	// SearchSeed and BoundedSearchSteps: the server searches every
	// scenario with them, so the replays that check its answers must too.
	searchSeed   = 1
	boundedSteps = 256
	// planClients is the closed loop's client count: one per core.
	planClients = 2
	// planSetupReps set-ups are timed per run; setup_s is their median.
	planSetupReps = 3
	// tracedReplays bounds the requests of the traced window that are
	// replayed through the layer functions.
	tracedReplays = 300
	// lookupReps atlas lookups are timed in one span (one takes ~30ns).
	lookupReps = 1000
	// digestPrefix off-lattice scenarios make plan_search's input digest.
	digestPrefix = 4096
	// opsGroup consecutive requests of a client make one throughput sample.
	opsGroup = 20
	// planWindows timed windows make an untraced run; the answers of one
	// are checked before the next starts. Spread so over about twice the
	// measured time, and reported as medians over the windows, the
	// metrics move little when the shared machine slows for a while.
	planWindows = 5
	// warmUp of untimed closed-loop requests, on scenarios of their own,
	// precedes plan_search's timed windows.
	warmUp = time.Second
	// warmUpSalt derives the warm-up's scenario stream from the seed.
	warmUpSalt = 0x3a17
)

var (
	algCycle  = []string{"SCB", "PCB", "SCO", "PCO", "PIO"}
	topoCycle = []string{"fully-connected", "star", "2+1:10", "3-island:10"}
)

// scenario is one /v1/plan request of a workload.
type scenario struct {
	ratio string
	alg   string
	topo  string
	atlas bool   // on the atlas lattice: answered from the atlas
	body  []byte // the encoded wire.PlanRequest
}

func newScenario(ratio, alg, topo string, onAtlas bool) *scenario {
	body, err := json.Marshal(wire.PlanRequest{N: planN, Ratio: ratio, Algorithm: alg, Topology: topo})
	if err != nil {
		panic(err) // a struct of strings and ints always encodes
	}
	return &scenario{ratio: ratio, alg: alg, topo: topo, atlas: onAtlas, body: body}
}

func (s *scenario) key() string { return s.ratio + "|" + s.alg + "|" + s.topo }

func (s *scenario) request() wire.PlanRequest {
	return wire.PlanRequest{N: planN, Ratio: s.ratio, Algorithm: s.alg, Topology: s.topo}
}

// machine is the platform model the server plans the scenario on.
func (s *scenario) machine() (heteropart.Ratio, heteropart.Algorithm, heteropart.Machine, error) {
	ratio, err := heteropart.ParseRatio(s.ratio)
	if err != nil {
		return ratio, 0, heteropart.Machine{}, err
	}
	alg, err := heteropart.ParseAlgorithm(s.alg)
	if err != nil {
		return ratio, 0, heteropart.Machine{}, err
	}
	spec, err := heteropart.ParseTopologySpec(s.topo)
	if err != nil {
		return ratio, 0, heteropart.Machine{}, err
	}
	return ratio, alg, spec.Apply(heteropart.DefaultMachine(ratio)), nil
}

func digest(scs []*scenario) string {
	h := sha256.New()
	for _, s := range scs {
		fmt.Fprintln(h, s.key())
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// offLattice draws distinct scenarios off the atlas lattice: Pr in
// (1, 20] and Rr in [1, Pr] in steps of 0.001 with Sr = 1; the i-th
// scenario takes algorithm i mod 5 and topology i mod 4. The stream is
// a function of the seed alone, however fast it is consumed.
type offLattice struct {
	mu   sync.Mutex
	rng  *rand.Rand
	seen map[string]bool
	list []*scenario
}

func newOffLattice(seed int64) *offLattice {
	return &offLattice{rng: rand.New(rand.NewSource(seed)), seen: make(map[string]bool)}
}

func (o *offLattice) at(i int) *scenario {
	o.mu.Lock()
	defer o.mu.Unlock()
	for len(o.list) <= i {
		o.list = append(o.list, o.draw(len(o.list)))
	}
	return o.list[i]
}

func (o *offLattice) draw(i int) *scenario {
	alg, topo := algCycle[i%len(algCycle)], topoCycle[i%len(topoCycle)]
	for {
		pk := 1001 + o.rng.Intn(19000) // Pr = pk/1000
		rk := 1000 + o.rng.Intn(pk-999)
		if pk <= 1000*atlasMax && (pk-1000)%(1000/atlasScale) == 0 && (rk-1000)%(1000/atlasScale) == 0 {
			continue
		}
		sc := newScenario(milli(pk)+":"+milli(rk)+":1", alg, topo, false)
		if !o.seen[sc.key()] {
			o.seen[sc.key()] = true
			return sc
		}
	}
}

func milli(k int) string { return strconv.FormatFloat(float64(k)/1000, 'f', -1, 64) }

// ---------------------------------------------------------------------
// The server under test.

type planServer struct {
	srv   *planserve.Server
	atlas *atlas.Atlas
	hs    *http.Server
	url   string
	done  chan error
}

type planSetup struct {
	total, bake, warm time.Duration
}

// startPlanServer bakes the atlas, builds the server with the default
// config plus that atlas, pre-encodes every cell and serves it on a
// loopback port.
func startPlanServer(ctx context.Context) (*planServer, planSetup, error) {
	start := time.Now()
	grid, err := atlas.NewGrid(atlasScale, atlasMax, atlasMax)
	if err != nil {
		return nil, planSetup{}, err
	}
	a, err := atlas.Build(ctx, atlas.BuildConfig{
		Algorithm: heteropart.SCB, Topology: heteropart.FullyConnected, N: planN, Grid: grid,
	})
	if err != nil {
		return nil, planSetup{}, err
	}
	bake := time.Since(start)
	srv, err := planserve.New(planserve.Config{Atlas: a})
	if err != nil {
		return nil, planSetup{}, err
	}
	warmStart := time.Now()
	if enc, rej := srv.WarmAtlas(); rej != 0 || enc != a.ValidCells() {
		return nil, planSetup{}, fmt.Errorf("WarmAtlas encoded %d of %d cells, %d rejected", enc, a.ValidCells(), rej)
	}
	warm := time.Since(warmStart)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, planSetup{}, err
	}
	ps := &planServer{
		srv: srv, atlas: a,
		hs:   &http.Server{Handler: srv.Handler()},
		url:  "http://" + ln.Addr().String() + "/v1/plan",
		done: make(chan error, 1),
	}
	go func() { ps.done <- ps.hs.Serve(ln) }()
	return ps, planSetup{total: time.Since(start), bake: bake, warm: warm}, nil
}

func (p *planServer) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	err := p.hs.Shutdown(ctx)
	if serr := <-p.done; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	return err
}

// scrape reads the server's metrics registry, which also carries the
// process-global push_* counters.
func scrape(reg *metrics.Registry) (map[string]float64, error) {
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		return nil, err
	}
	return metrics.ParseText(&buf)
}

// sumPrefix adds every series whose name starts with prefix.
func sumPrefix(m map[string]float64, prefix string) float64 {
	var s float64
	for k, v := range m {
		if strings.HasPrefix(k, prefix) {
			s += v
		}
	}
	return s
}

// ---------------------------------------------------------------------
// The closed loop.

// sample is one request: what was sent, when, and what came back.
type sample struct {
	op         int64
	sc         *scenario
	start, end time.Time
	status     int
	body       []byte // kept only while it still has to be checked
	err        error
	spanID     int64
	inWindow   bool // answered before the window closed
	client     int  // which client of which window sent it
	v          verdict
}

func (s *sample) latency() time.Duration {
	if !s.v.ok {
		return max(s.end.Sub(s.start), failedLatency)
	}
	return s.end.Sub(s.start)
}

// client is one closed-loop client with its own keep-alive connection.
type client struct {
	tr *http.Transport
	c  *http.Client
}

func newClient() *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	// A server that overruns its own deadline fails the request, not the run.
	return &client{tr: tr, c: &http.Client{Transport: tr, Timeout: failedLatency + 5*time.Second}}
}

func (c *client) post(url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Request-Timeout", requestTimeout)
	resp, err := c.c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// drive runs planClients closed-loop clients until d has passed: client
// by client, each sends the next request as soon as the previous one is
// answered. next maps the k-th request of the window to its scenario,
// onResponse runs on the client goroutine right after the body is read.
// With rec set, each request is recorded as a client span. win numbers
// the window within the run.
func drive(url string, d time.Duration, win int, ops *atomic.Int64, next func(k int64) *scenario,
	onResponse func(*sample), rec *recorder) (samples []*sample) {
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		k        atomic.Int64
		start    = time.Now()
		deadline = start.Add(d)
	)
	for ci := range planClients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient()
			defer c.tr.CloseIdleConnections()
			var local []*sample
			for time.Now().Before(deadline) {
				sc := next(k.Add(1) - 1)
				s := &sample{op: ops.Add(1), sc: sc, client: win*planClients + ci, start: time.Now()}
				s.status, s.body, s.err = c.post(url, sc.body)
				s.end = time.Now()
				s.spanID = rec.add("client.plan", 0, s.op, s.start, s.end)
				onResponse(s)
				local = append(local, s)
			}
			mu.Lock()
			samples = append(samples, local...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	for _, s := range samples {
		s.inWindow = !s.end.After(deadline)
	}
	return samples
}

// ---------------------------------------------------------------------
// Answer checks.

// verdict is the outcome of checking one answer.
type verdict struct {
	ok   bool   // the answer is what the library computes for its tier
	full bool   // full quality: not degraded, and no search cut short
	tier string // atlas, cache, searched, bounded, degraded
	err  error
}

func fail(format string, args ...any) verdict {
	return verdict{err: fmt.Errorf(format, args...)}
}

// searchOutcome is the part of a search the server reports.
type searchOutcome struct {
	steps          int
	initial, final int64
	converged      bool
	archetype      string
}

// expectation is what the library computes for one scenario. The
// replays run at most once per scenario, on first need.
type expectation struct {
	planOnce sync.Once
	plan     *heteropart.Plan
	planErr  error

	fullOnce, boundedOnce sync.Once
	full, bounded         searchOutcome
	fullErr, boundedErr   error
}

// verifier checks answers against the library, remembering what it
// computed per scenario.
type verifier struct {
	mu   sync.Mutex
	memo map[string]*expectation
}

func newVerifier() *verifier { return &verifier{memo: make(map[string]*expectation)} }

func (v *verifier) expect(sc *scenario) *expectation {
	v.mu.Lock()
	defer v.mu.Unlock()
	e := v.memo[sc.key()]
	if e == nil {
		e = &expectation{}
		v.memo[sc.key()] = e
	}
	return e
}

func (e *expectation) wantPlan(sc *scenario) (*heteropart.Plan, error) {
	e.planOnce.Do(func() {
		_, alg, m, err := sc.machine()
		if err != nil {
			e.planErr = err
			return
		}
		e.plan, e.planErr = heteropart.NewPlan(alg, m, planN)
	})
	return e.plan, e.planErr
}

// searchConfig is the configuration the server's search runs with.
func searchConfig(ratio heteropart.Ratio, maxSteps int) heteropart.SearchConfig {
	return heteropart.SearchConfig{N: planN, Ratio: ratio, Seed: searchSeed, MaxSteps: maxSteps, Beautify: true}
}

func replaySearch(sc *scenario, maxSteps int) (searchOutcome, error) {
	ratio, err := heteropart.ParseRatio(sc.ratio)
	if err != nil {
		return searchOutcome{}, err
	}
	res, err := heteropart.Search(searchConfig(ratio, maxSteps))
	if err != nil {
		return searchOutcome{}, err
	}
	return searchOutcome{
		steps: res.Steps, initial: res.InitialVoC, final: res.FinalVoC,
		converged: res.Converged, archetype: heteropart.Classify(res.Final).String(),
	}, nil
}

func (e *expectation) fullSearch(sc *scenario) (searchOutcome, error) {
	e.fullOnce.Do(func() { e.full, e.fullErr = replaySearch(sc, 0) })
	return e.full, e.fullErr
}

func (e *expectation) boundedSearch(sc *scenario) (searchOutcome, error) {
	e.boundedOnce.Do(func() { e.bounded, e.boundedErr = replaySearch(sc, boundedSteps) })
	return e.bounded, e.boundedErr
}

// check decides whether one answer is correct for the tier that gave
// it: a valid plan for the scenario asked, with the shape, VoC and
// modelled cost of heteropart.NewPlan, and — for a searched or cached
// answer — the search result of push replayed with the server's
// configuration, at full or at the bounded rung's step budget.
func (v *verifier) check(sc *scenario, status int, body []byte, reqErr error) verdict {
	if reqErr != nil {
		return fail("request: %v", reqErr)
	}
	if status != http.StatusOK {
		return fail("HTTP %d: %.200s", status, body)
	}
	var resp wire.PlanResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fail("undecodable answer: %v", err)
	}
	if err := wire.VerifyPlanResponse(sc.request(), &resp); err != nil {
		return fail("invalid plan: %v", err)
	}
	e := v.expect(sc)
	want, err := e.wantPlan(sc)
	if err != nil {
		return fail("library plan: %v", err)
	}
	got := resp.Plan
	if got.Topology != want.Topology || got.Shape != want.Shape || got.VoC != want.VoC || got.Expected != want.Expected || got.Grid != want.Grid {
		return fail("plan %s/%s voc %d differs from heteropart.NewPlan's %s/%s voc %d",
			got.Shape, got.Topology, got.VoC, want.Shape, want.Topology, want.VoC)
	}
	switch {
	case resp.Degraded:
		if !resp.DegradedReason.Known() {
			return fail("unknown degraded reason %q", resp.DegradedReason)
		}
		return verdict{ok: true, tier: "degraded"}
	case resp.Source == wire.SourceAtlas:
		if !sc.atlas || resp.Search != nil {
			return fail("atlas answer for an off-atlas scenario")
		}
		return verdict{ok: true, full: true, tier: "atlas"}
	case resp.Source == wire.SourceSearch || resp.Source == wire.SourceCache:
		s := resp.Search
		if s == nil {
			return fail("%s answer without a search summary", resp.Source)
		}
		if s.Improved != (s.FinalVoC < got.VoC) {
			return fail("search summary says improved=%v with final VoC %d vs plan VoC %d", s.Improved, s.FinalVoC, got.VoC)
		}
		reported := searchOutcome{steps: s.Steps, initial: s.InitialVoC, final: s.FinalVoC, converged: s.Converged, archetype: s.Archetype}
		tier := "searched"
		if resp.Source == wire.SourceCache {
			tier = "cache"
		}
		full, err := e.fullSearch(sc)
		if err != nil {
			return fail("push replay: %v", err)
		}
		if reported == full {
			return verdict{ok: true, full: true, tier: tier}
		}
		bounded, err := e.boundedSearch(sc)
		if err != nil {
			return fail("push replay: %v", err)
		}
		if reported == bounded {
			return verdict{ok: true, tier: "bounded"}
		}
		return fail("search result %+v differs from push replay %+v", reported, full)
	default:
		return fail("unknown answer source %q", resp.Source)
	}
}

// checkAll checks every sample whose body is still kept, on planClients
// goroutines, and drops the bodies.
func (v *verifier) checkAll(samples []*sample) {
	var wg sync.WaitGroup
	work := make(chan *sample)
	for range planClients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range work {
				s.v = v.check(s.sc, s.status, s.body, s.err)
				s.body = nil
			}
		}()
	}
	for _, s := range samples {
		if s.body != nil || s.err != nil || s.status != http.StatusOK {
			work <- s
		}
	}
	close(work)
	wg.Wait()
}

// answerKey is the part of an answer that repeats exactly from one
// answer of a scenario to the next: everything before the top-level
// elapsedMs field, which is the last one.
func answerKey(body []byte) uint32 {
	if i := bytes.LastIndex(body, []byte(`,"elapsedMs":`)); i >= 0 {
		body = body[:i]
	}
	return crc32.Checksum(body, castagnoli)
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ---------------------------------------------------------------------
// The workloads.

// planRun is one run of a plan workload.
type planRun struct {
	hot      bool
	ps       *planServer
	ver      *verifier
	rec      *recorder
	ops      atomic.Int64
	setups   []planSetup
	warmups  []*sample // untimed answers: plan_hot's cache warm-up, plan_search's warm-up
	search   *offLattice
	mix      *hotMix
	samples  []*sample // every timed request
	traced   []*sample // the traced window's requests
	untraced []*sample // trace mode: the untraced half window
	windowS  float64   // timed seconds
	moved    serverDelta
}

// serverDelta is how far the server's counters and metrics registry
// moved during the timed windows, summed window by window: the push_*
// series are process-global, so the checks run between windows must
// not count.
type serverDelta struct {
	reg      map[string]float64
	stats    wire.Stats
	shedTier string // the ladder's rung when the last window closed
}

// hotMix is plan_hot's traffic: seq[k] picks the scenario of the k-th
// request — three of every four an atlas cell, the fourth one of the
// scenarios set-up planned.
type hotMix struct {
	cells  []*scenario
	cached []*scenario
	seq    []*scenario
	want   map[*scenario]reference
}

// reference is a scenario's answer checked in full before the window.
type reference struct {
	key uint32 // its answerKey
	v   verdict
}

func newHotMix(seed int64) (*hotMix, error) {
	grid, err := atlas.NewGrid(atlasScale, atlasMax, atlasMax)
	if err != nil {
		return nil, err
	}
	h := &hotMix{want: make(map[*scenario]reference)}
	for idx := 0; idx < grid.Cells(); idx++ {
		if c := grid.Cell(idx); grid.Valid(c) {
			h.cells = append(h.cells, newScenario(grid.Ratio(c).String(), "SCB", "fully-connected", true))
		}
	}
	cached := newOffLattice(seed ^ 0x5ca1ab1e)
	for i := range hotCacheScenarios {
		h.cached = append(h.cached, cached.at(i))
	}
	rng := rand.New(rand.NewSource(seed))
	h.seq = make([]*scenario, hotSeqLen)
	for k := range h.seq {
		if k%4 == 3 {
			h.seq[k] = h.cached[rng.Intn(len(h.cached))]
		} else {
			h.seq[k] = h.cells[rng.Intn(len(h.cells))]
		}
	}
	return h, nil
}

func (h *hotMix) digest() string {
	return digest(append(append([]*scenario(nil), h.cached...), h.seq...))
}

// setUp times planSetupReps complete set-ups and keeps the last server.
func (r *planRun) setUp(ctx context.Context) error {
	for range planSetupReps {
		if r.ps != nil {
			if err := r.ps.close(); err != nil {
				return err
			}
			r.ps = nil
		}
		ps, st, err := startPlanServer(ctx)
		if err != nil {
			return err
		}
		r.ps = ps
		if r.hot {
			start := time.Now()
			r.warmups = r.warmCache()
			st.total += time.Since(start)
		}
		r.setups = append(r.setups, st)
	}
	return nil
}

// warmCache plans every cached scenario of plan_hot through the server,
// two clients at a time, as the timed requests will.
func (r *planRun) warmCache() []*sample {
	var (
		next atomic.Int64
		mu   sync.Mutex
		out  []*sample
		wg   sync.WaitGroup
	)
	for range planClients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient()
			defer c.tr.CloseIdleConnections()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(r.mix.cached) {
					return
				}
				s := &sample{sc: r.mix.cached[i], start: time.Now()}
				s.status, s.body, s.err = c.post(r.ps.url, s.sc.body)
				s.end = time.Now()
				mu.Lock()
				out = append(out, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out
}

// reference fetches and fully checks one answer per plan_hot scenario
// before the window, so that a timed answer is checked by comparing its
// answerKey with the reference's.
func (r *planRun) reference() {
	c := newClient()
	defer c.tr.CloseIdleConnections()
	var refs []*sample
	for _, sc := range append(append([]*scenario(nil), r.mix.cells...), r.mix.cached...) {
		s := &sample{sc: sc}
		s.status, s.body, s.err = c.post(r.ps.url, sc.body)
		refs = append(refs, s)
	}
	keys := make(map[*sample]uint32, len(refs))
	for _, s := range refs {
		keys[s] = answerKey(s.body)
	}
	r.ver.checkAll(refs)
	for _, s := range refs {
		if s.v.ok {
			r.mix.want[s.sc] = reference{keys[s], s.v}
		}
	}
}

// warm runs plan_search's untimed warm-up on scenarios no timed request
// asks for, and checks its answers.
func (r *planRun) warm(seed int64) {
	stream := newOffLattice(seed ^ warmUpSalt)
	next := func(k int64) *scenario { return stream.at(int(k)) }
	var ops atomic.Int64
	r.warmups = drive(r.ps.url, warmUp, 0, &ops, next, func(*sample) {}, nil)
	r.ver.checkAll(r.warmups)
}

// measured runs window, a timed window, and adds how far the server's
// counters moved during it to r.moved.
func (r *planRun) measured(window func()) error {
	reg := r.ps.srv.MetricsRegistry()
	before, err := scrape(reg)
	if err != nil {
		return err
	}
	sb := r.ps.srv.Stats()
	window()
	after, err := scrape(reg)
	if err != nil {
		return err
	}
	sa := r.ps.srv.Stats()
	if r.moved.reg == nil {
		r.moved.reg = make(map[string]float64, len(after))
	}
	for k, v := range after {
		r.moved.reg[k] += v - before[k]
	}
	m := &r.moved.stats
	m.Requests += sa.Requests - sb.Requests
	m.AtlasHits += sa.AtlasHits - sb.AtlasHits
	m.CacheHits += sa.CacheHits - sb.CacheHits
	m.Searched += sa.Searched - sb.Searched
	m.Degraded += sa.Degraded - sb.Degraded
	m.Coalesced += sa.Coalesced - sb.Coalesced
	m.Shed += sa.Shed - sb.Shed
	m.GateFallbacks += sa.GateFallbacks - sb.GateFallbacks
	r.moved.shedTier = sa.ShedTier
	return nil
}

// window runs the timed closed loop for d; win numbers it within the run.
func (r *planRun) window(d time.Duration, win int, rec *recorder) []*sample {
	r.windowS += d.Seconds()
	base := r.ops.Load() // the timed requests before this window
	if !r.hot {
		next := func(k int64) *scenario { return r.search.at(int(base + k)) }
		return drive(r.ps.url, d, win, &r.ops, next, func(*sample) {}, rec)
	}
	next := func(k int64) *scenario { return r.mix.seq[(base+k)%hotSeqLen] }
	onResponse := func(s *sample) {
		if s.err != nil || s.status != http.StatusOK {
			return // checked in full after the window
		}
		if ref, ok := r.mix.want[s.sc]; ok && answerKey(s.body) == ref.key {
			s.v = ref.v
			s.body = nil
		}
	}
	return drive(r.ps.url, d, win, &r.ops, next, onResponse, rec)
}

// runPlan runs plan_search (hot=false) or plan_hot (hot=true).
func runPlan(ctx context.Context, cfg runConfig, hot bool) (*outcome, error) {
	r := &planRun{hot: hot, ver: newVerifier()}
	out := newOutcome()
	if hot {
		mix, err := newHotMix(cfg.seed)
		if err != nil {
			return nil, err
		}
		r.mix = mix
		out.record["scenarios"] = fmt.Sprintf("%d atlas cells, %d cached scenarios, %d-draw sequence", len(mix.cells), len(mix.cached), len(mix.seq))
		out.record["scenario_digest"] = mix.digest()
	} else {
		r.search = newOffLattice(cfg.seed)
		prefix := make([]*scenario, digestPrefix)
		for i := range prefix {
			prefix[i] = r.search.at(i)
		}
		out.record["scenarios"] = fmt.Sprintf("off-lattice stream, digest over the first %d", digestPrefix)
		out.record["scenario_digest"] = digest(prefix)
	}

	err := r.setUp(ctx)
	if r.ps != nil {
		defer r.ps.close()
	}
	if err != nil {
		return nil, err
	}
	if hot {
		r.ver.checkAll(r.warmups)
		r.reference()
	} else {
		r.warm(cfg.seed)
	}

	d := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		err = r.measured(func() {
			r.untraced = r.window(d/2, 0, nil)
			r.rec = newRecorder()
			r.traced = r.window(d/2, 1, r.rec)
		})
		r.samples = append(append([]*sample(nil), r.untraced...), r.traced...)
		r.ver.checkAll(r.samples)
	} else {
		for win := 0; win < planWindows && err == nil; win++ {
			var ws []*sample
			err = r.measured(func() { ws = r.window(d/planWindows, win, nil) })
			// The server idles while its answers are checked.
			r.ver.checkAll(ws)
			r.samples = append(r.samples, ws...)
		}
	}
	if err != nil {
		return nil, err
	}

	r.endToEnd(out)
	r.counts(out)
	if cfg.trace {
		r.replayTraced()
		r.perLayer(out)
	}
	return out, nil
}

// endToEnd fills the end-to-end metrics and the named plan metrics.
// Throughput is the median over runs of consecutive requests of one
// client, and the latency quantiles are medians over the timed windows,
// so that one of the rare searches that take seconds, or the shared
// machine slowing for a while, moves them little. The named metrics in
// the record are over all timed requests.
func (r *planRun) endToEnd(out *outcome) {
	for _, s := range r.warmups {
		out.attempt(s.v.ok, s.v.err)
	}
	var lat []float64
	byWindow := map[int][]float64{}
	full, correct := 0, 0
	for _, s := range r.samples {
		out.attempt(s.v.ok, s.v.err)
		ms := float64(s.latency()) / float64(time.Millisecond)
		lat = append(lat, ms)
		byWindow[s.client/planClients] = append(byWindow[s.client/planClients], ms)
		if s.v.full {
			full++
		}
		if s.v.ok && s.inWindow {
			correct++
		}
	}
	setup := make([]float64, len(r.setups))
	for i, st := range r.setups {
		setup[i] = st.total.Seconds()
	}
	var p50s, p95s []float64
	for w := range len(byWindow) {
		p50s = append(p50s, quantile(byWindow[w], 0.5))
		p95s = append(p95s, quantile(byWindow[w], 0.95))
	}
	out.e2e["ops_per_s"] = planClients * median(groupRates(r.samples))
	out.e2e["p50_ms"] = median(p50s)
	out.e2e["tail_ms"] = median(p95s)
	out.e2e["full_ratio"] = ratio(float64(full), float64(len(r.samples)))
	out.e2e["setup_s"] = median(setup)
	out.setNamed("plans_per_s", float64(correct)/r.windowS, "plans/s")
	out.setNamed("plan_p50_ms", quantile(lat, 0.5), "ms")
	out.setNamed("plan_p95_ms", quantile(lat, 0.95), "ms")
	// p99 moved ±20% between runs of plan_search: recorded, not bounded.
	out.setNamed("plan_p99_ms", quantile(lat, 0.99), "ms")
	out.setNamed("plan_full_ratio", out.e2e["full_ratio"], "ratio")
	out.record["latency_samples"] = len(lat)
	out.record["window_p50_ms"] = p50s
	out.record["window_p95_ms"] = p95s
	out.record["tail_percentile"] = 95
}

// groupRates cuts each client's requests answered in the window into
// runs of consecutive ones — opsGroup to 2·opsGroup−1 long, or all of
// them when there are fewer — and returns each run's correct answers per
// second.
func groupRates(samples []*sample) []float64 {
	byClient := map[int][]*sample{}
	for _, s := range samples {
		if s.inWindow {
			byClient[s.client] = append(byClient[s.client], s)
		}
	}
	var rates []float64
	for _, ss := range byClient {
		sort.Slice(ss, func(i, j int) bool { return ss[i].start.Before(ss[j].start) })
		groups := max(1, len(ss)/opsGroup)
		for k := range groups {
			g := ss[k*len(ss)/groups : (k+1)*len(ss)/groups]
			ok := 0
			for _, s := range g {
				if s.v.ok {
					ok++
				}
			}
			rates = append(rates, ratio(float64(ok), g[len(g)-1].end.Sub(g[0].start).Seconds()))
		}
	}
	return rates
}

// counts records, for every run, how the answers were produced: the
// verdicts' tiers and the server's own counters over the windows.
func (r *planRun) counts(out *outcome) {
	tiers := func(samples []*sample) map[string]int {
		n := map[string]int{}
		for _, s := range samples {
			if s.v.ok {
				n[s.v.tier]++
			} else {
				n["failed"]++
			}
		}
		return n
	}
	out.record["answers"] = tiers(r.samples)
	out.record["warmup_answers"] = tiers(r.warmups)
	m := r.moved.stats
	out.record["server"] = map[string]int64{
		"requests":         m.Requests,
		"atlas":            m.AtlasHits,
		"cache":            m.CacheHits,
		"searched":         m.Searched,
		"degraded":         m.Degraded,
		"coalesced":        m.Coalesced,
		"shed":             m.Shed,
		"gate_fallbacks":   m.GateFallbacks,
		"tier_transitions": int64(sumPrefix(r.moved.reg, "pland_tier_transitions_total")),
		"push_runs":        int64(r.moved.reg["push_runs_total"]),
	}
	out.record["shed_tier_at_end"] = r.moved.shedTier
}

// replayTraced replays a sample of the traced window's requests through
// the layer functions, each replay a child of its request's client span.
func (r *planRun) replayTraced() {
	step := max(1, (len(r.traced)+tracedReplays-1)/tracedReplays)
	h := r.ps.srv.Handler()
	for i := 0; i < len(r.traced); i += step {
		s := r.traced[i]
		r.replay(h, s)
	}
}

func (r *planRun) replay(h http.Handler, s *sample) {
	rec, parent, op, sc := r.rec, s.spanID, s.op, s.sc
	ratio, alg, m, err := sc.machine()
	if err != nil {
		return
	}
	start := time.Now()
	req := httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(sc.body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Request-Timeout", requestTimeout)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	end := time.Now()
	var resp wire.PlanResponse
	if json.Unmarshal(rr.Body.Bytes(), &resp) == nil {
		rec.add("serve.handler."+resp.Source, parent, op, start, end)
		rec.timed("serve.encode", parent, op, func() { _, _ = json.Marshal(&resp) })
	}
	if sc.atlas {
		rec.timed("atlas.lookup", parent, op, func() {
			for range lookupReps {
				r.ps.atlas.Lookup(ratio)
			}
		})
	}
	rec.timed("heteropart.optimal", parent, op, func() { _, _, _ = heteropart.Optimal(alg, m, planN) })
	for _, shape := range heteropart.AllShapes {
		var g *heteropart.Partition
		rec.timed("partition.build", parent, op, func() { g, err = heteropart.BuildShape(shape, planN, ratio) })
		if err == nil {
			rec.timed("model.evaluate", parent, op, func() { heteropart.Evaluate(alg, m, g) })
		}
	}
	if !sc.atlas {
		var res *heteropart.SearchResult
		rec.timed("push.search", parent, op, func() { res, err = heteropart.Search(searchConfig(ratio, 0)) })
		if err == nil {
			rec.timed("shape.classify", parent, op, func() { heteropart.Classify(res.Final) })
		}
	}
}

// perLayer fills the traced run's per-layer metrics. A call's time is
// the median over its spans, which a GC pause or a stolen time slice
// moves little.
func (r *planRun) perLayer(out *outcome) {
	spans := r.rec.all()
	ms := func(name string) float64 { return median(durations(spans, name)) * 1e3 }
	us := func(name string) float64 { return median(durations(spans, name)) * 1e6 }
	delta := func(k string) float64 { return r.moved.reg[k] }
	m := r.moved.stats

	out.layer["push.search_ms"] = ms("push.search")
	out.layer["push.steps"] = delta("push_steps_total")
	out.layer["push.runs"] = delta("push_runs_total")
	unconverged := 0
	r.ver.mu.Lock()
	for _, e := range r.ver.memo {
		if e.full.steps > 0 && !e.full.converged {
			unconverged++
		}
	}
	r.ver.mu.Unlock()
	out.layer["push.unconverged"] = float64(unconverged)
	out.layer["push.condense_s"] = delta(`push_phase_seconds_total{phase="condense"}`)
	out.layer["push.beautify_s"] = delta(`push_phase_seconds_total{phase="beautify"}`)
	out.layer["push.memo_hit_ratio"] = ratio(delta("push_memo_hits_total"), delta("push_memo_probes_total"))

	out.layer["heteropart.optimal_ms"] = ms("heteropart.optimal")
	out.layer["partition.build_us"] = us("partition.build")
	out.layer["model.evaluate_us"] = us("model.evaluate")
	out.layer["shape.classify_us"] = us("shape.classify")

	out.layer["serve.handler_atlas_us"] = us("serve.handler." + wire.SourceAtlas)
	out.layer["serve.handler_cache_us"] = us("serve.handler." + wire.SourceCache)
	out.layer["serve.encode_us"] = us("serve.encode")
	var clientSum float64
	for _, s := range r.samples {
		clientSum += s.end.Sub(s.start).Seconds()
	}
	serverSum := delta(`pland_request_duration_seconds_sum{endpoint="plan"}`)
	out.layer["serve.transport_us"] = ratio(clientSum-serverSum, float64(len(r.samples))) * 1e6
	requests := float64(m.Requests)
	out.layer["serve.atlas_hit_ratio"] = ratio(float64(m.AtlasHits), requests)
	out.layer["serve.cache_hit_ratio"] = ratio(float64(m.CacheHits), requests)
	bounded := 0
	for _, s := range r.samples {
		if s.v.tier == "bounded" {
			bounded++
		}
	}
	out.layer["serve.bounded_answers"] = float64(bounded)
	out.layer["serve.degraded"] = float64(m.Degraded)
	out.layer["serve.coalesced"] = float64(m.Coalesced)
	out.layer["serve.tier_transitions"] = sumPrefix(r.moved.reg, "pland_tier_transitions_total")

	out.layer["atlas.lookup_ns"] = median(durations(spans, "atlas.lookup")) / lookupReps * 1e9
	var bake, warm []float64
	for _, st := range r.setups {
		bake = append(bake, st.bake.Seconds())
		warm = append(warm, st.warm.Seconds())
	}
	out.layer["atlas.bake_s"] = median(bake)
	out.layer["atlas.warm_s"] = median(warm)

	out.layer["plan.p99_ms"] = out.named["plan_p99_ms"].Value
	out.layer["trace.overhead_pct"] = overheadPct(latencies(r.untraced), latencies(r.traced))
	out.spans = spans
}

func latencies(samples []*sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = s.latency().Seconds()
	}
	return out
}

// overheadPct compares the median of a traced window with an untraced one.
func overheadPct(untraced, traced []float64) float64 {
	return (ratio(median(traced), median(untraced)) - 1) * 100
}
