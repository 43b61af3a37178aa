// Package serve implements the partition-planning service behind
// cmd/pland: an HTTP JSON API over the heteropart planner wrapped in a
// robustness stack —
//
//   - per-request deadlines propagated from the Request-Timeout header
//     into context.Context and down to push.RunContext;
//   - admission control with a bounded work queue (throttle.Gate) and
//     load shedding (429 + Retry-After);
//   - singleflight coalescing of identical plan requests;
//   - a TTL result cache whose expired entries double as the degraded-
//     mode inventory, persisted across restarts via internal/journal;
//   - a circuit breaker over the Push-search path;
//   - degraded-mode fallback: when the search cannot meet the deadline
//     (or the breaker is open) the response is the canonical-candidate
//     answer — the paper's six provably-strong shapes — marked Degraded;
//   - panic-isolated handlers and a draining mode for graceful SIGTERM
//     shutdown.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	heteropart "repro"
	"repro/internal/atlas"
	"repro/internal/calibrate"
	"repro/internal/journal"
	"repro/internal/partition"
	"repro/internal/push"
	"repro/internal/shape"
	"repro/internal/sim"
	"repro/internal/throttle"
	wire "repro/serve"
)

// Config parameterises a Server. Zero fields select the documented
// defaults.
type Config struct {
	// DefaultTimeout is the serving deadline when the client sends no
	// Request-Timeout header (default 2s); MaxTimeout clamps what a
	// client may ask for (default 30s).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration

	// MaxConcurrent bounds in-flight planning work (default GOMAXPROCS);
	// MaxQueue bounds callers waiting for a slot (default 2×MaxConcurrent).
	// Callers beyond both are shed with 429.
	MaxConcurrent int
	MaxQueue      int

	// MaxN bounds the accepted matrix dimension (default 2000): an
	// unbounded N is an O(N²)-memory request from the network.
	MaxN int
	// MaxSearchSteps clamps a /v1/search request's step bound
	// (default 1e6; 0 in a request selects the engine default of 40·N).
	MaxSearchSteps int

	// CacheTTL is the freshness window of the plan cache (default 5m).
	CacheTTL time.Duration

	// BreakerThreshold consecutive search failures open the circuit
	// breaker for BreakerCooldown (defaults 3 and 5s; threshold < 0
	// disables the breaker).
	BreakerThreshold int
	BreakerCooldown  time.Duration

	// SearchSeed is the refinement seed used when a request omits one
	// (default 1, so identical requests coalesce and cache).
	SearchSeed int64

	// Fault, when non-nil, injects a planner-CPU straggler: every
	// committed Push is billed FaultStepCost of nominal work against the
	// fault plan's processor-P windows and the handler sleeps out the
	// stretch. This is the serving twin of sim.SimulateFaults — it makes
	// deadline pressure reproducible for tests and drills.
	Fault         *sim.FaultPlan
	FaultStepCost time.Duration

	// Machine builds the platform model for a ratio (default
	// heteropart.DefaultMachine).
	Machine func(ratio heteropart.Ratio) heteropart.Machine

	// Atlas, when non-nil, is the first answer tier: plan requests whose
	// scenario sits exactly on the atlas grid are served the baked winner
	// in O(1), before admission control and without touching the search
	// engine. Requires the default machine model — the atlas was baked
	// with it, and a custom model could change the winners.
	Atlas *atlas.Atlas

	// MaxBatchItems bounds the plan items in one /v1/plan:batch request
	// (default 1024); MaxBatchBytes bounds its body size (default 8 MiB).
	MaxBatchItems int
	MaxBatchBytes int64

	// The adaptive shed ladder (see tuning.go). ShedTargetLatency is
	// the latency the EWMA is normalized against (default 300ms);
	// ShedInterval how often the ladder re-evaluates (default 100ms).
	ShedTargetLatency time.Duration
	ShedInterval      time.Duration

	// Logf receives operational log lines (default: discard).
	Logf func(format string, args ...any)
}

// Fixed serving parameters.
const (
	// maxReplyMargin caps the reply margin: the part of a deadline kept
	// for encoding the answer, 10% of the remaining time.
	maxReplyMargin = 50 * time.Millisecond
	// minSearchBudget is the smallest search budget worth starting a
	// search for; below it the request degrades at once rather than start
	// work that is sure to be abandoned.
	minSearchBudget = 10 * time.Millisecond
	// shedUp and shedDown are the load-signal thresholds for climbing and
	// descending a ladder rung; the gap between them is the hysteresis.
	shedUp, shedDown = 0.85, 0.5
	// boundedSearchSteps is the step budget of a search at the bounded
	// rung.
	boundedSearchSteps = 256
	// cacheMax soft-caps the plan cache's entry count, and the number of
	// auto scenarios tracked for drift re-planning.
	cacheMax = 4096
)

func (c Config) withDefaults() Config {
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 2 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 30 * time.Second
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 2 * c.MaxConcurrent
	}
	if c.MaxN <= 0 {
		c.MaxN = 2000
	}
	if c.MaxSearchSteps <= 0 {
		c.MaxSearchSteps = 1_000_000
	}
	if c.CacheTTL <= 0 {
		c.CacheTTL = 5 * time.Minute
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerThreshold < 0 {
		c.BreakerThreshold = 0 // disabled
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	if c.SearchSeed == 0 {
		c.SearchSeed = 1
	}
	if c.Fault != nil && c.FaultStepCost <= 0 {
		c.FaultStepCost = 200 * time.Microsecond
	}
	if c.MaxBatchItems <= 0 {
		c.MaxBatchItems = 1024
	}
	if c.MaxBatchBytes <= 0 {
		c.MaxBatchBytes = 8 << 20
	}
	if c.ShedTargetLatency <= 0 {
		c.ShedTargetLatency = 300 * time.Millisecond
	}
	if c.ShedInterval <= 0 {
		c.ShedInterval = 100 * time.Millisecond
	}
	if c.Machine == nil {
		c.Machine = heteropart.DefaultMachine
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Server is the planning service. Create with New; serve via Handler.
type Server struct {
	cfg     Config
	gate    *throttle.Gate
	flights *flightGroup
	cache   *planCache
	brk     *breaker
	atlasSt atomic.Pointer[atlasState]
	ladder  *loadController

	// customMachine records whether Config.Machine was caller-supplied
	// (the atlas validity rules care; the post-defaults cfg cannot tell).
	customMachine bool

	// Self-tuning state: the published auto-ratio scenario, the tracked
	// auto keys for drift invalidation, and the attached calibrator
	// (metrics only — estimates flow through ApplyEstimate).
	scenario    atomic.Pointer[autoScenario]
	cal         atomic.Pointer[calibrate.Calibrator]
	autoMu      sync.Mutex
	autoTracked map[string]planInputs
	replans     atomic.Int64

	draining atomic.Bool

	journalMu  sync.Mutex
	journalErr string // non-empty: the cache journal failed its startup scrub

	requests      atomic.Int64
	shed          atomic.Int64
	gateFallbacks atomic.Int64
	degraded      atomic.Int64
	searched      atomic.Int64
	cacheHits     atomic.Int64
	cacheMisses   atomic.Int64
	staleServed   atomic.Int64
	coalesced     atomic.Int64
	panics        atomic.Int64
	atlasHits     atomic.Int64
	atlasRejects  atomic.Int64
	batchRequests atomic.Int64
	batchItems    atomic.Int64

	metrics *serverMetrics
}

// New builds a Server from cfg.
func New(cfg Config) (*Server, error) {
	// The atlas is baked against the default machine model; serving its
	// records under a different model would answer with another machine's
	// winners. Checked before withDefaults erases the distinction.
	if cfg.Atlas != nil && cfg.Machine != nil {
		return nil, fmt.Errorf("serve: Atlas requires the default machine model")
	}
	customMachine := cfg.Machine != nil
	cfg = cfg.withDefaults()
	if cfg.Atlas != nil && cfg.Atlas.N() > cfg.MaxN {
		return nil, fmt.Errorf("serve: atlas n=%d exceeds MaxN=%d; its scenarios would be rejected before lookup", cfg.Atlas.N(), cfg.MaxN)
	}
	gate, err := throttle.NewGate(cfg.MaxConcurrent, cfg.MaxQueue)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:           cfg,
		gate:          gate,
		flights:       newFlightGroup(),
		cache:         newPlanCache(cfg.CacheTTL),
		brk:           newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown),
		customMachine: customMachine,
		autoTracked:   make(map[string]planInputs),
		ladder: newLoadController(cfg.ShedTargetLatency, cfg.ShedInterval,
			shedUp, shedDown, time.Now()),
	}
	s.atlasSt.Store(newAtlasState(cfg.Atlas))
	s.ladder.onShift = func(from, to shedTier) {
		// s.metrics is assigned below, before any request can tick the
		// ladder.
		s.metrics.tierTrans.With(from.String(), to.String()).Inc()
		s.cfg.Logf("serve: shed ladder %s -> %s (load %.2f)", from, to, s.ladder.lastLoadSignal())
	}
	s.metrics = newServerMetrics(s)
	return s, nil
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	// /v1/plan and /v1/plan:batch admit inside the handler, not in the
	// wrapper: the atlas tier answers before the gate, so an on-atlas
	// request never queues behind search work.
	mux.Handle("/v1/plan", s.endpoint("plan", false, s.handlePlan))
	mux.Handle("/v1/plan:batch", s.endpoint("batch", false, s.handleBatch))
	mux.Handle("/v1/evaluate", s.endpoint("evaluate", true, s.handleEvaluate))
	mux.Handle("/v1/search", s.endpoint("search", true, s.handleSearch))
	mux.Handle("/v1/stats", s.endpoint("stats", false, s.handleStats))
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.HandleFunc("/readyz", s.handleReady)
	// The scrape stays up while draining — the drain itself is the
	// most interesting thing a dashboard will ever watch.
	mux.Handle("/metrics", s.metrics.reg.Handler())
	return mux
}

// BeginDrain flips the server into draining mode: every new request is
// refused with 503 while in-flight ones run to completion (the HTTP
// server's Shutdown waits for them). Idempotent.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// LoadCache warms the plan cache from a journal written by SaveCache,
// returning the number of entries loaded. A missing file loads nothing.
func (s *Server) LoadCache(path string) (int, error) { return s.cache.load(path) }

// SaveCache persists the plan cache (stale entries included — they are
// the degraded-mode inventory) to an atomic CRC-framed journal and
// compacts away any rotated segments the live journal left behind.
func (s *Server) SaveCache(path string) (int, error) { return s.cache.save(path) }

// JournalCache attaches a live rotating journal at path: every cache
// store is appended incrementally so a crash loses at most the torn
// tail, with size/age rotation bounding the on-disk footprint. Call
// after LoadCache; a later SaveCache supersedes and compacts it.
func (s *Server) JournalCache(path string, rc journal.RotateConfig) error {
	return s.cache.journalTo(path, rc)
}

// CacheJournalHealth reports the error that disabled live cache
// journaling, or nil while it is healthy (or not configured).
func (s *Server) CacheJournalHealth() error { return s.cache.journalHealth() }

// Stats snapshots the traffic counters.
func (s *Server) Stats() wire.Stats {
	st := wire.Stats{
		Replans:       s.replans.Load(),
		ShedTier:      s.ladder.current().String(),
		GateFallbacks: s.gateFallbacks.Load(),
		Requests:      s.requests.Load(),
		Shed:          s.shed.Load(),
		Degraded:      s.degraded.Load(),
		Searched:      s.searched.Load(),
		CacheHits:     s.cacheHits.Load(),
		CacheMisses:   s.cacheMisses.Load(),
		StaleServed:   s.staleServed.Load(),
		Coalesced:     s.coalesced.Load(),
		Panics:        s.panics.Load(),
		BreakerTrips:  s.brk.tripCount(),
		AtlasHits:     s.atlasHits.Load(),
		AtlasRejects:  s.atlasRejects.Load(),
		BatchRequests: s.batchRequests.Load(),
		BatchItems:    s.batchItems.Load(),
	}
	return st
}

// httpError carries a status code and optional backpressure hint from a
// handler to the endpoint wrapper.
type httpError struct {
	status     int
	msg        string
	retryAfter time.Duration
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) *httpError {
	return &httpError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// endpoint wraps a handler with the shared robustness stack: draining
// refusal, panic isolation, deadline derivation, and (when admit is set)
// admission control with load shedding.
func (s *Server) endpoint(name string, admit bool, h func(ctx context.Context, w http.ResponseWriter, r *http.Request) error) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		// Latency/outcome flush. Registered before the recover below so
		// it runs after it (LIFO): a quarantined panic's 500 is already
		// written to sw and lands in pland_responses_total like any
		// other outcome. started stays zero for drained refusals, which
		// are counted nowhere else either.
		var started time.Time
		defer func() {
			if started.IsZero() {
				return
			}
			elapsed := time.Since(started)
			s.metrics.latency.With(name).Observe(elapsed.Seconds())
			s.metrics.responses.With(name, strconv.Itoa(sw.statusOr(http.StatusOK))).Inc()
			// The shed ladder's latency signal watches the planning
			// endpoints only: probe and stats traffic must not mask (or
			// fake) planning-path pressure.
			if name == "plan" || name == "batch" {
				s.ladder.observe(elapsed)
			}
		}()
		// Panic isolation: one poisoned request must not take down the
		// process. The quarantine counter is the operator's signal.
		defer func() {
			if rec := recover(); rec != nil {
				s.panics.Add(1)
				s.cfg.Logf("serve: panic in %s handler quarantined: %v\n%s", name, rec, debug.Stack())
				writeError(sw, &httpError{status: http.StatusInternalServerError, msg: "internal error"})
			}
		}()
		if s.draining.Load() {
			sw.Header().Set("Connection", "close")
			writeError(sw, &httpError{status: http.StatusServiceUnavailable, msg: "draining", retryAfter: time.Second})
			return
		}
		s.requests.Add(1)
		s.metrics.requests.With(name).Inc()
		started = time.Now()

		timeout, err := requestTimeout(r, s.cfg.DefaultTimeout, s.cfg.MaxTimeout)
		if err != nil {
			writeError(sw, badRequest("bad Request-Timeout: %v", err))
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), timeout)
		defer cancel()

		if admit {
			switch err := s.gate.Acquire(ctx); {
			case errors.Is(err, throttle.ErrSaturated):
				s.shed.Add(1)
				writeError(sw, &httpError{status: http.StatusTooManyRequests, msg: "saturated: work queue full", retryAfter: time.Second})
				return
			case err != nil:
				writeError(sw, &httpError{status: http.StatusGatewayTimeout, msg: "deadline expired in admission queue"})
				return
			}
			defer s.gate.Release()
		}

		if err := h(ctx, sw, r); err != nil {
			var he *httpError
			if !errors.As(err, &he) {
				he = &httpError{status: http.StatusInternalServerError, msg: err.Error()}
			}
			writeError(sw, he)
		}
	})
}

// statusWriter records the first status code written so the endpoint
// wrapper can label the outcome counter.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) statusOr(def int) int {
	if w.status == 0 {
		return def
	}
	return w.status
}

func writeError(w http.ResponseWriter, e *httpError) {
	body := wire.ErrorBody{Error: e.msg}
	if e.retryAfter > 0 {
		body.RetryAfterMS = e.retryAfter.Milliseconds()
		secs := int(e.retryAfter.Seconds())
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	writeJSON(w, e.status, body)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// requestTimeout derives the serving deadline from the Request-Timeout
// header — a Go duration ("250ms") or an integer millisecond count —
// clamped to [1ms, max]; absent means def.
func requestTimeout(r *http.Request, def, max time.Duration) (time.Duration, error) {
	h := r.Header.Get("Request-Timeout")
	if h == "" {
		return def, nil
	}
	d, err := time.ParseDuration(h)
	if err != nil {
		ms, merr := strconv.ParseInt(h, 10, 64)
		if merr != nil {
			return 0, err
		}
		d = time.Duration(ms) * time.Millisecond
	}
	if d <= 0 {
		return 0, fmt.Errorf("non-positive timeout %q", h)
	}
	if d < time.Millisecond {
		d = time.Millisecond
	}
	if d > max {
		d = max
	}
	return d, nil
}

// ---------------------------------------------------------------------
// /v1/plan

// planInputs is a validated plan request plus its coalescing/cache key.
type planInputs struct {
	n     int
	ratio heteropart.Ratio
	alg   heteropart.Algorithm
	spec  heteropart.TopologySpec
	m     heteropart.Machine
	seed  int64
	auto  bool // ratio was "auto", resolved from the calibrated scenario
	key   string
}

// planFor builds the machine and cache key of one plan scenario, for a
// request and for a drift re-plan alike: the configured machine for
// ratio, then sc's calibrated β when one is published, then the topology
// spec. sc is nil unless the ratio was "auto".
func (s *Server) planFor(n int, ratio heteropart.Ratio, alg heteropart.Algorithm, spec heteropart.TopologySpec, seed int64, sc *autoScenario) planInputs {
	m := s.cfg.Machine(ratio)
	if sc != nil && sc.beta > 0 && s.atlasSt.Load() == nil {
		// Calibrated link estimate. Applied only without an atlas: the
		// atlas is baked for the default β, and serving its records
		// under another model would answer with a different machine's
		// winners (the cross-check would reject every cell anyway).
		m.Net.Beta = sc.beta
	}
	return planInputs{
		n:     n,
		ratio: ratio,
		alg:   alg,
		spec:  spec,
		// The spec applies after calibration so per-link multipliers
		// stack on the calibrated base β, not the factory default.
		m:    spec.Apply(m),
		seed: seed,
		auto: sc != nil,
		// The ratio is quantized into the key via Ratio.Key — the same
		// identity the atlas lattice snaps on — so the cache and the
		// atlas can never disagree about two ratios being the same
		// scenario (see partition.Ratio.Key). The topology enters as the
		// canonical spec string, which for the legacy names is exactly
		// the old Topology.String() — pre-existing keys are unchanged.
		key: fmt.Sprintf("%d|%s|%s|%s|%d", n, ratio.Key(), alg, spec, seed),
	}
}

func (s *Server) parsePlan(r *http.Request) (planInputs, error) {
	var req wire.PlanRequest
	if err := decodeRequest(r, &req, func(q url.Values) {
		req.N = atoiDefault(q.Get("n"), 0)
		req.Ratio = q.Get("ratio")
		req.Algorithm = firstOf(q.Get("algorithm"), q.Get("alg"))
		req.Topology = q.Get("topology")
		req.Seed = int64(atoiDefault(q.Get("seed"), 0))
	}); err != nil {
		return planInputs{}, err
	}
	return s.parsePlanRequest(req)
}

// parsePlanRequest validates one decoded plan request (the shared tail
// of /v1/plan parsing and per-item batch parsing).
func (s *Server) parsePlanRequest(req wire.PlanRequest) (planInputs, error) {
	if req.N < 4 || req.N > s.cfg.MaxN {
		return planInputs{}, badRequest("n must be in [4, %d], got %d", s.cfg.MaxN, req.N)
	}
	var (
		ratio heteropart.Ratio
		sc    *autoScenario
		err   error
	)
	if strings.EqualFold(req.Ratio, "auto") {
		// "auto" resolves against the latest calibrated scenario at
		// request time. The resolved ratio lands in the cache key below,
		// so once a new estimate publishes, the old keys can never be
		// hit again — a superseded plan is structurally unservable.
		sc = s.scenario.Load()
		if sc == nil {
			return planInputs{}, &httpError{
				status:     http.StatusServiceUnavailable,
				msg:        `ratio "auto": no calibrated scenario published yet`,
				retryAfter: time.Second,
			}
		}
		ratio = sc.ratio
	} else if ratio, err = heteropart.ParseRatio(req.Ratio); err != nil {
		return planInputs{}, badRequest("%v", err)
	}
	alg, err := heteropart.ParseAlgorithm(req.Algorithm)
	if err != nil {
		return planInputs{}, badRequest("%v", err)
	}
	spec, err := heteropart.ParseTopologySpec(req.Topology)
	if err != nil {
		// *model.ConfigError — the message names the offending entry.
		return planInputs{}, badRequest("%v", err)
	}
	seed := req.Seed
	if seed == 0 {
		seed = s.cfg.SearchSeed
	}
	in := s.planFor(req.N, ratio, alg, spec, seed, sc)
	if in.auto {
		s.trackAuto(in)
	}
	return in, nil
}

func (s *Server) handlePlan(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	in, err := s.parsePlan(r)
	if err != nil {
		return err
	}
	body, resp, err := s.answerPlan(ctx, in)
	switch {
	case err != nil:
		return err
	case body != nil:
		return writeAtlasBody(w, body)
	}
	if resp.Degraded {
		w.Header().Set("Degraded", "true")
	}
	writeJSON(w, http.StatusOK, resp)
	return nil
}

// answerPlan decides the answer to one validated plan scenario, for a
// /v1/plan request and for each /v1/plan:batch item alike. On success
// exactly one of body, a pre-encoded atlas answer, and resp is set. The
// order of the decision:
//
//  1. The ladder evaluates (at most once per interval) before the atlas
//     tier, so even an all-atlas workload lets an overloaded ladder
//     recover.
//  2. The atlas answers on-grid scenarios from the baked snapshot at
//     every rung, reject included, with no gate, flight, breaker or
//     search involvement: on-grid scenarios never lose availability.
//  3. The atlas and stale rungs answer with the fallback; the reject
//     rung answers 429.
//  4. The search rungs take an admission-gate slot. A saturated gate
//     does not fail the request: a full queue is an overload signal for
//     the ladder's next tick, not a client error, and the fallback is
//     always affordable.
//  5. planScenario: coalescing, cache and the deadline-bounded search.
func (s *Server) answerPlan(ctx context.Context, in planInputs) (body []byte, resp *wire.PlanResponse, err error) {
	tier := s.ladder.tick(time.Now(), s.loadSignal)
	if body, ok := s.atlasAnswer(in); ok {
		s.atlasHits.Add(1)
		return body, nil, nil
	}
	start := time.Now()
	switch tier {
	case tierAtlas, tierStale:
		resp, err = s.fallback(in, wire.DegradedLoadShed, tier == tierStale, nil)
	case tierReject:
		s.shed.Add(1)
		return nil, nil, &httpError{status: http.StatusTooManyRequests, msg: "load shed: serving atlas tier only", retryAfter: time.Second}
	default:
		switch aerr := s.gate.Acquire(ctx); {
		case errors.Is(aerr, throttle.ErrSaturated):
			s.gateFallbacks.Add(1)
			resp, err = s.fallback(in, wire.DegradedLoadShed, false, nil)
		case aerr != nil:
			return nil, nil, &httpError{status: http.StatusGatewayTimeout, msg: "deadline expired in admission queue"}
		default:
			defer s.gate.Release()
			resp, err = s.planScenario(ctx, in, tier == tierBounded)
		}
	}
	if err != nil {
		return nil, nil, err
	}
	resp.ElapsedMS = msSince(start)
	return nil, resp, nil
}

// planScenario runs the gated planning path for one validated scenario:
// singleflight coalescing, cache, bounded search, degraded fallback. The
// answer is the caller's own copy.
func (s *Server) planScenario(ctx context.Context, in planInputs, bounded bool) (*wire.PlanResponse, error) {
	// Waiters leave the coalesced flight early enough to still serve
	// their degraded fallback inside their own deadline.
	waitCtx, cancel := withReplyMargin(ctx)
	defer cancel()
	resp, shared, err := s.flights.do(waitCtx, in.key, func() (*wire.PlanResponse, error) {
		return s.computePlan(ctx, in, bounded)
	})
	if shared {
		s.coalesced.Add(1)
	}
	var wt *waiterTimeoutError
	if errors.As(err, &wt) {
		if ctx.Err() == nil {
			// The flight leader is still grinding but our deadline is close:
			// serve this caller the degraded fallback now.
			return s.fallback(in, wire.DegradedDeadline, true, nil)
		}
		// The full request deadline — not just the reply-margin one —
		// expired while coalesced. That is a deadline expiry, not a
		// server fault; report 504, not 500.
		return nil, &httpError{status: http.StatusGatewayTimeout, msg: "deadline expired while waiting on a coalesced flight"}
	}
	if err != nil {
		return nil, err
	}
	out := *resp
	return &out, nil
}

// computePlan is the flight leader's path: fresh cache, canonical
// evaluation, then the deadline-bounded search refinement with breaker
// and degraded fallback.
func (s *Server) computePlan(ctx context.Context, in planInputs, bounded bool) (*wire.PlanResponse, error) {
	if resp, fresh, ok := s.cache.get(in.key); ok && fresh {
		s.cacheHits.Add(1)
		resp.Source = wire.SourceCache
		return &resp, nil
	}
	s.cacheMisses.Add(1)

	plan, err := heteropart.NewPlan(in.alg, in.m, in.n)
	if err != nil {
		return nil, &httpError{status: http.StatusUnprocessableEntity, msg: err.Error()}
	}
	resp := &wire.PlanResponse{Plan: plan, Source: wire.SourceSearch}

	// The budget check runs before brk.allow(): a request destined to
	// degrade on deadline must never claim the breaker's single half-open
	// trial slot, since it has no search outcome to report.
	var reason wire.DegradedReason
	budget := s.searchBudget(ctx)
	switch {
	case budget < minSearchBudget:
		reason = wire.DegradedDeadline
	case !s.brk.allow():
		reason = wire.DegradedBreakerOpen
	default:
		maxSteps := 0
		if bounded {
			maxSteps = boundedSearchSteps
		}
		reason = s.refineSearch(ctx, budget, in, resp, maxSteps)
	}
	if reason != "" {
		return s.fallback(in, reason, true, plan)
	}
	s.cache.put(in.key, *resp)
	return resp, nil
}

// refineSearch runs the breaker-admitted search refinement, reports the
// outcome to the breaker, and returns the degraded reason ("" on
// success). Every admitted trial must end in exactly one of success(),
// failure(), or release(): the deferred release guarantees a half-open
// trial slot is returned even when the search panics or is abandoned,
// otherwise the slot would leak and the breaker would refuse every
// future trial until restart.
func (s *Server) refineSearch(ctx context.Context, budget time.Duration, in planInputs, resp *wire.PlanResponse, maxSteps int) (reason wire.DegradedReason) {
	reported := false
	defer func() {
		if !reported {
			s.brk.release()
		}
	}()
	sctx, cancel := context.WithTimeout(ctx, budget)
	defer cancel()
	sum, serr := s.runSearch(sctx, in.n, in.ratio, in.seed, maxSteps, true)
	switch {
	case serr == nil:
		s.brk.success()
		reported = true
		s.searched.Add(1)
		sum.Improved = sum.FinalVoC < resp.Plan.VoC
		resp.Search = sum
		return ""
	case errors.Is(serr, context.DeadlineExceeded):
		s.brk.failure()
		reported = true
		return wire.DegradedDeadline
	case errors.Is(serr, context.Canceled):
		// The flight leader's client disconnected mid-search. That says
		// nothing about backend health, so release the trial without a
		// verdict — impatient clients must not trip the breaker.
		return wire.DegradedCancelled
	default:
		s.brk.failure()
		reported = true
		s.cfg.Logf("serve: search refinement failed: %v", serr)
		return wire.DegradedSearchError
	}
}

// fallback builds every degraded answer: the paper's own fallback when
// a search cannot run or finish. With preferStale set (every path but
// the atlas rung and a saturated gate), a cached answer for the
// scenario, fresh or expired, comes first: it is served as Source
// stale-cache and keeps its search summary. Otherwise the answer is the
// canonical plan the caller already built, else the atlas's winner
// shape for the request's ratio at the request's n (one shape built
// instead of the six-way comparison), else the canonical plan built
// here.
func (s *Server) fallback(in planInputs, reason wire.DegradedReason, preferStale bool, canonical *heteropart.Plan) (*wire.PlanResponse, error) {
	s.degraded.Add(1)
	s.metrics.degraded.With(string(reason)).Inc()
	if preferStale {
		if stale, _, ok := s.cache.get(in.key); ok {
			s.staleServed.Add(1)
			stale.Degraded, stale.DegradedReason, stale.Source = true, reason, wire.SourceStaleCache
			return &stale, nil
		}
	}
	resp := &wire.PlanResponse{Plan: canonical, Degraded: true, DegradedReason: reason, Source: wire.SourceCanonical}
	if canonical != nil {
		return resp, nil
	}
	if plan := s.atlasShapeFallback(in); plan != nil {
		resp.Plan, resp.Source = plan, wire.SourceAtlasShape
		return resp, nil
	}
	plan, err := heteropart.NewPlan(in.alg, in.m, in.n)
	if err != nil {
		return nil, &httpError{status: http.StatusUnprocessableEntity, msg: err.Error()}
	}
	resp.Plan = plan
	return resp, nil
}

// searchBudget returns how much of ctx's deadline may be spent searching
// while leaving the reply margin intact.
func (s *Server) searchBudget(ctx context.Context) time.Duration {
	dl, ok := ctx.Deadline()
	if !ok {
		return s.cfg.MaxTimeout
	}
	remain := time.Until(dl)
	return remain - replyMargin(remain)
}

func replyMargin(remain time.Duration) time.Duration {
	return min(remain/10, maxReplyMargin)
}

// withReplyMargin derives the context a flight waiter may wait under:
// the request deadline minus the reply margin.
func withReplyMargin(ctx context.Context) (context.Context, context.CancelFunc) {
	dl, ok := ctx.Deadline()
	if !ok {
		return context.WithCancel(ctx)
	}
	remain := time.Until(dl)
	return context.WithDeadline(ctx, dl.Add(-replyMargin(remain)))
}

// runSearch executes one deadline-bounded Push search, billing each
// committed Push against the injected fault plan's straggler windows (the
// serving twin of the simulator's CPU stretch).
func (s *Server) runSearch(ctx context.Context, n int, ratio heteropart.Ratio, seed int64, maxSteps int, beautify bool) (*wire.SearchSummary, error) {
	cfg := push.Config{N: n, Ratio: ratio, Seed: seed, MaxSteps: maxSteps, Beautify: beautify}
	if s.cfg.Fault != nil {
		var virtual float64 // wall-clock position inside the fault profile
		nominal := s.cfg.FaultStepCost.Seconds()
		cfg.Snapshot = func(step int, _ *partition.Grid) {
			stretched := s.cfg.Fault.StretchCPU(partition.P, virtual, nominal)
			virtual += stretched
			if extra := stretched - nominal; extra > 0 {
				sleepCtx(ctx, time.Duration(extra*float64(time.Second)))
			}
		}
	}
	start := time.Now()
	res, err := push.RunContext(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return &wire.SearchSummary{
		Steps:      res.Steps,
		InitialVoC: res.InitialVoC,
		FinalVoC:   res.FinalVoC,
		Converged:  res.Converged,
		Archetype:  shape.Classify(res.Final).String(),
		ElapsedMS:  msSince(start),
	}, nil
}

// ---------------------------------------------------------------------
// /v1/evaluate

func (s *Server) handleEvaluate(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	var req wire.EvaluateRequest
	if err := decodeRequest(r, &req, func(q url.Values) {
		req.N = atoiDefault(q.Get("n"), 0)
		req.Ratio = q.Get("ratio")
		req.Algorithm = firstOf(q.Get("algorithm"), q.Get("alg"))
		req.Topology = q.Get("topology")
		req.Shape = q.Get("shape")
	}); err != nil {
		return err
	}
	if req.N < 4 || req.N > s.cfg.MaxN {
		return badRequest("n must be in [4, %d], got %d", s.cfg.MaxN, req.N)
	}
	ratio, err := heteropart.ParseRatio(req.Ratio)
	if err != nil {
		return badRequest("%v", err)
	}
	alg, err := heteropart.ParseAlgorithm(req.Algorithm)
	if err != nil {
		return badRequest("%v", err)
	}
	spec, err := heteropart.ParseTopologySpec(req.Topology)
	if err != nil {
		return badRequest("%v", err)
	}
	sh, err := heteropart.ParseShape(req.Shape)
	if err != nil {
		return badRequest("%v", err)
	}
	start := time.Now()
	m := spec.Apply(s.cfg.Machine(ratio))
	resp := wire.EvaluateResponse{Shape: sh.String()}
	g, err := heteropart.BuildShape(sh, req.N, ratio)
	switch {
	case errors.Is(err, heteropart.ErrInfeasible):
		resp.Feasible = false
	case err != nil:
		return badRequest("%v", err)
	default:
		resp.Feasible = true
		resp.VoC = g.VoC()
		resp.Breakdown = heteropart.Evaluate(alg, m, g)
		for _, proc := range []heteropart.Proc{heteropart.P, heteropart.R, heteropart.S} {
			resp.Procs = append(resp.Procs, wire.ProcShare{Processor: proc.String(), Elements: g.Count(proc)})
		}
	}
	resp.ElapsedMS = msSince(start)
	writeJSON(w, http.StatusOK, resp)
	return nil
}

// ---------------------------------------------------------------------
// /v1/search

func (s *Server) handleSearch(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	var req wire.SearchRequest
	if err := decodeRequest(r, &req, func(q url.Values) {
		req.N = atoiDefault(q.Get("n"), 0)
		req.Ratio = q.Get("ratio")
		req.Seed = int64(atoiDefault(q.Get("seed"), 0))
		req.MaxSteps = atoiDefault(q.Get("maxSteps"), 0)
		req.Beautify = q.Get("beautify") == "true" || q.Get("beautify") == "1"
	}); err != nil {
		return err
	}
	if req.N < 2 || req.N > s.cfg.MaxN {
		return badRequest("n must be in [2, %d], got %d", s.cfg.MaxN, req.N)
	}
	ratio, err := heteropart.ParseRatio(req.Ratio)
	if err != nil {
		return badRequest("%v", err)
	}
	if req.MaxSteps < 0 {
		return badRequest("maxSteps must be non-negative, got %d", req.MaxSteps)
	}
	maxSteps := searchStepBound(req.MaxSteps, req.N, s.cfg.MaxSearchSteps)
	seed := req.Seed
	if seed == 0 {
		seed = s.cfg.SearchSeed
	}
	start := time.Now()
	budget := s.searchBudget(ctx)
	if budget <= 0 {
		return &httpError{status: http.StatusGatewayTimeout, msg: "deadline too short for any search"}
	}
	sctx, cancel := context.WithTimeout(ctx, budget)
	defer cancel()
	sum, err := s.runSearch(sctx, req.N, ratio, seed, maxSteps, req.Beautify)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			return &httpError{status: http.StatusGatewayTimeout, msg: "search exceeded the request deadline"}
		}
		return badRequest("%v", err)
	}
	writeJSON(w, http.StatusOK, wire.SearchResponse{
		Steps:      sum.Steps,
		InitialVoC: sum.InitialVoC,
		FinalVoC:   sum.FinalVoC,
		Converged:  sum.Converged,
		Archetype:  sum.Archetype,
		ElapsedMS:  msSince(start),
	})
	return nil
}

// searchStepBound resolves a request's step bound against the configured
// cap: 0 selects the engine default (40·N), oversized requests clamp to
// the cap rather than silently resetting to the default.
func searchStepBound(requested, n, limit int) int {
	switch {
	case requested <= 0:
		return min(40*n, limit)
	case requested > limit:
		return limit
	default:
		return requested
	}
}

// ---------------------------------------------------------------------
// /v1/stats and /healthz

func (s *Server) handleStats(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	writeJSON(w, http.StatusOK, s.Stats())
	return nil
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Connection", "close")
		writeJSON(w, http.StatusServiceUnavailable, wire.ErrorBody{Error: "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// SetJournalHealth records the cache journal's startup-scrub outcome.
// A nil error marks the journal healthy; a non-nil one is surfaced by
// /readyz so operators see a replica running cold after a quarantine.
func (s *Server) SetJournalHealth(err error) {
	s.journalMu.Lock()
	defer s.journalMu.Unlock()
	if err == nil {
		s.journalErr = ""
	} else {
		s.journalErr = err.Error()
	}
}

// Ready reports whether the server can currently give full-quality
// service, and why not. Liveness (/healthz) is "the process is up";
// readiness additionally requires the search breaker to be closed (or
// probing half-open) and the admission gate to have room — the signals
// a replica pool uses to route around a degraded replica before its
// requests turn into timeouts or shed load. A quarantined cache journal
// is reported but does not flip readiness: a cold replica still serves
// full-quality answers.
func (s *Server) Ready() wire.ReadyResponse {
	s.journalMu.Lock()
	journalErr := s.journalErr
	s.journalMu.Unlock()
	resp := wire.ReadyResponse{
		Ready:          true,
		Breaker:        s.brk.state(),
		InFlight:       s.gate.InUse(),
		MaxConcurrent:  s.gate.Slots(),
		Queued:         s.gate.Waiting(),
		MaxQueue:       s.gate.Queue(),
		JournalHealthy: journalErr == "",
		JournalError:   journalErr,
		Draining:       s.draining.Load(),
	}
	if resp.Draining {
		resp.Ready = false
		resp.Reasons = append(resp.Reasons, "draining")
	}
	if resp.Breaker == "open" {
		resp.Ready = false
		resp.Reasons = append(resp.Reasons, "search breaker open")
	}
	if resp.InFlight >= resp.MaxConcurrent && resp.Queued >= resp.MaxQueue {
		resp.Ready = false
		resp.Reasons = append(resp.Reasons, "admission gate saturated")
	}
	return resp
}

func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	resp := s.Ready()
	status := http.StatusOK
	if !resp.Ready {
		status = http.StatusServiceUnavailable
		if resp.Draining {
			w.Header().Set("Connection", "close")
		}
	}
	writeJSON(w, status, resp)
}

// ---------------------------------------------------------------------
// request plumbing

// decodeRequest fills req from a POST JSON body or, for GET, via
// fromQuery. Unknown JSON fields are rejected — a misspelled field in a
// planning request should fail loudly, not silently default.
func decodeRequest(r *http.Request, req any, fromQuery func(url.Values)) error {
	switch r.Method {
	case http.MethodGet:
		fromQuery(r.URL.Query())
		return nil
	case http.MethodPost:
		dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<20))
		dec.DisallowUnknownFields()
		if err := dec.Decode(req); err != nil {
			return badRequest("bad request body: %v", err)
		}
		return nil
	default:
		return &httpError{status: http.StatusMethodNotAllowed, msg: "use GET or POST"}
	}
}

func atoiDefault(s string, def int) int {
	if s == "" {
		return def
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return def
	}
	return v
}

func firstOf(vals ...string) string {
	for _, v := range vals {
		if v != "" {
			return v
		}
	}
	return ""
}

func msSince(start time.Time) float64 {
	return float64(time.Since(start)) / float64(time.Millisecond)
}

// sleepCtx waits for d or until ctx is cancelled.
func sleepCtx(ctx context.Context, d time.Duration) {
	if d <= 0 {
		return
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
	case <-timer.C:
	}
}
