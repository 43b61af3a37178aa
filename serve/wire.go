// Package serve defines the wire protocol of the partition-planning
// service (cmd/pland) and a robust Go client for it.
//
// The service turns the paper's planning pipeline into an online API:
//
//   - POST /v1/plan — the optimal candidate shape and full Plan for a
//     scenario (N, ratio, algorithm, topology), refined by a bounded
//     Push search when the request's deadline allows. When it does not —
//     or when the search path's circuit breaker is open — the response
//     carries the canonical-shape answer with Degraded set, which is the
//     paper's own fallback: the six canonical candidates are provably
//     strong shapes that are cheap to evaluate.
//   - POST /v1/evaluate — VoC and modelled execution-time breakdown for
//     one named candidate shape.
//   - POST /v1/search — a bounded Push-search run (the Section VI DFA)
//     under the request deadline.
//
// Every endpoint also accepts GET with the same fields as query
// parameters, and honours a Request-Timeout header (a Go duration such
// as "250ms", or an integer millisecond count) as the serving deadline.
//
// Client implements retries with jittered exponential backoff and a
// retry budget, honours Retry-After on load-shed responses, and can
// hedge slow requests against a second in-flight attempt.
package serve

import (
	"encoding/json"
	"fmt"

	heteropart "repro"
)

// PlanRequest asks for the optimal partitioning decision for a scenario.
type PlanRequest struct {
	// N is the matrix dimension.
	N int `json:"n"`
	// Ratio is the processor speed ratio "Pr:Rr:Sr".
	Ratio string `json:"ratio"`
	// Algorithm names one of the five MMM algorithms (SCB, PCB, SCO,
	// PCO, PIO).
	Algorithm string `json:"algorithm"`
	// Topology is a topology spec: "fully-connected" (default), "star",
	// the per-link classes "2+1[:f]" and "3-island[:f]", or an explicit
	// "links:PR=…,PS=…,RS=…" matrix (heteropart.ParseTopologySpec).
	// Malformed specs are rejected with a 400 naming the offending entry.
	Topology string `json:"topology,omitempty"`
	// Seed drives the Push-search refinement's randomisation; 0 selects
	// the server default.
	Seed int64 `json:"seed,omitempty"`
}

// SearchSummary reports the Push-search refinement behind a plan
// response: the search just run, or, on a stale-cache answer, the
// search that produced the cached entry.
type SearchSummary struct {
	Steps      int   `json:"steps"`
	InitialVoC int64 `json:"initialVoc"`
	FinalVoC   int64 `json:"finalVoc"`
	Converged  bool  `json:"converged"`
	// Archetype is the terminal shape family (A–D) the search reached.
	Archetype string `json:"archetype"`
	// Improved reports whether the searched partition beat the canonical
	// candidate's communication volume (it rarely does — that is the
	// paper's point — but the search is the proof).
	Improved  bool    `json:"improved"`
	ElapsedMS float64 `json:"elapsedMs"`
}

// Plan response sources.
const (
	// SourceSearch marks a full-quality answer: canonical candidate
	// comparison plus a completed Push-search refinement.
	SourceSearch = "search"
	// SourceCanonical marks a degraded answer served from the canonical
	// candidate evaluation only.
	SourceCanonical = "canonical"
	// SourceCache marks a fresh cache hit of an earlier searched answer.
	SourceCache = "cache"
	// SourceStaleCache marks a degraded answer served from an expired
	// cache entry — better than bare canonical, still marked Degraded.
	SourceStaleCache = "stale-cache"
	// SourceAtlas marks a full-quality answer served from the precomputed
	// shape atlas: the scenario sat exactly on the atlas grid, so the
	// baked winner — bit-identical to what the search path would return —
	// was encoded in O(1) without touching the search engine, breaker, or
	// admission gate.
	SourceAtlas = "atlas"
	// SourceAtlasShape marks a degraded answer built from the atlas's
	// winner shape for the request's ratio at a different matrix dimension
	// than the atlas was baked for — better-informed than the bare
	// canonical fallback and cheaper (one shape built instead of six).
	SourceAtlasShape = "atlas-shape"
)

// DegradedReason is the typed cause of a degraded plan answer, so
// callers branch on constants instead of string-matching wire JSON.
type DegradedReason string

// The degraded-mode causes a pland server reports.
const (
	// DegradedNone marks a full-quality answer.
	DegradedNone DegradedReason = ""
	// DegradedDeadline: the request deadline left no room for a search.
	DegradedDeadline DegradedReason = "deadline"
	// DegradedBreakerOpen: the search path's circuit breaker was open.
	DegradedBreakerOpen DegradedReason = "breaker-open"
	// DegradedCancelled: the coalesced flight leader's client
	// disconnected mid-search.
	DegradedCancelled DegradedReason = "cancelled"
	// DegradedSearchError: the search itself failed.
	DegradedSearchError DegradedReason = "search-error"
	// DegradedLoadShed: the adaptive load controller shed the search
	// tier — the answer is the best the current shed rung allows
	// (atlas shape, stale cache, or canonical evaluation).
	DegradedLoadShed DegradedReason = "load-shed"
)

// Known reports whether the reason is one this client version models; a
// newer server may introduce causes an older client should still treat
// as generically degraded.
func (r DegradedReason) Known() bool {
	switch r {
	case DegradedNone, DegradedDeadline, DegradedBreakerOpen, DegradedCancelled, DegradedSearchError, DegradedLoadShed:
		return true
	}
	return false
}

// PlanResponse is the service's partitioning decision.
type PlanResponse struct {
	Plan *heteropart.Plan `json:"plan"`
	// Degraded is set when the search path was skipped or abandoned
	// (deadline too short, circuit breaker open) and the answer is the
	// canonical-shape fallback.
	Degraded bool `json:"degraded"`
	// DegradedReason explains a degraded answer; see the DegradedReason
	// constants.
	DegradedReason DegradedReason `json:"degradedReason,omitempty"`
	// Source is one of the Source* constants.
	Source string `json:"source"`
	// Search is present on searched answers, on fresh cache hits and on
	// every stale-cache answer, which keeps the summary of the search
	// that produced it; other degraded answers and atlas answers carry
	// none.
	Search    *SearchSummary `json:"search,omitempty"`
	ElapsedMS float64        `json:"elapsedMs"`
}

// DegradedCause returns the typed degraded reason of the response:
// DegradedNone for full-quality answers, and never "" for degraded ones
// (a degraded response from a server that omitted the reason maps to
// DegradedSearchError, the most conservative cause).
func (r *PlanResponse) DegradedCause() DegradedReason {
	if !r.Degraded {
		return DegradedNone
	}
	if r.DegradedReason == "" {
		return DegradedSearchError
	}
	return r.DegradedReason
}

// BatchPlanRequest asks POST /v1/plan:batch for many plans in one round
// trip, amortising connection, header, and decode cost — the natural
// shape for atlas-backed traffic, where each answer is an O(1) lookup.
type BatchPlanRequest struct {
	Items []PlanRequest `json:"items"`
}

// BatchItemResult is one item's outcome inside a batch response. Items
// fail independently: a bad ratio in item 3 yields a per-item error
// there while every other item still carries its plan.
type BatchItemResult struct {
	// Index is the item's position in the request (explicit so streamed
	// and re-sharded results can be reassembled without positional trust).
	Index int `json:"index"`
	// Status is the HTTP status this item would have received as a
	// standalone /v1/plan request (200 on success). 0 means the item was
	// never attempted — its shard's transport failed (client side only).
	Status int `json:"status"`
	// Error is set when Status is not 200.
	Error string `json:"error,omitempty"`
	// Response is the raw PlanResponse JSON on success. Kept raw so the
	// server can splice pre-encoded atlas answers without re-marshalling
	// and clients decode only the items they need.
	Response json.RawMessage `json:"response,omitempty"`
}

// Plan decodes the item's PlanResponse, or explains why there is none.
func (it *BatchItemResult) Plan() (*PlanResponse, error) {
	if it.Status == 0 {
		return nil, fmt.Errorf("serve: batch item %d not attempted: %s", it.Index, it.Error)
	}
	if it.Status != 200 {
		return nil, fmt.Errorf("serve: batch item %d failed with status %d: %s", it.Index, it.Status, it.Error)
	}
	var resp PlanResponse
	if err := json.Unmarshal(it.Response, &resp); err != nil {
		return nil, fmt.Errorf("serve: batch item %d response: %w", it.Index, err)
	}
	return &resp, nil
}

// BatchPlanResponse is the non-streaming batch reply.
type BatchPlanResponse struct {
	Items     []BatchItemResult `json:"items"`
	Succeeded int               `json:"succeeded"`
	Failed    int               `json:"failed"`
	ElapsedMS float64           `json:"elapsedMs"`
}

// BatchStreamTrailer is the final line of a streamed (NDJSON) batch
// response: each preceding line is one BatchItemResult, emitted as soon
// as its item completes; the trailer closes the stream with the totals.
// Request streaming with "Accept: application/x-ndjson" or "?stream=1".
type BatchStreamTrailer struct {
	Trailer   bool    `json:"trailer"`
	Succeeded int     `json:"succeeded"`
	Failed    int     `json:"failed"`
	ElapsedMS float64 `json:"elapsedMs"`
}

// EvaluateRequest asks for the cost of one named candidate shape.
type EvaluateRequest struct {
	N         int    `json:"n"`
	Ratio     string `json:"ratio"`
	Algorithm string `json:"algorithm"`
	// Topology accepts the full spec grammar (see PlanRequest.Topology).
	Topology string `json:"topology,omitempty"`
	// Shape is a canonical shape name ("Square-Corner", ...).
	Shape string `json:"shape"`
}

// ProcShare is one processor's share of an evaluated shape.
type ProcShare struct {
	Processor string `json:"processor"`
	Elements  int    `json:"elements"`
}

// EvaluateResponse reports one candidate's cost model breakdown.
type EvaluateResponse struct {
	Shape    string `json:"shape"`
	Feasible bool   `json:"feasible"`
	// VoC is the communication volume in elements (valid when Feasible).
	VoC       int64                `json:"voc"`
	Breakdown heteropart.Breakdown `json:"breakdown"`
	Procs     []ProcShare          `json:"procs,omitempty"`
	ElapsedMS float64              `json:"elapsedMs"`
}

// SearchRequest asks for one bounded Push-search run.
type SearchRequest struct {
	N     int    `json:"n"`
	Ratio string `json:"ratio"`
	Seed  int64  `json:"seed,omitempty"`
	// MaxSteps bounds the committed Pushes; 0 selects the engine default
	// (clamped by the server's configured ceiling).
	MaxSteps int  `json:"maxSteps,omitempty"`
	Beautify bool `json:"beautify,omitempty"`
}

// SearchResponse reports a completed Push-search run.
type SearchResponse struct {
	Steps      int     `json:"steps"`
	InitialVoC int64   `json:"initialVoc"`
	FinalVoC   int64   `json:"finalVoc"`
	Converged  bool    `json:"converged"`
	Archetype  string  `json:"archetype"`
	ElapsedMS  float64 `json:"elapsedMs"`
}

// ErrorBody is the JSON body of every non-2xx response.
type ErrorBody struct {
	Error string `json:"error"`
	// RetryAfterMS mirrors the Retry-After header on 429/503 responses.
	RetryAfterMS int64 `json:"retryAfterMs,omitempty"`
}

// ReadyResponse is the body of /readyz: liveness (/healthz) says the
// process is up, readiness says it can currently give full-quality
// service. A replica pool uses it to eject not-ready replicas — a
// draining server, an open search breaker, or a saturated admission
// gate — before they turn into timeouts.
type ReadyResponse struct {
	Ready bool `json:"ready"`
	// Reasons lists why the server is not ready (empty when Ready).
	Reasons []string `json:"reasons,omitempty"`
	// Breaker is the search circuit breaker's state: "closed", "open",
	// or "half-open".
	Breaker string `json:"breaker"`
	// InFlight/MaxConcurrent and Queued/MaxQueue report admission-gate
	// occupancy.
	InFlight      int `json:"inFlight"`
	MaxConcurrent int `json:"maxConcurrent"`
	Queued        int `json:"queued"`
	MaxQueue      int `json:"maxQueue"`
	// JournalHealthy is false when the cache journal was quarantined at
	// startup (the server runs, but cold and without its degraded-mode
	// inventory); JournalError carries the scrub diagnosis.
	JournalHealthy bool   `json:"journalHealthy"`
	JournalError   string `json:"journalError,omitempty"`
	Draining       bool   `json:"draining"`
}

// Stats is the served-traffic counter snapshot of /v1/stats.
type Stats struct {
	Requests     int64 `json:"requests"`
	Shed         int64 `json:"shed"`
	Degraded     int64 `json:"degraded"`
	Searched     int64 `json:"searched"`
	CacheHits    int64 `json:"cacheHits"`
	CacheMisses  int64 `json:"cacheMisses"`
	StaleServed  int64 `json:"staleServed"`
	Coalesced    int64 `json:"coalesced"`
	Panics       int64 `json:"panics"`
	BreakerTrips int64 `json:"breakerTrips"`
	// AtlasHits counts plan answers (single and batch items) served from
	// the precomputed shape atlas; AtlasRejects counts atlas records that
	// failed the encode-time cross-check against the live planner and
	// fell through to the search path.
	AtlasHits    int64 `json:"atlasHits"`
	AtlasRejects int64 `json:"atlasRejects"`
	// BatchRequests counts /v1/plan:batch calls; BatchItems the plan
	// items inside them.
	BatchRequests int64 `json:"batchRequests"`
	BatchItems    int64 `json:"batchItems"`
	// Replans counts background re-plans triggered by calibration
	// drift publishes.
	Replans int64 `json:"replans"`
	// ShedTier is the load controller's current rung, one of ShedTiers.
	ShedTier string `json:"shedTier,omitempty"`
	// GateFallbacks counts search-path requests that found the admission
	// gate saturated and were served the ungated degraded fallback
	// instead of a 429 — overload converts to quality loss, not
	// availability loss.
	GateFallbacks int64 `json:"gateFallbacks"`
}

// ShedTiers lists the load controller's rungs in climbing order, from
// full search to refusal. Stats.ShedTier is one of them, and the
// pland_shed_tier gauge reports a rung's index in this list. Read only.
var ShedTiers = [...]string{"search", "bounded", "atlas", "stale", "reject"}

// AnswerTiers breaks the served plan answers down by tier: "atlas"
// (O(1) precomputed), "cache" (fresh memo of an earlier search),
// "searched" (full-quality online answer), and "degraded" (any
// fallback). The mix is the serving tier's quality dashboard: a healthy
// atlas deployment shows the bulk in "atlas", a cold or off-grid
// workload in "searched", an overloaded one in "degraded".
func (s Stats) AnswerTiers() map[string]int64 {
	return map[string]int64{
		"atlas":    s.AtlasHits,
		"cache":    s.CacheHits,
		"searched": s.Searched,
		"degraded": s.Degraded,
	}
}
