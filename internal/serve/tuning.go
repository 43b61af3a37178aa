package serve

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	heteropart "repro"
	"repro/internal/atlas"
	"repro/internal/calibrate"
	wire "repro/serve"
)

// Self-tuning: the shed ladder and the calibration loop.
//
// Two control loops close here. The LOAD loop watches admission-gate
// occupancy and a latency EWMA and sheds answer quality one rung at a
// time — full search → bounded search → atlas/closed-form → stale cache
// → 429 — so plan quality degrades monotonically with offered load and
// recovers the same way. Transitions are clamped to ±1 rung per
// evaluation tick, which makes "no rung is ever skipped" a structural
// property rather than a tuning outcome; the hysteresis gap between the
// up and down thresholds keeps it from flapping. The atlas tier answers
// at every rung, including reject: on-grid scenarios never lose
// availability no matter the load.
//
// The CALIBRATION loop (internal/calibrate) publishes drifting
// speed-ratio estimates into the server via ApplyEstimate. Requests
// that ask for ratio "auto" resolve against the latest published
// estimate — the resolved ratio is baked into the cache/coalescing key,
// so after a publish the old keys are structurally unreachable (an old
// plan can never be served for an auto request again), and the
// previously tracked auto scenarios are invalidated and re-planned in
// the background, counted by pland_replans_total.

// ---------------------------------------------------------------------
// shed ladder

// shedTier is a rung on the degradation ladder. Higher sheds more.
type shedTier int32

const (
	tierSearch  shedTier = iota // full search budget
	tierBounded                 // search with a capped step budget
	tierAtlas                   // no search: atlas shape or closed-form canonical
	tierStale                   // stale cache preferred, then atlas shape/canonical
	tierReject                  // 429 for everything the atlas can't answer
	numTiers    = shedTier(len(wire.ShedTiers))
)

func (t shedTier) String() string {
	if t < 0 || t >= numTiers {
		return fmt.Sprintf("tier(%d)", int32(t))
	}
	return wire.ShedTiers[t]
}

// loadController is the adaptive admission controller. It is evaluated
// lazily on the request path (at most once per interval) rather than on
// a timer: an idle server pays nothing, and a loaded one evaluates
// exactly as often as configured.
type loadController struct {
	target   time.Duration // latency the EWMA is normalized against
	interval time.Duration
	up, down float64

	tier     atomic.Int32
	lastEval atomic.Int64  // unixnano of the last evaluation
	signal   atomic.Uint64 // float64 bits of the last load signal
	obsSince atomic.Int64  // latency observations folded in since the last shift

	mu      sync.Mutex
	latEWMA float64 // seconds

	transitions [numTiers][numTiers]atomic.Int64
	onShift     func(from, to shedTier)
}

func newLoadController(target, interval time.Duration, up, down float64, now time.Time) *loadController {
	lc := &loadController{target: target, interval: interval, up: up, down: down}
	// Start the clock at construction: the first transition can happen
	// no earlier than one full interval into serving.
	lc.lastEval.Store(now.UnixNano())
	return lc
}

// observe folds one answered-request latency into the EWMA.
func (lc *loadController) observe(d time.Duration) {
	const alpha = 0.2
	lc.mu.Lock()
	lc.latEWMA += alpha * (d.Seconds() - lc.latEWMA)
	lc.mu.Unlock()
	lc.obsSince.Add(1)
}

// climbMinObs is how many latency observations must have refreshed the
// EWMA since the last shift before the ladder may climb OUT of a shed
// tier. At shed tiers the admission gate is bypassed, so occupancy
// reads zero and the only climb signal is the latency EWMA — which,
// right after a shift, still reflects answers served under the previous
// (slower) tier. Climbing on that stale data would overshoot into
// reject and shed requests the cheap tier could have answered; a few
// fresh shed-tier samples decay the EWMA first if the tier is actually
// keeping up. Climbs from the search tiers are exempt: there the gate
// is live and occupancy is current data.
const climbMinObs = 4

// current returns the tier without evaluating.
func (lc *loadController) current() shedTier { return shedTier(lc.tier.Load()) }

// tick returns the tier to serve this request under, re-evaluating the
// ladder if an interval has passed since the last evaluation. load is
// computed from the gate and latency EWMA by the caller-supplied func
// only when an evaluation actually runs.
func (lc *loadController) tick(now time.Time, load func() float64) shedTier {
	last := lc.lastEval.Load()
	if now.Sub(time.Unix(0, last)) < lc.interval {
		return lc.current()
	}
	if !lc.lastEval.CompareAndSwap(last, now.UnixNano()) {
		return lc.current() // another request won this evaluation
	}
	sig := load()
	lc.signal.Store(math.Float64bits(sig))
	from := lc.current()
	to := from
	switch {
	case sig >= lc.up && from < numTiers-1:
		if from < tierAtlas || lc.obsSince.Load() >= climbMinObs {
			to = from + 1
		}
	case sig <= lc.down && from > 0:
		to = from - 1
	}
	if to != from {
		lc.tier.Store(int32(to))
		lc.obsSince.Store(0)
		lc.transitions[from][to].Add(1)
		if lc.onShift != nil {
			lc.onShift(from, to)
		}
	}
	return to
}

// loadSignal computes the composite load: the worse of gate pressure
// (in-flight plus queued, over the slot count — exceeds 1 when queuing)
// and latency pressure (EWMA over target). At shed tiers the gate is
// bypassed, so pressure there reads low and the ladder descends on its
// own once the latency EWMA recovers — the controller needs no separate
// "recovered" signal.
func (s *Server) loadSignal() float64 {
	occ := float64(s.gate.InUse()+s.gate.Waiting()) / float64(s.gate.Slots())
	s.ladder.mu.Lock()
	lat := s.ladder.latEWMA
	s.ladder.mu.Unlock()
	return math.Max(occ, lat/s.ladder.target.Seconds())
}

// lastLoadSignal returns the signal from the most recent evaluation.
func (lc *loadController) lastLoadSignal() float64 {
	return math.Float64frombits(lc.signal.Load())
}

// ---------------------------------------------------------------------
// calibration: auto scenarios, drift invalidation, re-planning

// autoScenario is the published scenario default that ratio:"auto"
// requests resolve against.
type autoScenario struct {
	ratio heteropart.Ratio
	beta  float64 // seconds per element; 0 = keep the model default
	gen   uint64
}

// AttachCalibrator exposes a calibrator's counters on /metrics. The
// estimate flow itself goes through ApplyEstimate (wire it to the
// calibrator's OnPublish).
func (s *Server) AttachCalibrator(c *calibrate.Calibrator) { s.cal.Store(c) }

// ApplyEstimate publishes a calibration estimate as the scenario
// default for ratio:"auto" requests. If the ratio (or β) actually
// changed, every tracked auto scenario is invalidated — its cache entry
// is dropped, and because auto keys embed the resolved ratio, the old
// entries become unreachable even if eviction raced — and re-planned in
// the background under the new estimate, counted in Stats.Replans /
// pland_replans_total.
func (s *Server) ApplyEstimate(e calibrate.Estimate) {
	next := &autoScenario{ratio: e.Ratio, beta: e.Beta, gen: e.Generation}
	old := s.scenario.Swap(next)
	if old != nil && old.ratio == next.ratio && old.beta == next.beta {
		return
	}
	s.cfg.Logf("serve: calibration gen=%d published ratio=%s beta=%.3g", e.Generation, e.Ratio, e.Beta)
	if old == nil {
		return // first publish: nothing was planned under "auto" yet
	}
	s.autoMu.Lock()
	tracked := s.autoTracked
	s.autoTracked = make(map[string]planInputs)
	s.autoMu.Unlock()
	if len(tracked) == 0 {
		return
	}
	go s.replanTracked(tracked, next)
}

// replanTracked re-plans each invalidated auto scenario under the new
// estimate, sequentially — drift is rare and the point is a warm cache,
// not a thundering herd against our own gate.
func (s *Server) replanTracked(tracked map[string]planInputs, sc *autoScenario) {
	for key, in := range tracked {
		s.cache.remove(key)
		if s.draining.Load() {
			continue
		}
		fresh := s.planFor(in.n, sc.ratio, in.alg, in.m.Topology, in.seed, sc)
		s.replans.Add(1)
		ctx, cancel := context.WithTimeout(context.Background(), s.cfg.DefaultTimeout)
		if _, err := s.computePlan(ctx, fresh, false); err != nil {
			s.cfg.Logf("serve: drift re-plan for %s failed: %v", fresh.key, err)
		} else {
			s.trackAuto(fresh)
		}
		cancel()
	}
}

// trackAuto remembers an auto-resolved scenario for drift invalidation.
func (s *Server) trackAuto(in planInputs) {
	s.autoMu.Lock()
	if len(s.autoTracked) < cacheMax {
		s.autoTracked[in.key] = in
	}
	s.autoMu.Unlock()
}

// Scenario returns the current published auto scenario default, if any.
func (s *Server) Scenario() (ratio heteropart.Ratio, generation uint64, ok bool) {
	sc := s.scenario.Load()
	if sc == nil {
		return heteropart.Ratio{}, 0, false
	}
	return sc.ratio, sc.gen, true
}

// ---------------------------------------------------------------------
// atlas hot-swap

// SetAtlas atomically swaps the served atlas snapshot (nil removes it).
// In-flight requests keep whichever snapshot they already loaded — the
// swap can never tear a response. The same validity rules as Config
// apply: the atlas is baked against the default machine model and must
// fit under MaxN.
func (s *Server) SetAtlas(a *atlas.Atlas) error {
	if a != nil {
		if s.customMachine {
			return fmt.Errorf("serve: atlas requires the default machine model")
		}
		if a.N() > s.cfg.MaxN {
			return fmt.Errorf("serve: atlas n=%d exceeds MaxN=%d", a.N(), s.cfg.MaxN)
		}
	}
	s.atlasSt.Store(newAtlasState(a))
	return nil
}
