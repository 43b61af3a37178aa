// Package calibrate closes the loop between serving and measurement.
//
// The paper's optimal shapes are optimal only for the *measured* speed
// ratio Pr:Rr:Sr and link bandwidth β — quantities that drift in a live
// fleet as replicas slow down, thermal-throttle, or share links. A
// Calibrator re-measures them continuously: each round it runs a
// micro-benchmark of the internal/matrix multiply kernel once per
// logical processor, optionally probes the link, folds the samples into
// EWMA estimates with confidence intervals, and — when the estimate has
// drifted past a configurable threshold from what was last published —
// publishes a new quantized scenario ratio. The serving layer subscribes
// via OnPublish to invalidate caches and re-plan (see internal/serve).
//
// Heterogeneity is injected, not assumed: all three logical processors
// bench the same kernel on the same host, so the raw measurement is
// ~1:1:1 until the Stretch hook (usually sim.FaultPlan.StretchCPU, the
// same fault model the search path bills against) slows one of them.
// That keeps calibration honest — it measures real kernel time — while
// letting tests and drills induce drift deterministically.
package calibrate

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/matrix"
	"repro/internal/model"
	"repro/internal/partition"
)

// Config parameterises a Calibrator. Zero values select the documented
// defaults.
type Config struct {
	// Interval is the calibration period of the background loop
	// (default 1s).
	Interval time.Duration
	// BenchN is the micro-benchmark matrix size (default 64 — big
	// enough to swamp timer noise, small enough to be negligible load).
	BenchN int
	// Alpha is the EWMA smoothing factor in (0,1] (default 0.4). Larger
	// reacts faster; smaller rides out noise.
	Alpha float64
	// DriftThreshold is the relative change in any normalized ratio
	// component (or in β) that triggers a publish (default 0.25).
	DriftThreshold float64
	// Quantum is the grid the published ratio is rounded to (default
	// 0.25): measured speeds are normalized by the slowest and each
	// component rounded to the nearest multiple. Coarser quanta mean
	// fewer distinct scenarios (better cache/atlas reuse), finer quanta
	// track the hardware closer.
	Quantum float64

	// Bench measures one micro-benchmark run for logical processor p at
	// size n and returns the elapsed seconds. Default: time one
	// matrix.MulBlocked multiply. Tests substitute synthetic times.
	Bench func(p partition.Proc, n int) float64
	// Stretch, if set, maps measured kernel seconds to effective
	// seconds, injecting heterogeneity — wire it to
	// sim.FaultPlan.StretchCPU so the calibrator sees the same
	// stragglers the search path bills. start is seconds since the
	// calibrator was created.
	Stretch func(p partition.Proc, start, work float64) float64
	// Probe, if set, measures the link and returns β in seconds/byte;
	// RunOnce converts it to seconds per element for Estimate.Beta. See
	// HTTPLinkProbe for a probe that measures an HTTP fetch (and
	// therefore feels chaos-proxy faults in tests).
	Probe func(ctx context.Context) (float64, error)

	// OnPublish is called (from the calibrating goroutine) each time a
	// new estimate is published, including the first.
	OnPublish func(Estimate)
	// Logf, if set, receives one line per publish and per probe error.
	Logf func(format string, args ...any)

	now func() time.Time // test hook
}

func (cfg Config) withDefaults() Config {
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	if cfg.BenchN <= 0 {
		cfg.BenchN = 64
	}
	if cfg.Alpha <= 0 || cfg.Alpha > 1 {
		cfg.Alpha = 0.4
	}
	if cfg.DriftThreshold <= 0 {
		cfg.DriftThreshold = 0.25
	}
	if cfg.Quantum <= 0 {
		cfg.Quantum = 0.25
	}
	if cfg.Bench == nil {
		cfg.Bench = kernelBench
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	return cfg
}

// Estimate is one published calibration result.
type Estimate struct {
	// Ratio is the quantized scenario ratio: speeds sorted fastest to
	// slowest, normalized so the slowest is 1, rounded to Quantum. It
	// always satisfies partition.Ratio's Pr ≥ Rr ≥ Sr invariant
	// regardless of which physical processor is currently fastest.
	Ratio partition.Ratio
	// Speeds are the EWMA relative speeds per logical processor
	// (index partition.Proc), normalized so the slowest is 1.
	Speeds [partition.NumProcs]float64
	// CI are 95% confidence half-widths on Speeds, same normalization.
	CI [partition.NumProcs]float64
	// Beta is the EWMA link estimate in seconds per element of
	// model.ElementBytes bytes, the unit of model.Hockney.Beta (0 if no
	// Probe).
	Beta float64
	// Generation increments on every publish; the serving layer stamps
	// cache entries with it so anything planned under an older
	// generation is identifiably stale.
	Generation uint64
	// Rounds is how many calibration rounds fed this estimate.
	Rounds uint64
	// When is the publish time.
	When time.Time
}

// Calibrator maintains the EWMA speed and link estimates. Create with
// New, drive with Start/Close (background) or RunOnce (tests, drills).
type Calibrator struct {
	cfg   Config
	epoch time.Time

	mu        sync.Mutex
	ewma      [partition.NumProcs]float64 // seconds per bench run
	ewvar     [partition.NumProcs]float64
	beta      float64
	rounds    uint64
	published Estimate
	haveEst   bool
	drifts    uint64

	startOnce sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// New returns a Calibrator; nothing is measured until RunOnce or Start.
func New(cfg Config) *Calibrator {
	cfg = cfg.withDefaults()
	return &Calibrator{
		cfg:   cfg,
		epoch: cfg.now(),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
}

// Start launches the background calibration loop. Idempotent.
func (c *Calibrator) Start() {
	c.startOnce.Do(func() {
		go func() {
			defer close(c.done)
			t := time.NewTicker(c.cfg.Interval)
			defer t.Stop()
			for {
				c.RunOnce(context.Background())
				select {
				case <-c.stop:
					return
				case <-t.C:
				}
			}
		}()
	})
}

// Close stops the background loop and waits for it to exit. Safe to
// call even if Start never ran.
func (c *Calibrator) Close() {
	select {
	case <-c.stop:
	default:
		close(c.stop)
	}
	c.startOnce.Do(func() { close(c.done) })
	<-c.done
}

// RunOnce performs one calibration round: bench every processor, probe
// the link, update the EWMAs, and publish if the estimate has drifted
// past the threshold (the first round always publishes). It returns the
// current estimate (published or not).
func (c *Calibrator) RunOnce(ctx context.Context) Estimate {
	start := c.cfg.now().Sub(c.epoch).Seconds()
	var samples [partition.NumProcs]float64
	for _, p := range partition.Procs {
		t := c.cfg.Bench(p, c.cfg.BenchN)
		if c.cfg.Stretch != nil {
			t = c.cfg.Stretch(p, start, t)
		}
		if t <= 0 || math.IsNaN(t) || math.IsInf(t, 0) {
			t = math.SmallestNonzeroFloat64
		}
		samples[p] = t
	}
	var betaSample float64
	if c.cfg.Probe != nil {
		b, err := c.cfg.Probe(ctx)
		if err != nil || b <= 0 {
			if err != nil && c.cfg.Logf != nil {
				c.cfg.Logf("calibrate: link probe: %v", err)
			}
		} else {
			betaSample = b * model.ElementBytes
		}
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	a := c.cfg.Alpha
	first := c.rounds == 0
	for i := range samples {
		if first {
			c.ewma[i], c.ewvar[i] = samples[i], 0
			continue
		}
		d := samples[i] - c.ewma[i]
		c.ewma[i] += a * d
		c.ewvar[i] = (1 - a) * (c.ewvar[i] + a*d*d)
	}
	if betaSample > 0 {
		if c.beta == 0 {
			c.beta = betaSample
		} else {
			c.beta += a * (betaSample - c.beta)
		}
	}
	c.rounds++

	est := c.estimateLocked()
	if c.shouldPublishLocked(est) {
		if !first {
			c.drifts++
		}
		est.Generation = c.published.Generation + 1
		est.When = c.cfg.now()
		c.published, c.haveEst = est, true
		if c.cfg.Logf != nil {
			c.cfg.Logf("calibrate: publish gen=%d ratio=%s beta=%.3g (round %d)",
				est.Generation, est.Ratio, est.Beta, est.Rounds)
		}
		if c.cfg.OnPublish != nil {
			// Call without the lock: the subscriber may call back in.
			cb, snap := c.cfg.OnPublish, est
			c.mu.Unlock()
			cb(snap)
			c.mu.Lock()
		}
	}
	return est
}

// estimateLocked derives the Estimate from the current EWMA state.
// Speed is inverse time; everything is normalized by the slowest.
func (c *Calibrator) estimateLocked() Estimate {
	var speeds, ci [partition.NumProcs]float64
	// 95% CI half-width of an EWMA with smoothing α over samples with
	// variance v is 1.96·sqrt(v·α/(2−α)).
	sf := math.Sqrt(c.cfg.Alpha / (2 - c.cfg.Alpha))
	for i, t := range c.ewma {
		speeds[i] = 1 / t
		// Propagate the time CI to the speed scale: δ(1/t) ≈ δt/t².
		ci[i] = 1.96 * sf * math.Sqrt(c.ewvar[i]) / (t * t)
	}
	min := math.Inf(1)
	for _, s := range speeds {
		if s < min {
			min = s
		}
	}
	if min <= 0 || math.IsInf(min, 1) {
		min = 1
	}
	for i := range speeds {
		speeds[i] /= min
		ci[i] /= min
	}
	return Estimate{
		Ratio:  quantizeRatio(speeds, c.cfg.Quantum),
		Speeds: speeds,
		CI:     ci,
		Beta:   c.beta,
		Rounds: c.rounds,
	}
}

// shouldPublishLocked implements the drift gate: publish on the first
// estimate; afterwards when the quantized ratio actually changed
// (quantization is the flap filter) AND the move is believable — some
// component shifted by at least DriftThreshold relative, or shifted
// beyond twice its confidence interval (so a slow asymptotic
// convergence still lands once the estimate settles, while noisy input
// keeps the CI wide and the gate shut) — or β drifted past the
// threshold.
func (c *Calibrator) shouldPublishLocked(est Estimate) bool {
	if !c.haveEst {
		return true
	}
	pub := c.published
	if pub.Beta > 0 && est.Beta > 0 {
		if rel := math.Abs(est.Beta-pub.Beta) / pub.Beta; rel >= c.cfg.DriftThreshold {
			return true
		}
	}
	if est.Ratio == pub.Ratio {
		return false
	}
	for i := range est.Speeds {
		if pub.Speeds[i] <= 0 {
			return true
		}
		shift := math.Abs(est.Speeds[i] - pub.Speeds[i])
		if shift/pub.Speeds[i] >= c.cfg.DriftThreshold || shift > 2*est.CI[i] {
			return true
		}
	}
	return false
}

// Current returns the last published estimate and whether one exists.
func (c *Calibrator) Current() (Estimate, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.published, c.haveEst
}

// Rounds returns how many calibration rounds have run.
func (c *Calibrator) Rounds() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rounds
}

// DriftEvents returns how many publishes were drift-triggered (the
// initial publish is not counted).
func (c *Calibrator) DriftEvents() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.drifts
}

// quantizeRatio sorts the normalized speeds fastest-first, rounds each
// to the quantum, and pins the slowest to 1 so the result is a valid
// scenario ratio (Pr ≥ Rr ≥ Sr = 1).
func quantizeRatio(speeds [partition.NumProcs]float64, quantum float64) partition.Ratio {
	s := speeds[:]
	sorted := append([]float64(nil), s...)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	q := func(v float64) float64 {
		r := math.Round(v/quantum) * quantum
		if r < 1 {
			r = 1
		}
		return r
	}
	pr, rr := q(sorted[0]), q(sorted[1])
	if rr > pr {
		rr = pr
	}
	return partition.MustRatio(pr, rr, 1)
}

// kernelBench is the default Bench: time a blocked multiply at size n.
// The processor argument is unused on purpose — on a homogeneous host
// every logical processor runs the same silicon, and heterogeneity is
// the Stretch hook's job. One untimed warmup run pulls the code and
// data paths into cache, and the sample is the minimum of three timed
// runs: the minimum is the run with the least scheduler/GC interference,
// which is the quantity the speed ratio is actually about.
func kernelBench(_ partition.Proc, n int) float64 {
	rng := rand.New(rand.NewSource(1))
	a, b, dst := matrix.New(n), matrix.New(n), matrix.New(n)
	a.FillRandom(rng)
	b.FillRandom(rng)
	matrix.MulBlocked(dst, a, b, matrix.DefaultBlock) // warmup
	best := math.Inf(1)
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		matrix.MulBlocked(dst, a, b, matrix.DefaultBlock)
		if d := time.Since(t0).Seconds(); d < best {
			best = d
		}
	}
	return best
}

// HTTPLinkProbe returns a Probe that measures achieved link β by
// fetching url and timing the transfer: β = elapsed / bytes. Routed
// through a chaos proxy (internal/chaos) the probe feels latency,
// trickle, and reset faults, which is how tests induce link drift.
func HTTPLinkProbe(client *http.Client, url string) func(context.Context) (float64, error) {
	if client == nil {
		client = http.DefaultClient
	}
	return func(ctx context.Context) (float64, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		resp, err := client.Do(req)
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		n, err := io.Copy(io.Discard, resp.Body)
		if err != nil {
			return 0, err
		}
		if resp.StatusCode != http.StatusOK {
			return 0, fmt.Errorf("calibrate: probe %s: status %d", url, resp.StatusCode)
		}
		if n == 0 {
			return 0, fmt.Errorf("calibrate: probe %s: empty body", url)
		}
		return time.Since(t0).Seconds() / float64(n), nil
	}
}
