package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	heteropart "repro"
	"repro/internal/exec"
	"repro/internal/matrix"
	"repro/internal/trace"
)

const (
	mulN = 512
	// mulSetupReps set-ups are timed per run; setup_s is their median.
	mulSetupReps = 40
	// kernelReps runs of each matrix kernel are timed; the median counts.
	kernelReps = 3
	// abftPairs SCB multiplies with Verify on and off, alternating which
	// runs first, give exec.abft_overhead_pct.
	abftPairs = 4
	// mulTailPercentile leaves at least ten of a run's 50–110 multiplies
	// beyond it.
	mulTailPercentile = 80
)

// mulCases are Fig 14's pair: a non-rectangular P region and a
// rectangular one.
var mulCases = []struct {
	shape heteropart.Shape
	ratio heteropart.Ratio
}{
	{heteropart.SquareCorner, heteropart.MustRatio(10, 1, 1)},
	{heteropart.BlockRectangle, heteropart.MustRatio(5, 2, 1)},
}

type mulCase struct {
	name string
	g    *heteropart.Partition
	m    heteropart.Machine
}

// mulSample is one multiply.
type mulSample struct {
	op     int64
	alg    heteropart.Algorithm
	dur    time.Duration
	stats  *exec.Stats
	err    error
	spanID int64
}

func (s mulSample) full() bool {
	return s.err == nil && s.stats.Recoveries == 0 && s.stats.CorruptionsCorrected == 0 && len(s.stats.Byzantine) == 0
}

func barrier(alg heteropart.Algorithm) bool { return alg == heteropart.SCB || alg == heteropart.PCB }

type mulRun struct {
	a, b    *heteropart.Matrix
	ref     *heteropart.Matrix // matrix.MulKIJ's product, the reference
	cases   []mulCase
	ops     atomic.Int64
	rec     *recorder
	setups  []float64
	rounds  [][]mulSample
	traced  int // rounds[traced:] ran with tracing
	elapsed time.Duration
}

// buildCases is the multiply workload's set-up: the two partitions.
func buildCases() ([]mulCase, error) {
	var cases []mulCase
	for _, c := range mulCases {
		g, err := heteropart.BuildShape(c.shape, mulN, c.ratio)
		if err != nil {
			return nil, err
		}
		cases = append(cases, mulCase{name: c.shape.String() + " " + c.ratio.String(), g: g, m: heteropart.DefaultMachine(c.ratio)})
	}
	return cases, nil
}

// multiply runs one algorithm on one case and checks the product
// bit for bit against the reference and the moved volume against VoC.
func (r *mulRun) multiply(alg heteropart.Algorithm, c int, verify bool, rec *recorder) mulSample {
	cs := r.cases[c]
	cfg := exec.Config{Machine: cs.m, Algorithm: alg, Verify: verify}
	var tr *trace.Trace
	var t0 time.Time
	if rec != nil {
		t0 = time.Now()
		tr = trace.New()
		cfg.Trace = tr
	}
	var (
		prod *heteropart.Matrix
		st   *exec.Stats
		err  error
	)
	start := time.Now()
	switch {
	case barrier(alg):
		prod, st, err = heteropart.Multiply(cfg, cs.g, r.a, r.b)
	case alg == heteropart.PIO:
		prod, st, err = heteropart.MultiplyPIO(cfg, cs.g, r.a, r.b)
	default:
		prod, st, err = exec.MultiplyOverlap(cfg, cs.g, r.a, r.b)
	}
	end := time.Now()
	s := mulSample{op: r.ops.Add(1), alg: alg, dur: end.Sub(start), stats: st}
	if rec != nil {
		s.spanID = rec.add("exec."+strings.ToLower(alg.String()), 0, s.op, start, end)
		for _, sp := range tr.Spans() {
			rec.add("exec."+strings.ReplaceAll(sp.Name, " ", "."), s.spanID, s.op, t0.Add(sp.Start), t0.Add(sp.End))
		}
	}
	s.err = checkProduct(prod, st, r.ref, cs.g, err)
	if s.err != nil {
		s.err = fmt.Errorf("%v on %s: %w", alg, cs.name, s.err)
	}
	return s
}

// checkProduct is the multiply check: no error, a product bit-identical
// to the serial kij kernel's, and exactly VoC elements moved.
func checkProduct(prod *heteropart.Matrix, st *exec.Stats, ref *heteropart.Matrix, g *heteropart.Partition, err error) error {
	if err != nil {
		return err
	}
	if !prod.Equal(ref) {
		n := ref.N()
		for i := range n * n {
			if prod.Data()[i] != ref.Data()[i] {
				return fmt.Errorf("product cell (%d,%d) is %v, matrix.MulKIJ gives %v", i/n, i%n, prod.Data()[i], ref.Data()[i])
			}
		}
	}
	if st.TotalVolume != g.VoC() {
		return fmt.Errorf("moved %d elements, the partition's VoC is %d", st.TotalVolume, g.VoC())
	}
	return nil
}

// round runs all five algorithms on both partitions.
func (r *mulRun) round(rec *recorder) []mulSample {
	var out []mulSample
	for c := range r.cases {
		for _, alg := range heteropart.AllAlgorithms {
			out = append(out, r.multiply(alg, c, barrier(alg), rec))
		}
	}
	return out
}

// window runs whole rounds, back to back, until d has passed.
func (r *mulRun) window(d time.Duration, rec *recorder) {
	start := time.Now()
	for time.Since(start) < d {
		r.rounds = append(r.rounds, r.round(rec))
	}
	r.elapsed += time.Since(start)
}

func runMultiply(cfg runConfig) (*outcome, error) {
	out := newOutcome()
	r := &mulRun{}
	rng := rand.New(rand.NewSource(cfg.seed))
	r.a, r.b = heteropart.NewMatrix(mulN), heteropart.NewMatrix(mulN)
	r.a.FillRandom(rng)
	r.b.FillRandom(rng)
	out.record["scenarios"] = fmt.Sprintf("A, B uniform random %d×%d; SCB PCB SCO PCO PIO on Square-Corner 10:1:1 and Block-Rectangle 5:2:1", mulN, mulN)
	out.record["scenario_digest"] = matrixDigest(r.a, r.b)
	// Working set: A, B, C, the reference and the workers' copies — about
	// nine 2 MiB matrices, above the 4 MiB L2 and far below the L3.
	out.record["working_set"] = "~9 matrices × 2 MiB"

	// The reference product; the traced run also times it as a kernel.
	refReps := 1
	if cfg.trace {
		refReps = kernelReps
	}
	var kij []float64
	for range refReps {
		ref := heteropart.NewMatrix(mulN)
		start := time.Now()
		matrix.MulKIJ(ref, r.a, r.b)
		kij = append(kij, time.Since(start).Seconds())
		r.ref = ref
	}

	// Set-up runs after the reference product: a CPU that has just woken
	// takes about a second to reach full speed, and the builds take
	// milliseconds.
	for range mulSetupReps {
		start := time.Now()
		cases, err := buildCases()
		if err != nil {
			return nil, err
		}
		r.setups = append(r.setups, time.Since(start).Seconds())
		r.cases = cases
	}

	d := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		r.window(d/2, nil)
		r.traced = len(r.rounds)
		r.rec = newRecorder()
		r.window(d-d/2, r.rec)
	} else {
		r.window(d, nil)
	}

	var all []mulSample
	for _, rd := range r.rounds {
		all = append(all, rd...)
	}
	r.endToEnd(out, all)
	if cfg.trace {
		if err := r.perLayer(out, all, kij); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (r *mulRun) endToEnd(out *outcome, all []mulSample) {
	var lat []float64
	correct, full := 0, 0
	recoveries := 0
	for _, s := range all {
		out.attempt(s.err == nil, s.err)
		lat = append(lat, float64(s.dur)/float64(time.Millisecond))
		if s.err == nil {
			correct++
		}
		if s.full() {
			full++
		}
		if s.stats != nil {
			recoveries += s.stats.Recoveries
		}
	}
	// Per round: its throughput, its mean multiply time, and the time of
	// its barrier and of its overlap multiplies. A round's algorithms run
	// at different speeds, and the median over all of a run's multiplies
	// falls between two of them; the median over rounds does not.
	var rates, means, barrierS, overlapS []float64
	for _, rd := range r.rounds {
		var b, o time.Duration
		ok := 0
		for _, s := range rd {
			if barrier(s.alg) {
				b += s.dur
			} else {
				o += s.dur
			}
			if s.err == nil {
				ok++
			}
		}
		rates = append(rates, float64(ok)/(b+o).Seconds())
		means = append(means, float64(b+o)/float64(len(rd))/float64(time.Millisecond))
		barrierS = append(barrierS, b.Seconds())
		overlapS = append(overlapS, o.Seconds())
	}
	out.e2e["ops_per_s"] = median(rates)
	out.e2e["p50_ms"] = median(means)
	out.e2e["tail_ms"] = quantile(lat, mulTailPercentile/100.0)
	out.setNamed("multiplies_per_s", float64(correct)/r.elapsed.Seconds(), "multiplies/s")
	out.e2e["full_ratio"] = ratio(float64(full), float64(len(all)))
	out.e2e["setup_s"] = median(r.setups)
	out.setNamed("multiply_barrier_s", median(barrierS), "s")
	out.setNamed("multiply_overlap_s", median(overlapS), "s")
	out.record["latency_samples"] = len(lat)
	out.record["tail_percentile"] = mulTailPercentile
	out.setNamed("multiply_p50_ms", quantile(lat, 0.5), "ms")
	out.record["rounds"] = len(r.rounds)
	out.record["answers"] = map[string]int{"correct": correct, "full": full, "recoveries": recoveries}
}

// perLayer fills the traced run's per-layer metrics: the exec layer
// from the multiplies and their spans, the matrix kernels from
// separate timed calls, and the ABFT overhead from paired runs.
func (r *mulRun) perLayer(out *outcome, all []mulSample, kij []float64) error {
	byAlg := map[heteropart.Algorithm][]float64{}
	var moved, blocks, checks, recoveries int64
	var flops, wall float64
	for _, s := range all {
		byAlg[s.alg] = append(byAlg[s.alg], s.dur.Seconds())
		flops += float64(matrix.Flops(mulN))
		wall += s.dur.Seconds()
		if s.stats == nil {
			continue
		}
		moved += s.stats.TotalVolume
		blocks += int64(s.stats.Blocks)
		checks += int64(s.stats.IntegrityChecks)
		recoveries += int64(s.stats.Recoveries)
	}
	rounds := float64(len(r.rounds))
	for _, alg := range heteropart.AllAlgorithms {
		out.layer["exec."+strings.ToLower(alg.String())+"_s"] = median(byAlg[alg])
	}
	out.layer["exec.moved_elems"] = float64(moved) / rounds
	out.layer["exec.blocks"] = float64(blocks) / rounds
	out.layer["exec.integrity_checks"] = float64(checks) / rounds
	out.layer["exec.recoveries"] = float64(recoveries)

	spans := r.rec.all()
	self := selfTimes(spans)
	var selfMS []float64
	for _, sp := range spans {
		if sp.Name == "exec.scb" || sp.Name == "exec.pcb" {
			selfMS = append(selfMS, self[sp.ID].Seconds()*1e3)
		}
	}
	out.layer["exec.exchange_ms"] = median(durations(spans, "exec.exchange")) * 1e3
	for _, p := range []string{"P", "R", "S"} {
		out.layer["exec.worker_busy_ms."+p] = median(durations(spans, "exec.worker."+p)) * 1e3
	}
	out.layer["exec.self_ms"] = median(selfMS)

	rate := func(secs []float64) float64 { return float64(matrix.Flops(mulN)) / median(secs) / 1e9 }
	out.layer["matrix.kij_gflops"] = rate(kij)
	parallel, err := r.kernel(func(c *heteropart.Matrix) { matrix.MulParallel(c, r.a, r.b, runtime.GOMAXPROCS(0)) }, true)
	if err != nil {
		return err
	}
	out.layer["matrix.parallel_gflops"] = rate(parallel)
	blocked, err := r.kernel(func(c *heteropart.Matrix) { matrix.MulBlocked(c, r.a, r.b, 0) }, false)
	if err != nil {
		return err
	}
	out.layer["matrix.blocked_gflops"] = rate(blocked)
	// MulMasked over P's cells of the Square-Corner partition; it sweeps
	// every cell for every k whatever the mask, but only the masked cells'
	// flops are useful, and only those are counted.
	g := r.cases[0].g
	mask := make([]bool, mulN*mulN)
	cells := 0
	for i := range mulN {
		for j := range mulN {
			if g.At(i, j) == heteropart.P {
				mask[i*mulN+j] = true
				cells++
			}
		}
	}
	masked, err := r.kernel(func(c *heteropart.Matrix) { matrix.MulMasked(c, r.a, r.b, mask) }, false)
	if err != nil {
		return err
	}
	out.layer["matrix.masked_gflops"] = 2 * mulN * float64(cells) / median(masked) / 1e9
	out.layer["matrix.flops_computed"] = float64(matrix.Flops(mulN))
	out.layer["matrix.bytes_computed"] = 3 * mulN * mulN * 8

	achieved := flops / wall / 1e9
	out.layer["exec.achieved_gflops"] = achieved
	out.layer["exec.kernel_efficiency"] = achieved / out.layer["matrix.parallel_gflops"]

	var on, off []float64
	for i := range abftPairs {
		order := []bool{true, false}
		if i%2 == 1 {
			order = []bool{false, true}
		}
		for _, verify := range order {
			s := r.multiply(heteropart.SCB, 0, verify, nil)
			out.attempt(s.err == nil, s.err)
			if verify {
				on = append(on, s.dur.Seconds())
			} else {
				off = append(off, s.dur.Seconds())
			}
		}
	}
	out.layer["exec.abft_overhead_pct"] = (median(on)/median(off) - 1) * 100

	var untraced, traced []float64
	for i, rd := range r.rounds {
		for _, s := range rd {
			if i < r.traced {
				untraced = append(untraced, s.dur.Seconds())
			} else {
				traced = append(traced, s.dur.Seconds())
			}
		}
	}
	out.layer["trace.overhead_pct"] = overheadPct(untraced, traced)
	out.spans = spans
	return nil
}

// kernel times kernelReps runs of one matrix kernel; exact kernels must
// reproduce the reference bit for bit.
func (r *mulRun) kernel(mul func(c *heteropart.Matrix), exact bool) ([]float64, error) {
	var secs []float64
	for range kernelReps {
		c := heteropart.NewMatrix(mulN)
		start := time.Now()
		mul(c)
		secs = append(secs, time.Since(start).Seconds())
		if exact && !c.Equal(r.ref) {
			return nil, fmt.Errorf("matrix kernel product differs from matrix.MulKIJ")
		}
	}
	return secs, nil
}

func matrixDigest(ms ...*heteropart.Matrix) string {
	h := sha256.New()
	var buf [8]byte
	for _, m := range ms {
		for _, v := range m.Data() {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
