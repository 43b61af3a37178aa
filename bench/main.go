// Command bench is the repository benchmark. For a named workload and a
// seed it sets the program up inside this process, drives it for a fixed
// time, checks every answer, and prints the end-to-end metrics; with
// -trace 1 it instead prints the per-layer metrics of a traced run.
//
//	go run . -workload plan_search -seed 1 -seconds 20 -trace 0
//
// Workloads:
//
//	plan_search  cold planning: every /v1/plan request is a new off-lattice scenario
//	plan_hot     answering from memory: atlas cells and scenarios already cached
//	multiply     the real partitioned C = A·B at N=512, all five algorithms
//
// The next-to-last line of standard output is the run record (seeds,
// input digest, environment, answer tiers, the named metrics with their
// units); the last is one JSON object with the keys correct, attempted,
// failed and metrics. See README.md for every metric and what it should
// move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// runLimit bounds a whole run, set-up and checks included.
const runLimit = 170 * time.Second

// metricDef is a metric's name and unit as BENCHMARK.json lists them.
type metricDef struct{ name, unit string }

// endToEnd are the metrics every untraced run prints.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"full_ratio", "ratio"},
	{"setup_s", "s"},
}

// perLayer are the metrics every traced run prints; a layer a workload
// does not run reads 0.
var perLayer = []metricDef{
	{"push.search_ms", "ms"},
	{"push.steps", "count"},
	{"push.runs", "count"},
	{"push.unconverged", "count"},
	{"push.condense_s", "s"},
	{"push.beautify_s", "s"},
	{"push.memo_hit_ratio", "ratio"},
	{"heteropart.optimal_ms", "ms"},
	{"partition.build_us", "us"},
	{"model.evaluate_us", "us"},
	{"shape.classify_us", "us"},
	{"serve.handler_atlas_us", "us"},
	{"serve.handler_cache_us", "us"},
	{"serve.encode_us", "us"},
	{"serve.transport_us", "us"},
	{"serve.atlas_hit_ratio", "ratio"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.bounded_answers", "count"},
	{"serve.degraded", "count"},
	{"serve.coalesced", "count"},
	{"serve.tier_transitions", "count"},
	{"atlas.lookup_ns", "ns"},
	{"atlas.bake_s", "s"},
	{"atlas.warm_s", "s"},
	{"exec.scb_s", "s"},
	{"exec.pcb_s", "s"},
	{"exec.sco_s", "s"},
	{"exec.pco_s", "s"},
	{"exec.pio_s", "s"},
	{"exec.moved_elems", "count"},
	{"exec.blocks", "count"},
	{"exec.integrity_checks", "count"},
	{"exec.recoveries", "count"},
	{"exec.exchange_ms", "ms"},
	{"exec.worker_busy_ms.P", "ms"},
	{"exec.worker_busy_ms.R", "ms"},
	{"exec.worker_busy_ms.S", "ms"},
	{"exec.self_ms", "ms"},
	{"exec.abft_overhead_pct", "%"},
	{"exec.achieved_gflops", "GFLOP/s"},
	{"exec.kernel_efficiency", "ratio"},
	{"matrix.kij_gflops", "GFLOP/s"},
	{"matrix.parallel_gflops", "GFLOP/s"},
	{"matrix.blocked_gflops", "GFLOP/s"},
	{"matrix.masked_gflops", "GFLOP/s"},
	{"matrix.flops_computed", "flop"},
	{"matrix.bytes_computed", "B"},
	{"plan.p99_ms", "ms"},
	{"proc.peak_rss_mb", "MiB"},
	{"trace.overhead_pct", "%"},
}

type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a workload run measured and checked.
type outcome struct {
	e2e       map[string]float64
	layer     map[string]float64
	named     map[string]metric // the metrics under their workload's own names
	record    map[string]any
	attempted int
	failed    int
	errs      []string // the first few failures, for the record
	spans     []span
}

func newOutcome() *outcome {
	return &outcome{
		e2e: map[string]float64{}, layer: map[string]float64{},
		named: map[string]metric{}, record: map[string]any{},
	}
}

// attempt counts one checked operation.
func (o *outcome) attempt(ok bool, err error) {
	o.attempted++
	if ok {
		return
	}
	o.failed++
	if len(o.errs) < 5 {
		o.errs = append(o.errs, fmt.Sprint(err))
	}
}

func (o *outcome) setNamed(name string, v float64, unit string) { o.named[name] = metric{v, unit} }

func main() {
	cfg, spansPath, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	// A run normally ends within a minute; one that hangs is stopped
	// here, without a result.
	time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "bench: run exceeded %v\n", runLimit)
		os.Exit(1)
	})
	record, result, err := run(context.Background(), cfg, spansPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"record": record}); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if err := enc.Encode(result); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func parseFlags(args []string) (runConfig, string, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "plan_search, plan_hot or multiply")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 20, "measured time, in seconds")
	traced := fs.Int("trace", 0, "1: the traced run, printing the per-layer metrics")
	spans := fs.String("spans", "", "file the traced run writes its spans to (default .bench_build/spans-<workload>-<seed>.jsonl)")
	if err := fs.Parse(args); err != nil {
		return runConfig{}, "", err
	}
	switch {
	case *workload != "plan_search" && *workload != "plan_hot" && *workload != "multiply":
		return runConfig{}, "", fmt.Errorf("unknown workload %q (want plan_search, plan_hot or multiply)", *workload)
	case *seconds <= 0:
		return runConfig{}, "", fmt.Errorf("-seconds must be positive, got %g", *seconds)
	case *traced != 0 && *traced != 1:
		return runConfig{}, "", fmt.Errorf("-trace must be 0 or 1, got %d", *traced)
	}
	if *spans == "" {
		*spans = filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.jsonl", *workload, *seed))
	}
	return runConfig{workload: *workload, seed: *seed, seconds: *seconds, trace: *traced == 1}, *spans, nil
}

// run runs one workload and assembles the record and the result line.
func run(ctx context.Context, cfg runConfig, spansPath string) (map[string]any, map[string]any, error) {
	var (
		out *outcome
		err error
	)
	switch cfg.workload {
	case "plan_search":
		out, err = runPlan(ctx, cfg, false)
	case "plan_hot":
		out, err = runPlan(ctx, cfg, true)
	case "multiply":
		out, err = runMultiply(cfg)
	}
	if err != nil {
		return nil, nil, err
	}
	out.setNamed("fail_ratio", ratio(float64(out.failed), float64(out.attempted)), "failed/attempted")

	defs, values := endToEnd, out.e2e
	if cfg.trace {
		out.layer["proc.peak_rss_mb"] = peakRSSMB()
		defs, values = perLayer, out.layer
		if err := writeSpans(spansPath, out.spans); err != nil {
			return nil, nil, err
		}
		out.record["spans"] = spansPath
	}
	metrics := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok && !cfg.trace {
			return nil, nil, fmt.Errorf("workload %s did not measure %s", cfg.workload, d.name)
		}
		metrics[d.name] = metric{v, d.unit}
	}

	record := out.record
	record["workload"] = cfg.workload
	record["seed"] = cfg.seed
	record["held_out_seed"] = heldOutSeed
	record["seconds"] = cfg.seconds
	record["trace"] = cfg.trace
	record["env"] = environment()
	record["metrics"] = out.named
	record["failures"] = out.errs
	result := map[string]any{
		"correct":   out.failed == 0,
		"attempted": out.attempted,
		"failed":    out.failed,
		"metrics":   metrics,
	}
	return record, result, nil
}
