// Command mmmsim simulates (or really executes) partitioned parallel MMM.
//
// Modes:
//
//	mmmsim -shape square-corner -ratio 10:1:1 -alg SCB [-n 200]   one scenario
//	mmmsim -sweep [-nmodel 5000] [-nsim 200]                      the Fig 14 sweep
//	mmmsim -exec -shape block-rectangle -ratio 4:2:1 [-n 128]     real goroutine run
//	mmmsim -exec -fault kill:R@0.5 [-checkpoint run.ckpt]         chaos run with recovery
//	mmmsim -exec -checkpoint run.ckpt -resume                     resume a killed run
//	mmmsim -exec -verify -fault flip:R@0.3                        ABFT-checked run under corruption
//	mmmsim -recovery-study [-out BENCH_exec.json]                 recovery-overhead study
//	mmmsim -integrity-study [-out BENCH_integrity.json]           silent-corruption drill study
//
// Ctrl-C cancels a running (paced) execution promptly; with -checkpoint
// the completed blocks survive for a later -resume.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/exec"
	"repro/internal/experiment"
	"repro/internal/matrix"
	"repro/internal/model"
	"repro/internal/partition"
	"repro/internal/sim"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mmmsim: ")
	var (
		shapeStr = flag.String("shape", "block-rectangle", "candidate shape")
		ratioStr = flag.String("ratio", "5:2:1", "processor speed ratio")
		algStr   = flag.String("alg", "SCB", "MMM algorithm")
		n        = flag.Int("n", 200, "matrix dimension")
		sweep    = flag.Bool("sweep", false, "run the Fig 14 x:1:1 sweep instead")
		nModel   = flag.Int("nmodel", 5000, "sweep: model matrix dimension (paper: 5000)")
		nSim     = flag.Int("nsim", 200, "sweep: simulated grid dimension")
		doExec   = flag.Bool("exec", false, "really execute on goroutine processors and verify the product")
		gantt    = flag.Bool("gantt", false, "render the simulated schedule as a Gantt chart")
		topoStr  = flag.String("topology", "fully-connected", "network topology: fully-connected, star, 2+1[:f], 3-island[:f], or links:PR=…,PS=…,RS=…")
		seed     = flag.Int64("seed", 1, "seed for -exec matrices")

		faultStr = flag.String("fault", "", "exec: worker faults, e.g. kill:R@0.5,hang:P@0.3,slow:S@8")
		ckptPath = flag.String("checkpoint", "", "exec: journal completed C-blocks to this path")
		resume   = flag.Bool("resume", false, "exec: resume from -checkpoint instead of starting fresh")
		pace     = flag.Bool("pace", false, "exec: throttle workers to their relative speeds in real time")
		paceRate = flag.Float64("pace-rate", 5e7, "exec: real flops/s of the slowest worker when pacing")
		blockSz  = flag.Int("block", 32, "exec: scheduler block size (rows per band task; also sets the ABFT detection floor)")
		verify   = flag.Bool("verify", false, "exec: ABFT-verify every C row band against supervisor checksums")
		budget   = flag.Int("mismatch-budget", 3, "exec: uncorrectable mismatches before a worker is quarantined as Byzantine")

		recStudy    = flag.String("recovery-study", "", "run the recovery-overhead study ('run' or with -out a BENCH json path)")
		intStudy    = flag.String("integrity-study", "", "run the silent-corruption integrity study ('run' or with -out a BENCH json path)")
		maxOverhead = flag.Float64("max-overhead", 0, "integrity-study: fail if the median ABFT overhead exceeds this percent (0 disables)")
		outPath     = flag.String("out", "", "study: write the BENCH json report here")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *recStudy != "" {
		runRecoveryStudy(ctx, *outPath)
		return
	}
	if *intStudy != "" {
		runIntegrityStudy(ctx, *outPath, *maxOverhead)
		return
	}

	if *sweep {
		rows, err := experiment.Fig14Sweep(nil, *nModel, *nSim)
		if err != nil {
			log.Fatal(err)
		}
		if err := experiment.WriteFig14Table(os.Stdout, rows); err != nil {
			log.Fatal(err)
		}
		if x := experiment.Crossover(rows); x > 0 {
			fmt.Printf("\nSquare-Corner overtakes Block-Rectangle at ratio %.0f:1:1\n", x)
		}
		return
	}

	ratio, err := partition.ParseRatio(*ratioStr)
	if err != nil {
		log.Fatal(err)
	}
	alg, err := model.ParseAlgorithm(*algStr)
	if err != nil {
		log.Fatal(err)
	}
	s, err := partition.ParseShape(*shapeStr)
	if err != nil {
		log.Fatal(err)
	}
	spec, err := model.ParseTopologySpec(*topoStr)
	if err != nil {
		log.Fatal(err)
	}
	g, err := partition.Build(s, *n, ratio)
	if err != nil {
		log.Fatal(err)
	}
	m := spec.Apply(model.DefaultMachine(ratio))

	fmt.Printf("%s, ratio %s, N=%d, %s, %s topology\n", s, ratio, *n, alg, m.Topology)
	fmt.Printf("VoC: %d elements (%.4f × N²)\n", g.VoC(), float64(g.VoC())/float64(*n**n))
	mod := model.EvaluateGrid(alg, m, g)
	fmt.Printf("model: T_comm=%.6fs T_comp=%.6fs T_exe=%.6fs\n", mod.Comm, mod.Comp, mod.Total)
	res, err := sim.Simulate(alg, m, g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sim:   T_comm=%.6fs T_exe=%.6fs (%d tasks)\n", res.TComm, res.TExe, res.Tasks)

	if *gantt {
		fmt.Println()
		if err := sim.WriteGantt(os.Stdout, alg, m, g, 72); err != nil {
			log.Fatal(err)
		}
	}

	if !*doExec {
		return
	}

	var faults *sim.FaultPlan
	if *faultStr != "" {
		faults, err = sim.ParseWorkerFaults(*faultStr)
		if err != nil {
			log.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(*seed))
	a := matrix.New(*n)
	b := matrix.New(*n)
	a.FillRandom(rng)
	b.FillRandom(rng)
	cfg := exec.Config{
		Machine:         m,
		Algorithm:       alg,
		Pace:            *pace,
		PaceFlopsPerSec: *paceRate,
		BlockSize:       *blockSz,
		Faults:          faults,
		Checkpoint:      *ckptPath,
		Resume:          *resume,
		Verify:          *verify,
		MismatchBudget:  *budget,
	}
	c, stats, err := exec.MultiplyContext(ctx, cfg, g, a, b)
	if err != nil {
		if ctx.Err() != nil && *ckptPath != "" {
			log.Fatalf("interrupted (%v); completed blocks are in %s, resume with -resume", err, *ckptPath)
		}
		log.Fatal(err)
	}
	want := matrix.New(*n)
	matrix.MulKIJ(want, a, b)
	status := "MATCH (bit-exact vs serial kij)"
	if !c.Equal(want) {
		status = "MISMATCH"
	}
	fmt.Printf("exec:  moved %d elements (VoC %d), virtual T_exe=%.6fs, wall %v, result %s\n",
		stats.TotalVolume, g.VoC(), stats.VirtualExe, stats.Wall, status)
	if *resume || stats.BlocksResumed > 0 {
		fmt.Printf("exec:  resumed %d blocks from checkpoint, recomputed %d\n", stats.BlocksResumed, stats.BlocksDone)
	}
	if len(stats.Lost) > 0 {
		fmt.Printf("exec:  lost %v, %d survivors, recoveries %v, redistributed %d elements (from-scratch need %d), recovery latency %v\n",
			stats.Lost, stats.Survivors(), stats.RecoveryKinds, stats.RecoveryVolume, stats.RemainderNeed, stats.RecoveryLatency)
	}
	if stats.Speculations > 0 {
		fmt.Printf("exec:  speculated %d straggling blocks, discarded %d duplicate results\n",
			stats.Speculations, stats.BlocksDiscarded)
	}
	if *verify {
		fmt.Printf("exec:  integrity: %d bands checked, %d cells corrected, %d blocks recomputed (injected %d)\n",
			stats.IntegrityChecks, stats.CorruptionsCorrected, stats.BlocksRecomputed, stats.InjectedCorruptions)
		if len(stats.Byzantine) > 0 {
			fmt.Printf("exec:  quarantined %v as Byzantine (budget %d), rejected %d in-flight results, re-plans %v\n",
				stats.Byzantine, *budget, stats.ByzantineRejected, stats.RecoveryKinds)
		}
	}
	if status == "MISMATCH" {
		os.Exit(1)
	}
}

// benchExecReport is the BENCH_exec.json schema: the recovery study's
// rows plus enough environment to rerun it.
type benchExecReport struct {
	Description string                   `json:"description"`
	Environment map[string]string        `json:"environment"`
	Rows        []experiment.RecoveryRow `json:"rows"`
}

func runRecoveryStudy(ctx context.Context, outPath string) {
	rows, err := experiment.RecoveryStudy(ctx, experiment.RecoveryStudyConfig{})
	if err != nil {
		log.Fatal(err)
	}
	if err := experiment.WriteRecoveryTable(os.Stdout, rows); err != nil {
		log.Fatal(err)
	}
	for _, r := range rows {
		if !r.BitExact {
			log.Fatalf("%s kill %s@%g: recovered product is NOT bit-exact", r.Algorithm, r.Victim, r.KillFrac)
		}
		if !r.BoundOK {
			log.Fatalf("%s kill %s@%g: recovery volume %d breaches the 2× remainder-need bound (%d)",
				r.Algorithm, r.Victim, r.KillFrac, r.RecoveryVolume, r.RemainderNeed)
		}
	}
	fmt.Println("\nall recovered products bit-exact; recovery volume within 2× remainder need")
	if outPath == "" {
		return
	}
	report := benchExecReport{
		Description: "Execution-engine recovery overhead: worker R killed at {10,50,90}% of its assigned work " +
			"under each of the five algorithms, SCB, PCB, SCO, PCO and PIO, all on the one supervised engine " +
			"(N=64, ratio 3:2:1, Block-Rectangle, block 8). Each faulted run completes on the 2 survivors " +
			"via the twoproc re-plan and is verified bit-identical to the serial kij kernel. Every scenario runs " +
			"`repeats` times clean and `repeats` times faulted: the wall columns are medians with their quartiles " +
			"(*_q1_ms, *_q3_ms), the wall penalty is the ratio of the medians, the latency a median, and the " +
			"volumes are the first faulted run's. " +
			"Reproduce with: go run ./cmd/mmmsim -recovery-study run -out BENCH_exec.json",
		Environment: map[string]string{
			"goos":   runtime.GOOS,
			"goarch": runtime.GOARCH,
			"date":   time.Now().Format("2006-01-02"),
		},
		Rows: rows,
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n", outPath)
}

// benchIntegrityReport is the BENCH_integrity.json schema: the
// integrity study's corruption rows and overhead measurement plus
// enough environment to rerun it.
type benchIntegrityReport struct {
	Description string                       `json:"description"`
	Environment map[string]string            `json:"environment"`
	Rows        []experiment.IntegrityRow    `json:"rows"`
	Overhead    experiment.IntegrityOverhead `json:"overhead"`
}

func runIntegrityStudy(ctx context.Context, outPath string, maxOverheadPct float64) {
	res, err := experiment.IntegrityStudy(ctx, experiment.IntegrityStudyConfig{})
	if err != nil {
		log.Fatal(err)
	}
	if err := experiment.WriteIntegrityTable(os.Stdout, res); err != nil {
		log.Fatal(err)
	}
	for _, r := range res.Rows {
		if !r.BitExact {
			log.Fatalf("%s %q: verified product is NOT bit-exact", r.Algorithm, r.Faults)
		}
		if r.DetectionRate != nil && *r.DetectionRate < 1 {
			log.Fatalf("%s %q: detection rate %.2f < 1 (injected %d, caught %d+%d+%d)",
				r.Algorithm, r.Faults, *r.DetectionRate, r.Injected, r.Corrected, r.Recomputed, r.Rejected)
		}
	}
	fmt.Println("all verified products bit-exact; every injected corruption detected")
	if maxOverheadPct > 0 && res.Overhead.OverheadPct > maxOverheadPct {
		log.Fatalf("median ABFT overhead %.1f%% exceeds the -max-overhead limit of %.1f%%",
			res.Overhead.OverheadPct, maxOverheadPct)
	}
	if outPath == "" {
		return
	}
	report := benchIntegrityReport{
		Description: "ABFT integrity drill: runs under injected silent corruption (single-cell flips on R at 10%/20% " +
			"of its blocks, deterministic ×8 scaling of every S result, and a combined flip+scale drill) with " +
			"supervisor-side checksum verification on (N=96, block 4, ratio 3:2:1, Block-Rectangle, SCB and PCB). " +
			"Every product is verified bit-identical to the serial kij kernel and every injected corruption is " +
			"detected (corrected in place, recomputed, or rejected from a quarantined Byzantine worker); a row " +
			"that injected nothing reports a null detection rate. The counts in the scale:S rows depend on timing: " +
			"a worker is handed its next block before its last result is verified, so how many blocks S computes " +
			"before its quarantine lands varies from run to run. The overhead block times clean runs at N=256, " +
			"block 64 in 20 back-to-back pairs with verification off and on, alternating which runs first, and " +
			"reports the median per-pair overhead with its quartiles. " +
			"Reproduce with: go run ./cmd/mmmsim -integrity-study run -out BENCH_integrity.json",
		Environment: map[string]string{
			"goos":   runtime.GOOS,
			"goarch": runtime.GOARCH,
			"date":   time.Now().Format("2006-01-02"),
		},
		Rows:     res.Rows,
		Overhead: res.Overhead,
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n", outPath)
}
