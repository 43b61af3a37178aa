package sim

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/partition"
)

// Result reports a simulated MMM execution.
type Result struct {
	Algorithm model.Algorithm
	// TExe is the simulated makespan in seconds.
	TExe float64
	// TComm is the finish time of the last communication task.
	TComm float64
	// TComp is the total non-overlapped computation span (makespan −
	// start of the last compute phase's earliest task, reported as the
	// remainder phase duration for the barrier/bulk algorithms).
	TComp float64
	// Tasks is the number of simulated tasks.
	Tasks int
}

// Simulate runs algorithm a for the partition on the machine and returns
// the simulated timings.
//
// For PIO the per-step granularity is coarsened to at most maxPIOSteps
// pipeline stages (each representing a contiguous block of pivots) to
// bound task counts; pass steps ≤ 0 for the default.
func Simulate(a model.Algorithm, m model.Machine, g *partition.Grid, pioSteps int) (Result, error) {
	return SimulateFaults(a, m, g, pioSteps, nil)
}

// SimulateFaults is Simulate with platform faults injected: task
// durations are stretched by the plan's straggler and link-degradation
// windows, and messages starting inside a latency-spike window stall.
// A nil plan is a clean run; the result is deterministic in (inputs,
// plan).
func SimulateFaults(a model.Algorithm, m model.Machine, g *partition.Grid, pioSteps int, fp *FaultPlan) (Result, error) {
	if err := m.Ratio.Validate(); err != nil {
		return Result{}, err
	}
	snap := g.Snapshot()
	switch a {
	case model.SCB, model.PCB:
		return simBarrier(a, m, snap, fp), nil
	case model.SCO, model.PCO:
		return simBulkOverlap(a, m, snap, fp), nil
	case model.PIO:
		return simPIO(m, snap, pioSteps, fp), nil
	}
	return Result{}, fmt.Errorf("sim: unknown algorithm %v", a)
}

// cpu returns a CPU resource per processor.
func cpus() map[partition.Proc]*Resource {
	return map[partition.Proc]*Resource{
		partition.P: {Name: "cpu-P"},
		partition.R: {Name: "cpu-R"},
		partition.S: {Name: "cpu-S"},
	}
}

// compDuration is the seconds p needs to update count elements across all
// n pivot steps.
func compDuration(m model.Machine, p partition.Proc, count, n int) float64 {
	return float64(count) * float64(n) * m.FlopTime / m.Ratio.Speed(p)
}

// sendDuration is the Hockney time for p's full send volume, including
// the star-relay surcharge on the slow processors.
func sendDuration(m model.Machine, snap partition.Metrics, p partition.Proc) float64 {
	return m.Net.Time(model.SendVolume(snap, p))
}

// simBarrier builds the SCB/PCB task graph: per-processor send tasks on a
// shared bus (SCB) or private links (PCB); compute tasks gated on every
// send. The construction is shared with the Gantt renderer.
func simBarrier(a model.Algorithm, m model.Machine, snap partition.Metrics, fp *FaultPlan) Result {
	var e Engine
	buildBarrierTasks(&e, a, m, snap, fp)
	return finish(&e, a)
}

// simBulkOverlap builds the SCO/PCO task graph: sends as in the barrier
// algorithms, overlap-compute tasks with no dependencies, remainder
// computes gated on all sends and all overlaps (Eqs 7–8).
func simBulkOverlap(a model.Algorithm, m model.Machine, snap partition.Metrics, fp *FaultPlan) Result {
	var e Engine
	buildBulkOverlapTasks(&e, a, m, snap, fp)
	return finish(&e, a)
}

// finish runs the engine and extracts the Result timings.
func finish(e *Engine, a model.Algorithm) Result {
	makespan := e.Run()
	var commFinish float64
	for _, t := range e.Timeline() {
		if len(t.Name) > 4 && t.Name[:4] == "send" && t.Finish > commFinish {
			commFinish = t.Finish
		}
	}
	return Result{Algorithm: a, TExe: makespan, TComm: commFinish, TComp: makespan - commFinish, Tasks: len(e.tasks)}
}

// simPIO builds the pipelined task graph of Eq 9: the pivot steps are
// grouped into `steps` stages; stage k's sends depend on stage k−1's
// sends (links are serially reused anyway) and stage k's computes depend
// on stage k's sends and stage k−1's computes.
func simPIO(m model.Machine, snap partition.Metrics, steps int, fp *FaultPlan) Result {
	n := snap.N
	if steps <= 0 || steps > n {
		steps = n
		if steps > 256 {
			steps = 256
		}
	}
	var e Engine
	procs := cpus()
	links := map[partition.Proc]*Resource{
		partition.P: {Name: "link-P"},
		partition.R: {Name: "link-R"},
		partition.S: {Name: "link-S"},
	}
	// The star topology inflates the carried volume; spread the surcharge
	// proportionally over the per-processor send volumes.
	relayFactor := 1.0
	if snap.VoC > 0 {
		relayFactor = float64(model.CommVolume(m, snap)) / float64(snap.VoC)
	}
	var prevSends, prevComps []*Task
	for k := 0; k < steps; k++ {
		pivots := (k+1)*n/steps - k*n/steps
		frac := float64(pivots) / float64(n)
		var sends []*Task
		for _, p := range partition.Procs {
			stepVol := frac * float64(model.SendVolume(snap, p)) * relayFactor
			if stepVol > 0 {
				// Latency is paid once per pipeline stage and sender —
				// the cost of interleaving N small messages.
				share := m.Net.Alpha*float64(pivots) + m.Net.Beta*stepVol
				t := e.NewTask(fmt.Sprintf("send-%v-%d", p, k), share, links[p], prevSends...)
				t.SetStretch(fp.linkStretch(p))
				sends = append(sends, t)
			}
		}
		var comps []*Task
		for _, p := range partition.Procs {
			d := float64(snap.Elements[p]) * float64(pivots) * m.FlopTime / m.Ratio.Speed(p)
			if d > 0 {
				deps := append(append([]*Task(nil), sends...), prevComps...)
				t := e.NewTask(fmt.Sprintf("comp-%v-%d", p, k), d, procs[p], deps...)
				t.SetStretch(fp.cpuStretch(p))
				comps = append(comps, t)
			}
		}
		prevSends, prevComps = sends, comps
	}
	makespan := e.Run()
	var commFinish float64
	for _, t := range e.Timeline() {
		if len(t.Name) > 4 && t.Name[:4] == "send" && t.Finish > commFinish {
			commFinish = t.Finish
		}
	}
	return Result{Algorithm: model.PIO, TExe: makespan, TComm: commFinish, TComp: makespan - commFinish, Tasks: len(e.tasks)}
}
