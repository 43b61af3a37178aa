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
	// Tasks is the number of simulated tasks.
	Tasks int
}

// maxPIOStages caps PIO's pipeline: above it, each stage carries a
// contiguous block of pivot steps, which bounds the task count — but
// never more than two (see pioStages).
const maxPIOStages = 256

// pioStages is how many pipeline stages PIO's task graph runs for n
// pivot steps: n up to maxPIOStages, then maxPIOStages until a stage
// would carry more than two pivot steps, then ⌈n/2⌉. A stage's
// computation waits for its whole send, so a stage of m steps lengthens
// the pipeline's critical path by (m−1)·min(step comm, step comp) over
// the uncoarsened one, whose slack to Eq 9's Total is max(step comm,
// step comp): two steps per stage is the most that keeps the simulated
// makespan within Total for every pair of step times.
func pioStages(n int) int {
	return max(min(n, maxPIOStages), (n+1)/2)
}

// Simulate runs algorithm a for the partition on the machine and returns
// the simulated timings.
func Simulate(a model.Algorithm, m model.Machine, g *partition.Grid) (Result, error) {
	return SimulateFaults(a, m, g, nil)
}

// SimulateFaults is Simulate with platform faults injected: task
// durations are stretched by the plan's straggler and link-degradation
// windows, and messages starting inside a latency-spike window stall.
// A nil plan is a clean run; the result is deterministic in (inputs,
// plan).
func SimulateFaults(a model.Algorithm, m model.Machine, g *partition.Grid, fp *FaultPlan) (Result, error) {
	var e Engine
	comms, err := schedule(&e, a, m, g, fp)
	if err != nil {
		return Result{}, err
	}
	res := Result{Algorithm: a, TExe: e.Run(), Tasks: len(e.tasks)}
	for _, t := range comms {
		res.TComm = max(res.TComm, t.Finish)
	}
	return res, nil
}

// schedule checks the inputs and adds algorithm a's task graph on g to e
// (see build), returning its communication tasks.
func schedule(e *Engine, a model.Algorithm, m model.Machine, g *partition.Grid, fp *FaultPlan) ([]*Task, error) {
	if err := m.Ratio.Validate(); err != nil {
		return nil, err
	}
	if int(a) >= model.NumAlgorithms {
		return nil, fmt.Errorf("sim: unknown algorithm %v", a)
	}
	if g.K() != partition.NumProcs {
		return nil, fmt.Errorf("sim: partition has %d processors, want %d", g.K(), partition.NumProcs)
	}
	return build(e, a, m, g.Snapshot(), fp), nil
}

// build adds algorithm a's task graph on partition snap to e and returns
// its communication tasks. Every duration comes from the model: each
// sender's messages are model.Transfers' table for it, priced by
// Machine.Price, and every computation is Machine.CompTime. SCB, SCO and
// PIO send over one shared bus, PCB and PCO give each sender its own link,
// and PCO's star relay is one message on P's link after the parallel
// sends. fp, when non-nil, stretches each task by its processor's faults.
//
// PIO runs pioStages(N) pipeline stages: stage k's sends follow
// stage k−1's, and its computes follow its own sends and stage k−1's
// computes. A stage of pivots pivot steps sends pivots × Price(table, N)
// per sender, the model's per-step stream.
func build(e *Engine, a model.Algorithm, m model.Machine, snap partition.Metrics, fp *FaultPlan) []*Task {
	tr := model.Transfers(a, m, snap)
	var link, cpu [partition.NumProcs]*Resource
	bus := &Resource{Name: "bus"}
	for _, p := range partition.Procs {
		link[p], cpu[p] = bus, &Resource{Name: "cpu-" + p.String()}
		if a == model.PCB || a == model.PCO {
			link[p] = &Resource{Name: "link-" + p.String()}
		}
	}
	var comms []*Task
	// send adds, after deps, each sender's messages for pivots of the
	// steps rounds its stream is priced in: the whole stream when both
	// are 1.
	send := func(suffix string, pivots, steps int, deps []*Task) []*Task {
		var out []*Task
		for _, p := range partition.Procs {
			if d := float64(pivots) * m.Price(&tr.Sends[p], steps); d > 0 {
				t := e.NewTask("send-"+p.String()+suffix, d, link[p], deps...)
				t.SetStretch(fp.linkStretch(p))
				out = append(out, t)
			}
		}
		comms = append(comms, out...)
		return out
	}
	// compute adds each processor's update of counts[p] elements over
	// pivots pivot steps.
	compute := func(kind, suffix string, counts [partition.NumProcs]int, pivots int, deps []*Task) []*Task {
		var out []*Task
		for _, p := range partition.Procs {
			if d := m.CompTime(p, counts[p], pivots); d > 0 {
				t := e.NewTask(kind+"-"+p.String()+suffix, d, cpu[p], deps...)
				t.SetStretch(fp.cpuStretch(p))
				out = append(out, t)
			}
		}
		return out
	}
	n := snap.N
	switch a {
	case model.SCB, model.PCB:
		compute("comp", "", snap.Elements, n, send("", 1, 1, nil))
	case model.SCO, model.PCO:
		phase1 := send("", 1, 1, nil)
		if d := m.Price(&tr.Relay, 1); d > 0 {
			t := e.NewTask("relay-P", d, link[partition.P], phase1...)
			t.SetStretch(fp.linkStretch(partition.P))
			comms = append(comms, t)
			phase1 = append(phase1, t)
		}
		phase1 = append(phase1, compute("overlap", "", snap.Overlap, n, nil)...)
		var remainder [partition.NumProcs]int
		for _, p := range partition.Procs {
			remainder[p] = snap.Elements[p] - snap.Overlap[p]
		}
		compute("remainder", "", remainder, n, phase1)
	case model.PIO:
		stages := pioStages(n)
		var sends, comps []*Task
		for k := 0; k < stages; k++ {
			pivots := (k+1)*n/stages - k*n/stages
			suffix := fmt.Sprintf("-%d", k)
			sends = send(suffix, pivots, n, sends)
			deps := append(append([]*Task(nil), sends...), comps...)
			comps = compute("comp", suffix, snap.Elements, pivots, deps)
		}
	}
	return comms
}
