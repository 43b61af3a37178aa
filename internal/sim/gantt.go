package sim

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/model"
	"repro/internal/partition"
)

// Gantt renders the simulated schedule of an algorithm on a partition as
// a text chart: one row per task (grouped by resource), time on the
// horizontal axis. It is the visual counterpart of the Eq 2–9 formulas —
// barrier gaps, overlap windows and pipeline stages are directly visible.
func Gantt(a model.Algorithm, m model.Machine, g *partition.Grid, width int) (string, error) {
	if width < 20 {
		width = 60
	}
	if err := m.Ratio.Validate(); err != nil {
		return "", err
	}
	snap := g.Snapshot()
	var e Engine
	switch a {
	case model.SCB, model.PCB:
		buildBarrierTasks(&e, a, m, snap, nil)
	case model.SCO, model.PCO:
		buildBulkOverlapTasks(&e, a, m, snap, nil)
	case model.PIO:
		return "", fmt.Errorf("sim: Gantt supports the barrier and bulk-overlap algorithms (PIO has O(N) rows)")
	default:
		return "", fmt.Errorf("sim: unknown algorithm %v", a)
	}
	makespan := e.Run()
	if makespan <= 0 {
		return "(no work)\n", nil
	}
	tasks := e.Timeline()
	sort.SliceStable(tasks, func(i, j int) bool { return tasks[i].Name < tasks[j].Name })

	var sb strings.Builder
	fmt.Fprintf(&sb, "%v on %s topology — makespan %.6fs\n", a, m.Topology, makespan)
	scale := float64(width) / makespan
	for _, t := range tasks {
		s := int(t.Start * scale)
		f := int(t.Finish * scale)
		if f <= s {
			f = s + 1
		}
		if f > width {
			f = width
		}
		bar := strings.Repeat(" ", s) + strings.Repeat("█", f-s) + strings.Repeat(" ", width-f)
		fmt.Fprintf(&sb, "%-14s |%s|\n", t.Name, bar)
	}
	return sb.String(), nil
}

// WriteGantt writes the chart to w.
func WriteGantt(w io.Writer, a model.Algorithm, m model.Machine, g *partition.Grid, width int) error {
	s, err := Gantt(a, m, g, width)
	if err != nil {
		return err
	}
	_, err = io.WriteString(w, s)
	return err
}

// buildBarrierTasks and buildBulkOverlapTasks extract the task-graph
// construction shared with Simulate so the Gantt uses the same schedule.
// fp, when non-nil, attaches the fault plan's duration-stretch hooks.
func buildBarrierTasks(e *Engine, a model.Algorithm, m model.Machine, snap partition.Metrics, fp *FaultPlan) {
	bus := &Resource{Name: "bus"}
	var sends []*Task
	for _, p := range partition.Procs {
		link := bus
		if a == model.PCB {
			link = &Resource{Name: "link-" + p.String()}
		}
		d := sendDuration(m, snap, p)
		if m.Topology == model.Star && p != partition.P {
			d += m.Net.Time(model.StarRelayVolume(snap))
		}
		if d > 0 {
			t := e.NewTask("send-"+p.String(), d, link)
			t.SetStretch(fp.linkStretch(p))
			sends = append(sends, t)
		}
	}
	procs := cpus()
	for _, p := range partition.Procs {
		d := compDuration(m, p, snap.Elements[p], snap.N)
		if d > 0 {
			t := e.NewTask("comp-"+p.String(), d, procs[p], sends...)
			t.SetStretch(fp.cpuStretch(p))
		}
	}
}

func buildBulkOverlapTasks(e *Engine, a model.Algorithm, m model.Machine, snap partition.Metrics, fp *FaultPlan) {
	bus := &Resource{Name: "bus"}
	procs := cpus()
	var phase1 []*Task
	for _, p := range partition.Procs {
		link := bus
		if a == model.PCO {
			link = &Resource{Name: "link-" + p.String()}
		}
		d := sendDuration(m, snap, p)
		if m.Topology == model.Star && p != partition.P {
			d += m.Net.Time(model.StarRelayVolume(snap))
		}
		if d > 0 {
			t := e.NewTask("send-"+p.String(), d, link)
			t.SetStretch(fp.linkStretch(p))
			phase1 = append(phase1, t)
		}
	}
	for _, p := range partition.Procs {
		d := compDuration(m, p, snap.Overlap[p], snap.N)
		if d > 0 {
			t := e.NewTask("overlap-"+p.String(), d, procs[p])
			t.SetStretch(fp.cpuStretch(p))
			phase1 = append(phase1, t)
		}
	}
	for _, p := range partition.Procs {
		d := compDuration(m, p, snap.Elements[p]-snap.Overlap[p], snap.N)
		if d > 0 {
			t := e.NewTask("remainder-"+p.String(), d, procs[p], phase1...)
			t.SetStretch(fp.cpuStretch(p))
		}
	}
}
