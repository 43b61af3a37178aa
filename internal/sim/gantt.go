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
	if a == model.PIO {
		return "", fmt.Errorf("sim: Gantt supports the barrier and bulk-overlap algorithms (PIO has O(N) rows)")
	}
	var e Engine
	if _, err := schedule(&e, a, m, g, nil); err != nil {
		return "", err
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
