// Package sim provides a discrete-event simulator for parallel MMM on
// three heterogeneous processors. It is the executable counterpart of the
// analytic models of internal/model: each of the five algorithms of
// Section II is expressed as a task graph over explicit resources
// (network links, CPUs), and the event engine computes when every message
// and compute phase starts and finishes. Every task's duration is the
// model's own price (model.Transfers, Machine.Price, Machine.CompTime),
// so a clean run reproduces model.Evaluate; the simulator adds
// per-processor fault injection and the per-task timelines that the
// models collapse into maxima.
package sim

import (
	"container/heap"
	"fmt"
	"math"
	"sort"
)

// Resource is an exclusive, serially-reusable entity (a network link, a
// CPU). Tasks bound to the same Resource execute one at a time in the
// order the engine dispatches them.
type Resource struct {
	Name   string
	freeAt float64
}

// Task is one unit of simulated work.
type Task struct {
	Name string
	// Duration in seconds.
	Duration float64
	// Deps must all finish before this task may start.
	Deps []*Task
	// Resource, when non-nil, serialises this task against others bound
	// to the same resource.
	Resource *Resource

	// Filled by the engine:
	Start, Finish float64
	scheduled     bool
	remainingDeps int
	dependents    []*Task
	seq           int

	// stretch, when non-nil, maps (start time, nominal duration) to the
	// wall-clock duration actually taken — the hook fault injection uses
	// to model stragglers and degraded links (see fault.go). It must
	// return a value ≥ 0 and is consulted exactly once, when the task is
	// finally scheduled.
	stretch func(start, nominal float64) float64
}

// SetStretch installs a time-varying duration hook on the task.
func (t *Task) SetStretch(fn func(start, nominal float64) float64) { t.stretch = fn }

// Engine is a deterministic discrete-event scheduler: ready tasks are
// dispatched in order of earliest feasible start time, with insertion
// order breaking ties.
type Engine struct {
	tasks []*Task
}

// NewTask registers a task with the engine.
func (e *Engine) NewTask(name string, duration float64, res *Resource, deps ...*Task) *Task {
	if duration < 0 || math.IsNaN(duration) {
		panic(fmt.Sprintf("sim: invalid duration %v for task %s", duration, name))
	}
	t := &Task{Name: name, Duration: duration, Deps: deps, Resource: res, seq: len(e.tasks)}
	e.tasks = append(e.tasks, t)
	return t
}

type readyQueue []*Task

func (q readyQueue) Len() int { return len(q) }
func (q readyQueue) Less(i, j int) bool {
	if q[i].Start != q[j].Start {
		return q[i].Start < q[j].Start
	}
	return q[i].seq < q[j].seq
}
func (q readyQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *readyQueue) Push(x any)   { *q = append(*q, x.(*Task)) }
func (q *readyQueue) Pop() any     { old := *q; n := len(old); t := old[n-1]; *q = old[:n-1]; return t }

// Run schedules every registered task and returns the makespan. It
// panics on dependency cycles (a programming error in the schedule
// builder, not a data condition).
func (e *Engine) Run() float64 {
	var ready readyQueue
	for _, t := range e.tasks {
		t.remainingDeps = len(t.Deps)
		t.scheduled = false
		for _, d := range t.Deps {
			d.dependents = append(d.dependents, t)
		}
	}
	for _, t := range e.tasks {
		if t.remainingDeps == 0 {
			t.Start = 0
			heap.Push(&ready, t)
		}
	}
	makespan := 0.0
	done := 0
	for ready.Len() > 0 {
		t := heap.Pop(&ready).(*Task)
		if t.scheduled {
			continue
		}
		start := t.Start
		if t.Resource != nil && t.Resource.freeAt > start {
			// The resource is busy: requeue at the resource's free time
			// so a task on another resource can run first.
			t.Start = t.Resource.freeAt
			heap.Push(&ready, t)
			continue
		}
		t.scheduled = true
		dur := t.Duration
		if t.stretch != nil {
			dur = t.stretch(start, dur)
			if dur < 0 || math.IsNaN(dur) {
				panic(fmt.Sprintf("sim: stretch hook returned invalid duration %v for task %s", dur, t.Name))
			}
		}
		t.Finish = start + dur
		if t.Resource != nil {
			t.Resource.freeAt = t.Finish
		}
		if t.Finish > makespan {
			makespan = t.Finish
		}
		done++
		for _, d := range t.dependents {
			d.remainingDeps--
			if d.remainingDeps == 0 {
				earliest := 0.0
				for _, dep := range d.Deps {
					if dep.Finish > earliest {
						earliest = dep.Finish
					}
				}
				d.Start = earliest
				heap.Push(&ready, d)
			}
		}
	}
	if done != len(e.tasks) {
		panic(fmt.Sprintf("sim: dependency cycle: scheduled %d of %d tasks", done, len(e.tasks)))
	}
	return makespan
}

// Timeline returns the tasks sorted by start time — useful for traces and
// debugging output.
func (e *Engine) Timeline() []*Task {
	out := append([]*Task(nil), e.tasks...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}
