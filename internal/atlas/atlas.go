package atlas

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/model"
	"repro/internal/partition"
)

// Record is one cell's baked decision. The struct is plain scalar data
// returned by value, so the lookup path allocates nothing.
type Record struct {
	// Shape is the winning candidate (meaningful when Feasible).
	Shape partition.Shape
	// Feasible is false when no candidate shape could be built for the
	// cell's ratio (does not occur for the canonical six, but the format
	// does not assume that).
	Feasible bool
	// VoC is the winner's communication volume in elements.
	VoC int64
	// Total and Comm are the winner's modelled execution and
	// communication time in seconds.
	Total float64
	Comm  float64
}

// Atlas is an immutable winner-shape snapshot over a quantization grid.
// Load one at startup and share it freely: all methods are read-only.
type Atlas struct {
	alg  model.Algorithm
	topo model.TopologySpec
	n    int
	grid Grid
	// recs is indexed by Grid.Index; cells with Pr < Rr hold zero records
	// flagged invalid.
	recs []Record
	// valid marks computed cells (parallel to recs; separate so Record
	// stays pure payload).
	valid []bool
}

// Algorithm returns the MMM algorithm the sweep optimised for.
func (a *Atlas) Algorithm() model.Algorithm { return a.alg }

// Topology returns the network topology of the sweep, one of the two
// legacy topologies.
func (a *Atlas) Topology() model.TopologySpec { return a.topo }

// N returns the matrix dimension the plans were sized for.
func (a *Atlas) N() int { return a.n }

// Grid returns the quantization lattice.
func (a *Atlas) Grid() Grid { return a.grid }

// Cells returns the total lattice size, invalid cells included.
func (a *Atlas) Cells() int { return len(a.recs) }

// ValidCells returns the number of computed (Pr ≥ Rr) cells.
func (a *Atlas) ValidCells() int {
	n := 0
	for _, v := range a.valid {
		if v {
			n++
		}
	}
	return n
}

// Lookup returns the baked record for a ratio, or ok=false when the
// ratio is off-atlas. It performs no allocation: a quantization snap,
// one slice index, and a by-value record copy.
func (a *Atlas) Lookup(r partition.Ratio) (Record, Cell, bool) {
	c, ok := a.grid.Snap(r)
	if !ok {
		return Record{}, Cell{}, false
	}
	idx := a.grid.Index(c)
	if !a.valid[idx] {
		return Record{}, Cell{}, false
	}
	return a.recs[idx], c, true
}

// At returns the record at a cell (for iteration by dump/spot-check
// tooling); ok is false for invalid or uncomputed cells.
func (a *Atlas) At(c Cell) (Record, bool) {
	if !a.grid.Valid(c) {
		return Record{}, false
	}
	idx := a.grid.Index(c)
	return a.recs[idx], a.valid[idx]
}

// WinnerCounts tallies how many valid cells each shape wins.
func (a *Atlas) WinnerCounts() map[partition.Shape]int {
	out := make(map[partition.Shape]int)
	for i, rec := range a.recs {
		if a.valid[i] && rec.Feasible {
			out[rec.Shape]++
		}
	}
	return out
}

// BuildConfig parameterises a sweep.
type BuildConfig struct {
	Algorithm model.Algorithm
	// Topology is model.FullyConnected or model.Star; Build refuses a
	// link spec, which the snapshot's topology byte cannot name.
	Topology model.TopologySpec
	// N is the matrix dimension the baked plans answer for.
	N    int
	Grid Grid
	// Workers bounds the sweep parallelism (default GOMAXPROCS).
	Workers int
	// Progress, when non-nil, receives (done, total) after each completed
	// grid row.
	Progress func(done, total int)
}

// Build sweeps the grid and bakes the winner decision per cell with
// model.Compare, the comparison the online planner (heteropart.NewPlan)
// runs — so a baked answer is bit-identical to what a live plan request
// would compute. Rows run in parallel; ctx cancels between rows.
func Build(ctx context.Context, cfg BuildConfig) (*Atlas, error) {
	if cfg.N < 4 {
		return nil, fmt.Errorf("atlas: n must be ≥ 4, got %d", cfg.N)
	}
	if cfg.Grid.Scale < 1 || cfg.Grid.PrCells < 1 || cfg.Grid.RrCells < 1 {
		return nil, fmt.Errorf("atlas: grid is empty or unscaled (use NewGrid)")
	}
	if _, ok := topologyByte(cfg.Topology); !ok {
		return nil, fmt.Errorf("atlas: topology %v prices links individually; an atlas bakes fully-connected or star only", cfg.Topology)
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	a := &Atlas{
		alg:   cfg.Algorithm,
		topo:  cfg.Topology,
		n:     cfg.N,
		grid:  cfg.Grid,
		recs:  make([]Record, cfg.Grid.Cells()),
		valid: make([]bool, cfg.Grid.Cells()),
	}

	rows := make(chan int)
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		done int
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pi := range rows {
				a.buildRow(pi)
				mu.Lock()
				done++
				if cfg.Progress != nil {
					cfg.Progress(done, cfg.Grid.PrCells)
				}
				mu.Unlock()
			}
		}()
	}
feed:
	for pi := 0; pi < cfg.Grid.PrCells; pi++ {
		select {
		case <-ctx.Done():
			break feed
		case rows <- pi:
		}
	}
	close(rows)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("atlas: sweep interrupted: %w", err)
	}
	return a, nil
}

// machine is the platform every cell is priced on: the default machine
// for the cell's ratio on the atlas's topology.
func (a *Atlas) machine(ratio partition.Ratio) model.Machine {
	m := model.DefaultMachine(ratio)
	m.Topology = a.topo
	return m
}

// buildRow fills every valid cell of one Pr row. A cell where no
// candidate is feasible is recorded as such, not an error: the snapshot
// must describe the whole grid honestly.
func (a *Atlas) buildRow(pi int) {
	for ri := 0; ri < a.grid.RrCells; ri++ {
		c := Cell{Pi: pi, Ri: ri}
		if !a.grid.Valid(c) {
			continue
		}
		idx := a.grid.Index(c)
		a.valid[idx] = true
		cands, best, err := model.Compare(a.alg, a.machine(a.grid.Ratio(c)), a.n)
		if err != nil {
			a.recs[idx] = Record{}
			continue
		}
		w := cands[best]
		a.recs[idx] = Record{
			Shape:    w.Shape,
			Feasible: true,
			VoC:      w.VoC,
			Total:    w.Breakdown.Total,
			Comm:     w.Breakdown.Comm,
		}
	}
}
