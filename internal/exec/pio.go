package exec

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/matrix"
	"repro/internal/model"
	"repro/internal/partition"
)

// MultiplyPIO computes C = A·B with the Parallel Interleaving Overlap
// algorithm (Section II, algorithm 5) executed for real. Each pivot step
// k has its own packets: the pivot column of A and pivot row of B, sent
// cell-by-need to the peers that own cells in those rows and columns,
// with every packet tagged by its step. Workers compute a panel of
// matrix.PivotChunk steps at a time over their own cells, and put the
// next panel's packets on the wire before computing the current one, so
// communication of panel p+1 overlaps computation of panel p — the
// algorithm's pipeline, one panel deep.
//
// The returned Stats accounts every transferred element; the total equals
// the partition's VoC exactly, and the product is bit-identical to the
// serial kij kernel.
func MultiplyPIO(cfg Config, g *partition.Grid, a, b *matrix.Dense) (*matrix.Dense, *Stats, error) {
	n := g.N()
	if a.N() != n || b.N() != n {
		return nil, nil, fmt.Errorf("exec: matrices are %d×%d, partition is %d×%d", a.N(), a.N(), n, n)
	}
	if err := cfg.Machine.Ratio.Validate(); err != nil {
		return nil, nil, err
	}

	start := time.Now()
	stats := &Stats{}
	x := newExchangePlan(g)
	aLocal, bLocal := x.seed(a, b)
	// steps[v][w] carries w's step packets to v in pivot order; a channel
	// per sender keeps a fast peer's later steps from overtaking a slow
	// peer's earlier ones. Room for two panels admits the pipeline's one
	// panel of lookahead without blocking.
	var steps [partition.NumProcs][partition.NumProcs]chan packet
	for _, v := range partition.Procs {
		for _, w := range partition.Procs {
			if w != v {
				steps[v][w] = make(chan packet, 2*matrix.PivotChunk)
			}
		}
	}

	c := matrix.New(n)
	var wg sync.WaitGroup
	errs := make(chan error, partition.NumProcs)
	for _, w := range partition.Procs {
		wg.Add(1)
		go func(w partition.Proc) {
			defer wg.Done()
			// PIO has no overlap phase: every panel updates all of w's cells.
			overlap, rest := x.runs(w)
			runs := append(overlap, rest...)
			// send puts pivot steps [k0, k1) on the wire to every peer.
			// Only this goroutine writes stats.PairVolume[w].
			send := func(k0, k1 int) {
				for k := k0; k < k1; k++ {
					for _, v := range partition.Procs {
						if v == w {
							continue
						}
						pk := x.stepPacket(w, v, k, a, b)
						// Empty packets are still sent: they carry the step
						// tag that keeps the pipeline in lockstep.
						steps[v][w] <- pk
						stats.PairVolume[w][v] += pk.volume()
					}
				}
			}
			send(0, min(matrix.PivotChunk, n))
			for k0 := 0; k0 < n; k0 += matrix.PivotChunk {
				k1 := min(k0+matrix.PivotChunk, n)
				send(k1, min(k1+matrix.PivotChunk, n))
				// Receive this panel: one packet per peer per step.
				for k := k0; k < k1; k++ {
					for _, v := range partition.Procs {
						if v == w {
							continue
						}
						pk := <-steps[w][v]
						if pk.step != k {
							errs <- fmt.Errorf("exec: worker %v expected step %d from %v, got %d", w, k, v, pk.step)
							return
						}
						pk.apply(aLocal[w], bLocal[w])
					}
				}
				matrix.MulRuns(c, aLocal[w], bLocal[w], runs, k0, k1)
			}
			stats.Flops[w] = int64(g.Count(w)) * int64(n)
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	stats.sumVolume()

	// Virtual timings: the model's Eq 9 pipeline for the partition.
	bd := model.EvaluateGrid(model.PIO, cfg.Machine, g)
	stats.VirtualComm, stats.VirtualComp, stats.VirtualExe = bd.Comm, bd.Comp, bd.Total
	stats.Wall = time.Since(start)
	return c, stats, nil
}
