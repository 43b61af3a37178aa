package exec

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/matrix"
	"repro/internal/model"
	"repro/internal/partition"
)

// MultiplyOverlap computes C = A·B with the bulk-overlap algorithms (SCO
// or PCO, Section II): while the data exchange is in flight each worker
// computes its *overlap* elements — the cells whose full row of A and
// column of B it already owns — and only the remainder waits for the
// exchange, exactly the Eq 7/8 schedule. The product is bit-identical to
// the serial kij kernel and the measured traffic equals Eq 1's VoC. It
// is MultiplyOverlapContext with a background context.
func MultiplyOverlap(cfg Config, g *partition.Grid, a, b *matrix.Dense) (*matrix.Dense, *Stats, error) {
	return MultiplyOverlapContext(context.Background(), cfg, g, a, b)
}

// MultiplyOverlapContext is MultiplyOverlap honouring ctx. The overlap
// schedule has no pacing and its workers never block (every inbox holds
// all inbound packets), so cancellation is checked at the phase
// boundaries: a cancelled context stops the run before it starts or
// discards the result right after the workers drain.
func MultiplyOverlapContext(ctx context.Context, cfg Config, g *partition.Grid, a, b *matrix.Dense) (*matrix.Dense, *Stats, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	n := g.N()
	if a.N() != n || b.N() != n {
		return nil, nil, fmt.Errorf("exec: matrices are %d×%d, partition is %d×%d", a.N(), a.N(), n, n)
	}
	if cfg.Algorithm != model.SCO && cfg.Algorithm != model.PCO {
		return nil, nil, fmt.Errorf("exec: algorithm %v not supported (want SCO or PCO)", cfg.Algorithm)
	}
	if err := cfg.Machine.Ratio.Validate(); err != nil {
		return nil, nil, err
	}

	start := time.Now()
	stats := &Stats{}
	x := newExchangePlan(g)
	workers := x.newWorkers(a, b)
	c := matrix.New(n)
	var wg sync.WaitGroup
	for _, w := range partition.Procs {
		wg.Add(1)
		go func(w partition.Proc) {
			defer wg.Done()
			ws := workers[w]
			overlap, rest := x.runs(w)
			// Phase 1a: launch the exchange.
			x.send(w, workers, a, b, stats)
			// Phase 1b: overlap computation while packets are in flight.
			matrix.MulRuns(c, ws.aLocal, ws.bLocal, overlap, 0, n)
			// Barrier on the exchange, then the remainder (Eq 7/8).
			ws.receive()
			matrix.MulRuns(c, ws.aLocal, ws.bLocal, rest, 0, n)
			stats.Flops[w] = int64(g.Count(w)) * int64(n)
		}(w)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	stats.sumVolume()

	bd := model.EvaluateGrid(cfg.Algorithm, cfg.Machine, g)
	stats.VirtualComm, stats.VirtualComp, stats.VirtualExe = bd.Comm, bd.Comp, bd.Total
	stats.Wall = time.Since(start)
	return c, stats, nil
}
