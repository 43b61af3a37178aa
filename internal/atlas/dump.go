package atlas

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"sort"

	heteropart "repro"
	"repro/internal/experiment"
	"repro/internal/partition"
)

// Dump writes a human-readable description of the atlas: the snapshot
// header fields, grid resolution, per-shape winner counts, and the
// winner-map phase diagram (Pr down, Rr right, one glyph per cell).
func (a *Atlas) Dump(w io.Writer) error {
	g := a.grid
	if _, err := fmt.Fprintf(w, "shape atlas v%d: %v, %v topology, n=%d\n",
		snapshotVersion, a.alg, a.topo, a.n); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "grid: %d x %d cells (Pr 1..%s, Rr 1..%s, step 1/%d), %d valid\n",
		g.PrCells, g.RrCells,
		trimFloat(g.coord(g.PrCells-1)), trimFloat(g.coord(g.RrCells-1)),
		g.Scale, a.ValidCells()); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "snapshot: %d bytes, payload crc32 %08x\n",
		headerSize+len(a.recs)*recordStride, a.PayloadCRC()); err != nil {
		return err
	}

	counts := a.WinnerCounts()
	shapes := make([]partition.Shape, 0, len(counts))
	for s := range counts {
		shapes = append(shapes, s)
	}
	sort.Slice(shapes, func(i, j int) bool { return counts[shapes[i]] > counts[shapes[j]] })
	if _, err := fmt.Fprintf(w, "winners:\n"); err != nil {
		return err
	}
	for _, s := range shapes {
		if _, err := fmt.Fprintf(w, "  %-22v %6d cells (%.1f%%)\n",
			s, counts[s], 100*float64(counts[s])/float64(a.ValidCells())); err != nil {
			return err
		}
	}

	if _, err := fmt.Fprintf(w, "phase diagram (rows Pr top-down, cols Rr left-right; %s; '.' = Pr < Rr, '!' = infeasible):\n",
		"C=Square-Corner r=Rectangle-Corner Q=Square-Rectangle B=Block-Rectangle L=L-Rectangle T=Traditional"); err != nil {
		return err
	}
	line := make([]byte, 0, g.RrCells)
	for pi := 0; pi < g.PrCells; pi++ {
		line = line[:0]
		for ri := 0; ri < g.RrCells; ri++ {
			c := Cell{Pi: pi, Ri: ri}
			rec, ok := a.At(c)
			switch {
			case !ok:
				line = append(line, '.')
			case !rec.Feasible:
				line = append(line, '!')
			default:
				line = append(line, experiment.ShapeGlyph(rec.Shape))
			}
		}
		if _, err := fmt.Fprintf(w, "Pr=%-6s %s\n", trimFloat(g.coord(pi)), line); err != nil {
			return err
		}
	}
	return nil
}

// trimFloat renders a lattice coordinate compactly ("1.2", "10").
func trimFloat(v float64) string { return fmt.Sprintf("%g", v) }

// Mismatch is one spot-check divergence between a baked record and the
// live optimal-search answer for the same scenario.
type Mismatch struct {
	Cell  Cell
	Ratio partition.Ratio
	// Reason describes the first observed divergence.
	Reason string
}

func (m Mismatch) String() string {
	return fmt.Sprintf("cell (Pi=%d,Ri=%d) ratio %v: %s", m.Cell.Pi, m.Cell.Ri, m.Ratio, m.Reason)
}

// SpotCheck re-derives `cells` randomly chosen valid cells through the
// live search path (heteropart.NewPlan — the exact code serving an
// off-atlas request) and compares shape, VoC, modelled cost, and the full
// serialised plan byte-for-byte against what the atlas would serve
// (heteropart.NewPlanForShape on the baked winner). It returns every
// divergence found; an empty slice certifies the sample bit-identical.
// The seed makes a run reproducible; ctx cancels between cells.
func (a *Atlas) SpotCheck(ctx context.Context, cells int, seed int64) ([]Mismatch, error) {
	valid := make([]int, 0, len(a.recs))
	for i, v := range a.valid {
		if v {
			valid = append(valid, i)
		}
	}
	if len(valid) == 0 {
		return nil, fmt.Errorf("atlas: no valid cells to spot-check")
	}
	if cells <= 0 || cells > len(valid) {
		cells = len(valid)
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(valid), func(i, j int) { valid[i], valid[j] = valid[j], valid[i] })

	var out []Mismatch
	for _, idx := range valid[:cells] {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("atlas: spot-check interrupted: %w", err)
		}
		c := a.grid.Cell(idx)
		ratio := a.grid.Ratio(c)
		rec := a.recs[idx]
		if mm := a.checkCell(c, ratio, rec); mm != nil {
			out = append(out, *mm)
		}
	}
	return out, nil
}

// checkCell compares one baked record against the live search answer.
func (a *Atlas) checkCell(c Cell, ratio partition.Ratio, rec Record) *Mismatch {
	m := a.machine(ratio)
	live, err := heteropart.NewPlan(a.alg, m, a.n)
	if err != nil {
		if !rec.Feasible {
			return nil // both sides agree: no shape fits
		}
		return &Mismatch{Cell: c, Ratio: ratio,
			Reason: fmt.Sprintf("atlas says %v wins but live search failed: %v", rec.Shape, err)}
	}
	if !rec.Feasible {
		return &Mismatch{Cell: c, Ratio: ratio,
			Reason: fmt.Sprintf("atlas says infeasible but live search picked %s", live.Shape)}
	}
	if got := rec.Shape.String(); got != live.Shape {
		return &Mismatch{Cell: c, Ratio: ratio,
			Reason: fmt.Sprintf("winner differs: atlas %s, live %s", got, live.Shape)}
	}
	if rec.VoC != live.VoC {
		return &Mismatch{Cell: c, Ratio: ratio,
			Reason: fmt.Sprintf("VoC differs: atlas %d, live %d", rec.VoC, live.VoC)}
	}
	if rec.Total != live.Expected.Total || rec.Comm != live.Expected.Comm {
		return &Mismatch{Cell: c, Ratio: ratio,
			Reason: fmt.Sprintf("modelled cost differs: atlas (%v, %v), live (%v, %v)",
				rec.Total, rec.Comm, live.Expected.Total, live.Expected.Comm)}
	}
	// Byte-compare the full plans: this is the strongest guarantee — the
	// atlas-served response is literally the search-served response.
	baked, err := heteropart.NewPlanForShape(a.alg, m, a.n, rec.Shape)
	if err != nil {
		return &Mismatch{Cell: c, Ratio: ratio,
			Reason: fmt.Sprintf("baked winner %v no longer buildable: %v", rec.Shape, err)}
	}
	var bakedJSON, liveJSON bytes.Buffer
	if err := baked.WriteJSON(&bakedJSON); err != nil {
		return &Mismatch{Cell: c, Ratio: ratio, Reason: fmt.Sprintf("encode baked plan: %v", err)}
	}
	if err := live.WriteJSON(&liveJSON); err != nil {
		return &Mismatch{Cell: c, Ratio: ratio, Reason: fmt.Sprintf("encode live plan: %v", err)}
	}
	if !bytes.Equal(bakedJSON.Bytes(), liveJSON.Bytes()) {
		return &Mismatch{Cell: c, Ratio: ratio, Reason: "serialised plans are not byte-identical"}
	}
	return nil
}
