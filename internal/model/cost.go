package model

import (
	"fmt"
	"math"

	"repro/internal/partition"
)

// This file prices communication per directed processor pair. The paper's
// models price every transfer on one uniform Hockney link; real
// 3-processor platforms are hierarchical — two GPUs sharing a node plus one
// across a rack, or three islands behind WAN links — and the partition
// that wins under a uniform network can lose badly when the R↔S link is
// 10× slower. Machine.Price therefore prices every transfer on its own
// directed link: the machine's LinkMatrix when one is installed, else Net
// on all six pairs.
//
// Compatibility contract: a machine whose links form one class — no
// matrix, or a LinkMatrix with all six links equal — reproduces the seed
// evaluation BIT FOR BIT (the seed equivalence goldens enforce both,
// including the per-step α amortisation in PIO). Price earns this by
// grouping links into classes of identical (α, β) and summing each
// class's volume in int64 before touching floats: with one class the
// arithmetic is literally α + β·float64(V), the seed's Hockney.Time.

// ConfigError reports an invalid cost-model or topology configuration
// field. It mirrors the typed config errors of the push and experiment
// layers so wire handlers can map it to a 400 with a field name.
type ConfigError struct {
	Field  string
	Reason string
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("model: %s: %s", e.Field, e.Reason)
}

// VolumeTable holds the elements sent over each directed link [from][to];
// Metrics.PairSends is one.
type VolumeTable = [partition.NumProcs][partition.NumProcs]int64

// LinkMatrix prices every directed processor pair separately: Links[p][q]
// is the Hockney model of the p→q link. Asymmetric entries model duplex
// imbalance; hierarchical platforms (GPU-node / rack / WAN) set the
// intra-island links fast and the crossing links slow. The diagonal is
// ignored.
type LinkMatrix struct {
	Links [partition.NumProcs][partition.NumProcs]Hockney
}

// Validate checks every off-diagonal link: β must be positive and finite,
// α non-negative and finite. It returns a *ConfigError naming the first
// offending link.
func (lm *LinkMatrix) Validate() error {
	for _, p := range partition.Procs {
		for _, q := range partition.Procs {
			if p == q {
				continue
			}
			h := lm.Links[p][q]
			field := fmt.Sprintf("links[%s>%s]", p, q)
			switch {
			case math.IsNaN(h.Beta) || math.IsInf(h.Beta, 0):
				return &ConfigError{Field: field, Reason: fmt.Sprintf("beta must be finite, got %v", h.Beta)}
			case h.Beta <= 0:
				return &ConfigError{Field: field, Reason: fmt.Sprintf("beta must be positive, got %v", h.Beta)}
			case math.IsNaN(h.Alpha) || math.IsInf(h.Alpha, 0):
				return &ConfigError{Field: field, Reason: fmt.Sprintf("alpha must be finite, got %v", h.Alpha)}
			case h.Alpha < 0:
				return &ConfigError{Field: field, Reason: fmt.Sprintf("alpha must be non-negative, got %v", h.Alpha)}
			}
		}
	}
	return nil
}

// Weights returns each directed link's β divided by the smallest β — the
// relative per-element prices the push engine's weighted acceptance test
// minimises. Validate guarantees the minimum is positive.
func (lm *LinkMatrix) Weights() partition.Weights {
	minBeta := math.Inf(1)
	for _, p := range partition.Procs {
		for _, q := range partition.Procs {
			if p != q && lm.Links[p][q].Beta < minBeta {
				minBeta = lm.Links[p][q].Beta
			}
		}
	}
	var w partition.Weights
	for _, p := range partition.Procs {
		for _, q := range partition.Procs {
			if p != q {
				w[p][q] = lm.Links[p][q].Beta / minBeta
			}
		}
	}
	return w
}

// Price returns the seconds to move vols[p][q] elements over each directed
// link p→q — Cost.Links[p][q] when a LinkMatrix is installed, else Net —
// in steps rounds: 1 for a bulk transfer, N for PIO's pivot steps. The
// used links (vol > 0) are grouped into classes of identical (α, β), taken
// in p-major order of their first used link; each class's volume is summed
// in int64 and costs α + β·V/steps, one message per round, with the
// classes' latencies in sequence. The fixed order and the integer sums
// make the float reduction deterministic, and with one class the result is
// exactly Hockney.Time(V), because x/1 is exact. Fixed-size arrays keep it
// free of allocations.
func (m Machine) Price(vols *VolumeTable, steps int) float64 {
	const maxClasses = partition.NumProcs * (partition.NumProcs - 1)
	var class [maxClasses]Hockney
	var vol [maxClasses]int64
	n := 0
	for p := range vols {
		for q, v := range vols[p] {
			if p == q || v <= 0 {
				continue
			}
			h := m.Net
			if m.Cost != nil {
				h = m.Cost.Links[p][q]
			}
			i := 0
			for i < n && class[i] != h {
				i++
			}
			if i == n {
				class[n] = h
				n++
			}
			vol[i] += v
		}
	}
	var t float64
	for i := 0; i < n; i++ {
		t += class[i].Alpha + class[i].Beta*float64(vol[i])/float64(steps)
	}
	return t
}
