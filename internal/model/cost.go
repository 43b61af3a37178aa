package model

import (
	"fmt"

	"repro/internal/partition"
)

// This file prices communication per directed processor pair. The paper's
// models price every transfer on one uniform Hockney link; real
// 3-processor platforms are hierarchical — two GPUs sharing a node plus one
// across a rack, or three islands behind WAN links — and the partition
// that wins under a uniform network can lose badly when the R↔S link is
// 10× slower. Machine.Price therefore prices every transfer on its own
// directed link: Net, with β scaled by the machine's topology spec for
// the link kinds, and Net itself on all six pairs otherwise. Price is the
// only code that turns a spec multiplier into a Hockney link.
//
// Compatibility contract: a machine whose links form one class — a
// legacy topology, or a link spec with all six multipliers equal to 1 —
// reproduces the seed evaluation BIT FOR BIT (the seed equivalence
// goldens enforce both, including the per-step α amortisation in PIO).
// Price earns this by grouping links into classes of identical (α, β) and
// summing each class's volume in int64 before touching floats: with one
// class the arithmetic is literally α + β·float64(V), the seed's
// Hockney.Time, and β·1 is β exactly.

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

// Price returns the seconds to move vols[p][q] elements over each directed
// link p→q in steps rounds: 1 for a bulk transfer, N for PIO's pivot
// steps. Link p→q is Net, with β times the topology's p→q multiplier
// under a link spec. The used links (vol > 0) are grouped into classes of
// identical (α, β), taken in p-major order of their first used link; each
// class's volume is summed in int64 and costs α + β·V/steps, one message
// per round, with the classes' latencies in sequence. The fixed order and
// the integer sums make the float reduction deterministic, and with one
// class the result is exactly Hockney.Time(V), because x/1 is exact.
// Fixed-size arrays keep it free of allocations, and the pointer receiver
// keeps the Machine and its multiplier table from being copied per call.
func (m *Machine) Price(vols *VolumeTable, steps int) float64 {
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
			if f := m.Topology.mult[p][q]; f != 0 {
				h.Beta *= f
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
