// Package model implements the performance models of Section IV-B: total
// execution time of parallel matrix-matrix multiplication on three
// heterogeneous processors under the five MMM algorithms (SCB, PCB, SCO,
// PCO, PIO), driven by the Hockney communication model and the partition
// metrics of Eq 1 / Eq 6.
//
// All models are evaluated exactly on a concrete partition grid (via
// partition.Metrics), so they apply to the candidate canonical shapes and
// to arbitrary non-shapes alike. Closed forms for the canonical shapes
// used in the Section X comparison live in closedform.go.
package model

import (
	"fmt"

	"repro/internal/partition"
)

// Algorithm identifies one of the five parallel MMM algorithms of
// Section II.
type Algorithm uint8

const (
	// SCB — Serial Communication with Barrier: all data sent serially,
	// then computation proceeds in parallel (Eq 2–3).
	SCB Algorithm = iota
	// PCB — Parallel Communication with Barrier: all data sent in
	// parallel, then computation (Eq 4–6).
	PCB
	// SCO — Serial Communication with Bulk Overlap: serial sends overlap
	// with computation of the communication-free elements (Eq 7).
	SCO
	// PCO — Parallel Communication with Bulk Overlap (Eq 8).
	PCO
	// PIO — Parallel Interleaving Overlap: pivot row/column k is sent
	// while step k−1 is computed (Eq 9).
	PIO
	numAlgorithms
)

// NumAlgorithms is the number of modelled MMM algorithms.
const NumAlgorithms = int(numAlgorithms)

// AllAlgorithms lists the algorithms in paper order.
var AllAlgorithms = [NumAlgorithms]Algorithm{SCB, PCB, SCO, PCO, PIO}

func (a Algorithm) String() string {
	switch a {
	case SCB:
		return "SCB"
	case PCB:
		return "PCB"
	case SCO:
		return "SCO"
	case PCO:
		return "PCO"
	case PIO:
		return "PIO"
	}
	return fmt.Sprintf("Algorithm(%d)", uint8(a))
}

// ParseAlgorithm parses an algorithm name.
func ParseAlgorithm(s string) (Algorithm, error) {
	for _, a := range AllAlgorithms {
		if a.String() == s {
			return a, nil
		}
	}
	return 0, fmt.Errorf("model: unknown algorithm %q", s)
}

// Topology is the interconnect layout of Section X.
type Topology uint8

const (
	// FullyConnected lets every processor pair communicate directly.
	FullyConnected Topology = iota
	// Star routes all traffic through the fastest processor P: R and S
	// exchange data only via P, doubling the cost of any R↔S volume.
	Star
)

func (t Topology) String() string {
	switch t {
	case FullyConnected:
		return "fully-connected"
	case Star:
		return "star"
	}
	return fmt.Sprintf("Topology(%d)", uint8(t))
}

// Hockney is the linear communication model T_comm = α + β·M of Hockney
// [12]: α seconds of latency per message plus β seconds per element.
type Hockney struct {
	// Alpha is the per-message latency in seconds.
	Alpha float64
	// Beta is the per-element transfer time in seconds (element size ÷
	// bandwidth).
	Beta float64
}

// Time returns the cost of one message of m elements.
func (h Hockney) Time(m int64) float64 {
	if m <= 0 {
		return 0
	}
	return h.Alpha + h.Beta*float64(m)
}

// Machine gathers everything the models need about the platform.
type Machine struct {
	// Ratio is the relative processing-speed ratio.
	Ratio partition.Ratio
	// Net is the communication model: the Hockney link of every
	// processor pair when Cost is nil.
	Net Hockney
	// FlopTime is the seconds the *slowest* processor (S, speed 1) needs
	// for one element-update (one multiply-add of the kij loop).
	// Processor X performs an element update in FlopTime/Speed(X).
	FlopTime float64
	// Topology selects the interconnect (Section X); the zero value is
	// FullyConnected.
	Topology Topology
	// Cost, when non-nil, prices each directed processor pair on its own
	// link instead of Net on all six (see Evaluate). A matrix whose six
	// links equal Net evaluates bit for bit as a nil Cost.
	Cost *LinkMatrix
	// Spec is the canonical topology-spec label when Cost was installed
	// by TopologySpec.Apply; empty for legacy machines. Wire formats
	// echo it (see TopologyName).
	Spec string
}

// TopologyName returns the canonical topology label for wire formats: the
// applied spec when one installed a link matrix, else the legacy name.
func (m Machine) TopologyName() string {
	if m.Spec != "" {
		return m.Spec
	}
	return m.Topology.String()
}

// PushWeights returns the per-pair acceptance weights the push engine
// should minimise for this machine, or nil when the raw integer VoC is
// the right objective (no link matrix, or one with all β equal — the
// bit-exact path).
func (m Machine) PushWeights() *partition.Weights {
	if m.Cost == nil {
		return nil
	}
	w := m.Cost.Weights()
	if w.Uniform() {
		return nil
	}
	return &w
}

// CompTime returns the seconds processor p needs to update count elements
// once per pivot step, over steps pivot steps.
func (m Machine) CompTime(p partition.Proc, count, steps int) float64 {
	return float64(count) * float64(steps) * m.FlopTime / m.Ratio.Speed(p)
}

// DefaultMachine mirrors the paper's experimental platform of Fig 14:
// 1000 MB/s network, 8-byte elements, negligible latency, and a unit
// element-update time scaled so that compute and communication are
// comparable at N=5000.
func DefaultMachine(ratio partition.Ratio) Machine {
	return Machine{
		Ratio:    ratio,
		Net:      Hockney{Alpha: 0, Beta: 8.0 / 1e9}, // 8 B / (1000 MB/s)
		FlopTime: 1.0 / 1e9,
	}
}

// Breakdown reports the components of an execution-time estimate.
type Breakdown struct {
	Algorithm Algorithm
	// Comm is the (possibly overlapped) communication time in seconds.
	Comm float64
	// Overlap is the computation time overlapped with communication
	// (zero for barrier algorithms).
	Overlap float64
	// Comp is the non-overlapped computation time.
	Comp float64
	// Total is the modelled execution time (Eqs 2, 4, 7, 8, 9).
	Total float64
}

// Traffic is who sends what during one run of an algorithm.
type Traffic struct {
	// Sends[p] is the directed-volume table of the messages processor p
	// sends: its row of PairSends, plus the star relay where the
	// algorithm carries it. Price(&Sends[p], steps) is p's stream.
	Sends [partition.NumProcs]VolumeTable
	// Relay is PCO's trailing relay message, sent after the parallel
	// phase; zero for every other algorithm and topology.
	Relay VolumeTable
}

// Transfers splits algorithm a's communication on partition snap by
// sender. Star (Section X) routes R↔S traffic through P. The relay volume
// is min(d_R, d_S) (StarRelayVolume), the only relay rule, and it enters
// where the paper's single-link models put it: SCB, SCO and PIO add it to
// P's sends, which share one serial stream with R's and S's; PCB adds it
// to R's and S's own sends; and PCO pays it as one extra message after
// the parallel phase. The relay rides the P→S link, because P forwards
// it; with equal links that is the single message of the seed model. No
// topology spec combines star with a link matrix, but a Machine that does
// follows this rule.
func Transfers(a Algorithm, m Machine, snap partition.Metrics) (t Traffic) {
	for p := range t.Sends {
		t.Sends[p][p] = snap.PairSends[p] // row p of p's own table
	}
	if m.Topology != Star {
		return t
	}
	relay := StarRelayVolume(snap)
	switch a {
	case SCB, SCO, PIO:
		t.Sends[partition.P][partition.P][partition.S] += relay
	case PCB:
		t.Sends[partition.R][partition.P][partition.S] = relay
		t.Sends[partition.S][partition.P][partition.S] = relay
	case PCO:
		t.Relay[partition.P][partition.S] = relay
	}
	return t
}

// Evaluate models the execution time of algorithm a on partition metrics
// snap (Eqs 2–9). Every transfer is Transfers' traffic priced by Price and
// every computation is CompTime:
//
//   - SCB (Eqs 2–3) sends all traffic serially, then computes;
//   - PCB (Eqs 4–6) lets the three processors send at once, so the
//     slowest sender sets the communication time;
//   - SCO and PCO (Eqs 7–8) overlap those two phases with the
//     computation of each processor's communication-free elements, then
//     compute the remainder;
//   - PIO (Eq 9) pipelines the N pivot steps: step k's share of the
//     traffic overlaps step k−1's computation, with the per-message
//     latency paid every step — the interleaved algorithm sends N small
//     messages where the others send one large one, the latency
//     sensitivity the paper's conclusion names as future work.
func Evaluate(a Algorithm, m Machine, snap partition.Metrics) Breakdown {
	t := Transfers(a, m, snap)
	// serial is every sender's traffic as one stream of steps rounds.
	serial := func(steps int) float64 {
		var all VolumeTable
		for from := range all {
			for to := range all[from] {
				all[from][to] = t.Sends[partition.P][from][to] +
					t.Sends[partition.R][from][to] + t.Sends[partition.S][from][to]
			}
		}
		return m.Price(&all, steps)
	}
	// parallel is the slowest of the senders' own streams.
	parallel := func() float64 {
		var worst float64
		for p := range t.Sends {
			if c := m.Price(&t.Sends[p], 1); c > worst {
				worst = c
			}
		}
		return worst
	}
	// maxComp is the slowest processor's time to update its counts[p]
	// elements once per pivot step, over steps steps.
	maxComp := func(counts *[partition.NumProcs]int, steps int) float64 {
		var worst float64
		for _, p := range partition.Procs {
			if c := m.CompTime(p, counts[p], steps); c > worst {
				worst = c
			}
		}
		return worst
	}
	n := snap.N
	barrier := func(comm float64) Breakdown {
		comp := maxComp(&snap.Elements, n)
		return Breakdown{Algorithm: a, Comm: comm, Comp: comp, Total: comm + comp}
	}
	overlapped := func(comm float64) Breakdown {
		var remainder [partition.NumProcs]int
		for _, p := range partition.Procs {
			remainder[p] = snap.Elements[p] - snap.Overlap[p]
		}
		overlap := maxComp(&snap.Overlap, n)
		comp := maxComp(&remainder, n)
		return Breakdown{Algorithm: a, Comm: comm, Overlap: overlap, Comp: comp, Total: max(comm, overlap) + comp}
	}
	switch a {
	case SCB:
		return barrier(serial(1))
	case PCB:
		return barrier(parallel())
	case SCO:
		return overlapped(serial(1))
	case PCO:
		return overlapped(parallel() + m.Price(&t.Relay, 1))
	case PIO:
		if n == 0 {
			return Breakdown{Algorithm: PIO}
		}
		stepComm := serial(n)
		stepComp := maxComp(&snap.Elements, 1)
		// Send step 1, run the pipeline, compute step N.
		total := stepComm + float64(n)*max(stepComm, stepComp) + stepComp
		return Breakdown{
			Algorithm: PIO,
			Comm:      stepComm * float64(n),
			Comp:      stepComp * float64(n),
			Total:     total,
		}
	}
	panic("model: unknown algorithm")
}

// EvaluateGrid is Evaluate on a concrete partition.
func EvaluateGrid(a Algorithm, m Machine, g *partition.Grid) Breakdown {
	return Evaluate(a, m, g.Snapshot())
}

// StarRelayVolume estimates the extra volume the star topology forwards
// through P: the data R needs from S plus the data S needs from R. With
// identically partitioned matrices this is bounded by the smaller of the
// two processors' send volumes; we use that bound as the model.
func StarRelayVolume(snap partition.Metrics) int64 {
	return min(snap.Sends[partition.R], snap.Sends[partition.S])
}

// SendVolumeEq6 is the paper's literal d_X formula (Eq 6):
// (N·i_X + N·j_X) − ∈X.
func SendVolumeEq6(snap partition.Metrics, p partition.Proc) int64 {
	n := int64(snap.N)
	return n*int64(snap.Rows[p]) + n*int64(snap.Cols[p]) - int64(snap.Elements[p])
}

// IdealTime returns the communication-free, perfectly-balanced lower
// bound for the execution time: all N³ element-updates spread across the
// processors in proportion to speed.
func IdealTime(m Machine, n int) float64 {
	updates := float64(n) * float64(n) * float64(n)
	return updates * m.FlopTime / m.Ratio.T()
}

// Efficiency returns IdealTime divided by the modelled execution time of
// algorithm a on the partition — 1.0 means the partition wastes nothing
// on communication or imbalance; lower is worse.
func Efficiency(a Algorithm, m Machine, snap partition.Metrics) float64 {
	total := Evaluate(a, m, snap).Total
	if total <= 0 {
		return 0
	}
	return IdealTime(m, snap.N) / total
}
