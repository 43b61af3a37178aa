// Package heteropart is a Go implementation of DeFlumere & Lastovetsky,
// "Searching for the Optimal Data Partitioning Shape for Parallel Matrix
// Matrix Multiplication on 3 Heterogeneous Processors" (HCW/IPDPS
// Workshops 2014).
//
// The library answers the question the paper studies: given three
// processors of relative speeds Pr : Rr : 1, how should the elements of
// the (identically partitioned) matrices A, B, C be assigned to the
// processors so that parallel matrix-matrix multiplication minimises
// communication and execution time — without assuming the assignment must
// be rectangular?
//
// The main entry points are:
//
//   - Search — the paper's computer-aided method (a DFA whose transition
//     function is the Push operation): start from a random arrangement of
//     elements and apply Push operations until no legal Push remains; the
//     result is a candidate optimal shape.
//   - Classify — map any partition onto the paper's four shape archetypes
//     (A–D, Fig 5).
//   - ReduceToA — the Section VIII reductions: transform any partition
//     into an Archetype A partition without increasing the communication
//     volume.
//   - BuildShape — construct the six candidate canonical shapes of
//     Section IX (Square-Corner, Rectangle-Corner, Square-Rectangle,
//     Block-Rectangle, L-Rectangle, Traditional-Rectangle).
//   - Evaluate / Simulate — the five MMM algorithm performance models of
//     Section IV-B (SCB, PCB, SCO, PCO, PIO) and their discrete-event
//     simulation, on fully connected or star topologies.
//   - Optimal — compare the candidates for a scenario and return the
//     cheapest (the Section X methodology).
//   - Multiply — actually run the partitioned multiplication on three
//     goroutine "processors" with real data movement, verifying the
//     numerical result.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// reproduction of every figure in the paper's evaluation.
package heteropart

import (
	"fmt"

	"repro/internal/exec"
	"repro/internal/matrix"
	"repro/internal/model"
	"repro/internal/partition"
	"repro/internal/push"
	"repro/internal/shape"
	"repro/internal/sim"
)

// Ratio is the processing-speed ratio Pr : Rr : Sr with Pr ≥ Rr ≥ Sr.
type Ratio = partition.Ratio

// Ratio constructors and the paper's eleven studied ratios.
var (
	NewRatio    = partition.NewRatio
	MustRatio   = partition.MustRatio
	ParseRatio  = partition.ParseRatio
	PaperRatios = partition.PaperRatios
)

// Partition is a concrete assignment of every matrix element to one of
// the three processors.
type Partition = partition.Grid

// NewPartition returns an n×n partition entirely assigned to the fastest
// processor P.
func NewPartition(n int) *Partition { return partition.NewGrid(n) }

// Proc identifies a processor: P (fastest), R, S (slowest).
type Proc = partition.Proc

// Processor identifiers, in the paper's q-function encoding.
const (
	R = partition.R
	S = partition.S
	P = partition.P
)

// Shape identifies one of the six candidate canonical shapes (Section IX).
type Shape = partition.Shape

// The six candidates (Figs 11 and 12).
const (
	SquareCorner         = partition.SquareCorner
	RectangleCorner      = partition.RectangleCorner
	SquareRectangle      = partition.SquareRectangle
	BlockRectangle       = partition.BlockRectangle
	LRectangle           = partition.LRectangle
	TraditionalRectangle = partition.TraditionalRectangle
)

// AllShapes lists the candidates in paper order.
var AllShapes = partition.AllShapes

// ParseShape parses a canonical shape name ("Square-Corner", ...),
// case-insensitively.
var ParseShape = partition.ParseShape

// ErrInfeasible reports a shape that cannot be formed for a ratio
// (Theorem 9.1).
var ErrInfeasible = partition.ErrInfeasible

// BuildShape constructs the canonical version of a candidate shape.
func BuildShape(s Shape, n int, ratio Ratio) (*Partition, error) {
	return partition.Build(s, n, ratio)
}

// SquareCornerFeasible reports the Theorem 9.1 feasibility condition.
func SquareCornerFeasible(ratio Ratio) bool { return partition.SquareCornerFeasible(ratio) }

// Archetype is one of the paper's four terminal shape families (Fig 5).
type Archetype = shape.Archetype

// The archetypes.
const (
	ArchetypeA       = shape.ArchetypeA
	ArchetypeB       = shape.ArchetypeB
	ArchetypeC       = shape.ArchetypeC
	ArchetypeD       = shape.ArchetypeD
	ArchetypeUnknown = shape.ArchetypeUnknown
)

// Classify maps a partition onto the archetypes.
func Classify(g *Partition) Archetype { return shape.Classify(g) }

// CornerCount returns the number of corners of a processor's region
// (Section VIII-A).
func CornerCount(g *Partition, p Proc) int { return shape.CornerCount(g, p) }

// ReduceToA transforms any partition into an Archetype A partition with
// equal element counts and no higher communication volume (Theorems
// 8.1–8.4).
func ReduceToA(g *Partition) (*shape.ReduceResult, error) { return shape.ReduceToA(g) }

// SearchConfig parameterises the Push search (Section VI). It is the
// runner configuration re-exported.
type SearchConfig = push.Config

// SearchResult is the outcome of a Push search run.
type SearchResult = push.RunResult

// Search runs the paper's DFA: from a random start state, apply Push
// operations (randomised directions, Types 1–6) until a fixed point. It is
// the one search entry for any processor count: a search over K ≠ 3
// processors passes a start from NProcStart.
func Search(cfg SearchConfig) (*SearchResult, error) { return push.Run(cfg) }

// Algorithm identifies one of the five MMM algorithms (Section II).
type Algorithm = model.Algorithm

// The five algorithms.
const (
	SCB = model.SCB
	PCB = model.PCB
	SCO = model.SCO
	PCO = model.PCO
	PIO = model.PIO
)

// AllAlgorithms lists them in paper order.
var AllAlgorithms = model.AllAlgorithms

// ParseAlgorithm parses an algorithm name ("SCB", ...).
var ParseAlgorithm = model.ParseAlgorithm

// TopologySpec is the interconnect (Section X): the legacy names
// ("fully-connected", "star"; the empty string selects fully-connected)
// plus the per-link classes "2+1[:f]", "3-island[:f]" and explicit
// "links:..." matrices. Apply puts a Machine on it.
type TopologySpec = model.TopologySpec

// The two studied topologies.
var (
	FullyConnected = model.FullyConnected
	Star           = model.Star
)

// ParseTopologySpec parses a topology name; errors are typed
// (*model.ConfigError) and it never panics.
var ParseTopologySpec = model.ParseTopologySpec

// Machine describes the platform: ratio, Hockney network, flop time and
// topology.
type Machine = model.Machine

// DefaultMachine mirrors the paper's Fig 14 platform (1000 MB/s network,
// 8-byte elements).
func DefaultMachine(ratio Ratio) Machine { return model.DefaultMachine(ratio) }

// Breakdown is a modelled execution-time estimate.
type Breakdown = model.Breakdown

// Evaluate models the execution time of an algorithm on a partition
// (Eqs 2–9).
func Evaluate(a Algorithm, m Machine, g *Partition) Breakdown {
	return model.EvaluateGrid(a, m, g)
}

// SimResult is a simulated execution.
type SimResult = sim.Result

// Simulate runs the discrete-event simulation of an algorithm on a
// partition.
func Simulate(a Algorithm, m Machine, g *Partition) (SimResult, error) {
	return sim.Simulate(a, m, g)
}

// Matrix is a dense square float64 matrix.
type Matrix = matrix.Dense

// NewMatrix returns an n×n zero matrix.
func NewMatrix(n int) *Matrix { return matrix.New(n) }

// ExecConfig parameterises a real partitioned multiplication.
type ExecConfig = exec.Config

// ExecStats reports what an execution did (volumes, flops, timings).
type ExecStats = exec.Stats

// Multiply computes C = A·B on three goroutine processors partitioned by
// g, with real data movement and exact volume accounting, under any of
// the five algorithms (cfg.Algorithm). Every algorithm gets the same
// leases, loss recovery, ABFT verification and checkpoints.
func Multiply(cfg ExecConfig, g *Partition, a, b *Matrix) (*Matrix, *ExecStats, error) {
	return exec.Multiply(cfg, g, a, b)
}

// MultiplyPIO is Multiply with the Parallel Interleaving Overlap
// schedule, whatever cfg.Algorithm says: each worker's exchanged A
// columns and B rows arrive one 64-pivot panel at a time, and a worker
// computes a panel as soon as it has landed, while the next one is on
// the wire.
func MultiplyPIO(cfg ExecConfig, g *Partition, a, b *Matrix) (*Matrix, *ExecStats, error) {
	cfg.Algorithm = PIO
	return exec.Multiply(cfg, g, a, b)
}

// Candidate reports one candidate's cost in an Optimal comparison: its
// shape, feasibility, built grid, VoC and modelled Breakdown.
type Candidate = model.Candidate

// Optimal builds all six candidates for the scenario, evaluates the
// requested algorithm on machine m, and returns the cheapest shape with
// the full per-candidate cost list (the Section X methodology, see
// model.Compare).
func Optimal(a Algorithm, m Machine, n int) (Shape, []Candidate, error) {
	cands, best, err := compare(a, m, n)
	if err != nil {
		return 0, cands, err
	}
	return cands[best].Shape, cands, nil
}

// compare is model.Compare behind the facade's matrix-size check.
func compare(a Algorithm, m Machine, n int) ([]Candidate, int, error) {
	if n < 4 {
		return nil, -1, fmt.Errorf("heteropart: n must be ≥ 4, got %d", n)
	}
	return model.Compare(a, m, n)
}
