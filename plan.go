package heteropart

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/model"
	"repro/internal/partition"
)

// ProcPlan summarises one processor's share of a Plan.
type ProcPlan struct {
	Processor string  `json:"processor"`
	Speed     float64 `json:"speed"`
	Elements  int     `json:"elements"`
	// Rect is the enclosing rectangle [top, left, bottom, right)
	// (absent for the remainder processor P, whose region may span the
	// whole matrix).
	Rect [4]int `json:"rect"`
	// SendElements is the number of elements this processor must send.
	SendElements int64 `json:"sendElements"`
}

// Plan is a complete, serialisable partitioning decision for a platform:
// the chosen shape, the concrete assignment, and the expected costs. It
// is what a downstream runtime would persist and ship to the workers.
type Plan struct {
	N         int        `json:"n"`
	Ratio     string     `json:"ratio"`
	Algorithm string     `json:"algorithm"`
	Topology  string     `json:"topology"`
	Shape     string     `json:"shape"`
	VoC       int64      `json:"voc"`
	Expected  Breakdown  `json:"expected"`
	Procs     []ProcPlan `json:"procs"`
	// Grid is the base64-encoded cell assignment (see Partition.Encode).
	Grid string `json:"grid"`

	partition *Partition
}

// NewPlan picks the optimal candidate shape for the machine and algorithm
// and packages the full decision.
func NewPlan(a Algorithm, m Machine, n int) (*Plan, error) {
	cands, best, err := compare(a, m, n)
	if err != nil {
		return nil, err
	}
	return packagePlan(a, m, cands[best]), nil
}

// NewPlanForShape packages the full decision for one already-chosen
// candidate shape, skipping the six-way Optimal comparison. It exists for
// callers that decided the winner elsewhere — above all the shape atlas,
// which precomputes the winner per quantized ratio offline and must serve
// a plan bit-identical to what NewPlan would have produced for the same
// scenario.
func NewPlanForShape(a Algorithm, m Machine, n int, s Shape) (*Plan, error) {
	if n < 4 {
		return nil, fmt.Errorf("heteropart: n must be ≥ 4, got %d", n)
	}
	g, err := BuildShape(s, n, m.Ratio)
	if err != nil {
		return nil, err
	}
	return packagePlan(a, m, Candidate{Shape: s, Feasible: true, Grid: g, VoC: g.VoC(), Breakdown: Evaluate(a, m, g)}), nil
}

// packagePlan serialises one priced, feasible candidate as a Plan.
func packagePlan(a Algorithm, m Machine, c Candidate) *Plan {
	g := c.Grid
	snap := g.Snapshot()
	p := &Plan{
		N:         g.N(),
		Ratio:     m.Ratio.String(),
		Algorithm: a.String(),
		Topology:  m.TopologyName(),
		Shape:     c.Shape.String(),
		VoC:       c.VoC,
		Expected:  c.Breakdown,
		Grid:      base64.StdEncoding.EncodeToString(g.Encode()),
		partition: g,
	}
	for _, proc := range partition.Procs {
		r := g.EnclosingRect(proc)
		p.Procs = append(p.Procs, ProcPlan{
			Processor:    proc.String(),
			Speed:        m.Ratio.Speed(proc),
			Elements:     g.Count(proc),
			Rect:         [4]int{r.Top, r.Left, r.Bottom, r.Right},
			SendElements: snap.Sends[proc],
		})
	}
	return p
}

// Partition returns the plan's concrete partition, decoding it if the
// plan was loaded from JSON.
func (p *Plan) Partition() (*Partition, error) {
	if p.partition != nil {
		return p.partition, nil
	}
	raw, err := base64.StdEncoding.DecodeString(p.Grid)
	if err != nil {
		return nil, fmt.Errorf("heteropart: plan grid: %w", err)
	}
	g, err := partition.Decode(raw)
	if err != nil {
		return nil, err
	}
	p.partition = g
	return g, nil
}

// WriteJSON serialises the plan.
func (p *Plan) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p)
}

// PlanError reports a plan file whose JSON parsed but whose content is
// invalid or internally inconsistent — a truncated copy, a hand-edited
// field, or bit rot that survived the transport layer.
type PlanError struct {
	Field  string
	Reason string
}

func (e *PlanError) Error() string {
	return fmt.Sprintf("heteropart: plan field %s: %s", e.Field, e.Reason)
}

// Validate checks a plan's fields for range and cross-field consistency:
// parseable ratio/algorithm/topology/shape, a grid that decodes to the
// declared dimension, per-processor element counts that cover the matrix,
// and a VoC that matches the decoded grid. It returns a *PlanError on the
// first violation, so a corrupt plan is rejected instead of propagating a
// zero-valued decision into a runtime.
func (p *Plan) Validate() error {
	if p.N <= 0 {
		return &PlanError{Field: "n", Reason: fmt.Sprintf("must be positive, got %d", p.N)}
	}
	if _, err := partition.ParseRatio(p.Ratio); err != nil {
		return &PlanError{Field: "ratio", Reason: err.Error()}
	}
	if _, err := model.ParseAlgorithm(p.Algorithm); err != nil {
		return &PlanError{Field: "algorithm", Reason: err.Error()}
	}
	if _, err := model.ParseTopologySpec(p.Topology); err != nil {
		return &PlanError{Field: "topology", Reason: err.Error()}
	}
	if _, err := partition.ParseShape(p.Shape); err != nil {
		return &PlanError{Field: "shape", Reason: err.Error()}
	}
	if p.VoC < 0 {
		return &PlanError{Field: "voc", Reason: fmt.Sprintf("must be non-negative, got %d", p.VoC)}
	}
	raw, err := base64.StdEncoding.DecodeString(p.Grid)
	if err != nil {
		return &PlanError{Field: "grid", Reason: fmt.Sprintf("bad base64: %v", err)}
	}
	g, err := partition.Decode(raw)
	if err != nil {
		return &PlanError{Field: "grid", Reason: err.Error()}
	}
	if g.N() != p.N {
		return &PlanError{Field: "grid", Reason: fmt.Sprintf("decodes to %d×%d, plan says n=%d", g.N(), g.N(), p.N)}
	}
	if got := g.VoC(); got != p.VoC {
		return &PlanError{Field: "voc", Reason: fmt.Sprintf("plan says %d, grid has %d", p.VoC, got)}
	}
	if len(p.Procs) > 0 {
		total := 0
		for _, pp := range p.Procs {
			proc, perr := parseProc(pp.Processor)
			if perr != nil {
				return &PlanError{Field: "procs", Reason: perr.Error()}
			}
			if pp.Elements < 0 {
				return &PlanError{Field: "procs", Reason: fmt.Sprintf("%s has negative element count %d", pp.Processor, pp.Elements)}
			}
			if got := g.Count(proc); got != pp.Elements {
				return &PlanError{Field: "procs", Reason: fmt.Sprintf("%s claims %d elements, grid assigns %d", pp.Processor, pp.Elements, got)}
			}
			total += pp.Elements
		}
		if total != p.N*p.N {
			return &PlanError{Field: "procs", Reason: fmt.Sprintf("element counts sum to %d, want n² = %d", total, p.N*p.N)}
		}
	}
	p.partition = g
	return nil
}

// parseProc maps a processor name ("P", "R", "S") back to its identifier.
func parseProc(s string) (partition.Proc, error) {
	for _, proc := range partition.Procs {
		if proc.String() == s {
			return proc, nil
		}
	}
	return 0, fmt.Errorf("unknown processor %q", s)
}

// ReadPlan parses and validates a JSON plan. Truncated or otherwise
// unparseable input fails with a decode error; input that parses but
// carries out-of-range or inconsistent fields fails with a *PlanError.
func ReadPlan(r io.Reader) (*Plan, error) {
	var p Plan
	if err := json.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("heteropart: plan decode: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}
