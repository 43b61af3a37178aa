package serve

import (
	"encoding/json"
	"fmt"

	heteropart "repro"
)

// CorruptPlanError reports a plan response that failed the client's
// independent re-verification: the payload decoded, but its content is
// internally inconsistent (VoC does not match the grid, element counts
// do not cover the matrix) or answers a different scenario than was
// asked. The client never surfaces such a response — it counts the
// replica as failed and retries elsewhere — so this error only reaches
// the caller when every replica served garbage.
type CorruptPlanError struct {
	// Replica is the base URL of the replica that served the payload.
	Replica string
	// Err is the underlying verification failure (often a
	// *heteropart.PlanError naming the inconsistent field).
	Err error
}

func (e *CorruptPlanError) Error() string {
	return fmt.Sprintf("serve: corrupt plan from %s: %v", e.Replica, e.Err)
}

func (e *CorruptPlanError) Unwrap() error { return e.Err }

// planVerifier returns the re-verification hook for one /v1/plan call,
// or nil when verification is disabled. It runs on every response copy
// (including hedges) before that copy is allowed to win the call.
func (c *Client) planVerifier(req PlanRequest) func([]byte) error {
	if c.cfg.DisableVerify {
		return nil
	}
	return func(raw []byte) error {
		var resp PlanResponse
		if err := json.Unmarshal(raw, &resp); err != nil {
			return fmt.Errorf("undecodable plan response: %w", err)
		}
		return VerifyPlanResponse(req, &resp)
	}
}

// VerifyPlanResponse independently re-verifies a plan response against
// the request that produced it. Trust nothing the wire says about
// itself: Plan.Validate decodes the grid and recomputes the VoC and
// per-processor element counts from it, so a response whose "voc" field
// was flipped in flight — or whose grid no longer matches its summary —
// is rejected even though it is perfectly well-formed JSON. On top of
// that, the plan must answer the scenario that was actually asked
// (dimension, ratio, algorithm, topology), which catches a response
// crossed over from another request.
func VerifyPlanResponse(req PlanRequest, resp *PlanResponse) error {
	if resp.Plan == nil {
		return fmt.Errorf("response carries no plan")
	}
	p := resp.Plan
	if err := p.Validate(); err != nil {
		return err
	}
	if p.N != req.N {
		return fmt.Errorf("plan is for n=%d, requested n=%d", p.N, req.N)
	}
	if r, err := heteropart.ParseRatio(req.Ratio); err == nil && p.Ratio != r.String() {
		return fmt.Errorf("plan is for ratio %s, requested %s", p.Ratio, r.String())
	}
	if a, err := heteropart.ParseAlgorithm(req.Algorithm); err == nil && p.Algorithm != a.String() {
		return fmt.Errorf("plan is for algorithm %s, requested %s", p.Algorithm, a.String())
	}
	if ts, err := heteropart.ParseTopologySpec(req.Topology); err == nil && p.Topology != ts.String() {
		return fmt.Errorf("plan is for topology %s, requested %s", p.Topology, ts.String())
	}
	return nil
}
