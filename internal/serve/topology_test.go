package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	heteropart "repro"
	wire "repro/serve"
)

// planJSON marshals a served plan for byte comparison (PlanResponse
// carries per-request noise like ElapsedMS; the Plan itself must not).
func planJSON(t *testing.T, p *heteropart.Plan) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPlanTopologySpecServed: a link-class topology spec is accepted on
// /v1/plan, echoed back canonically in the plan's topology field, and
// prices communication differently from the uniform machine.
func TestPlanTopologySpecServed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/plan", "10s",
		wire.PlanRequest{N: 24, Ratio: "5:2:1", Algorithm: "SCB", Topology: "3-island:10"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	pr := decodePlan(t, body)
	if pr.Plan.Topology != "3-island:10" {
		t.Fatalf("plan topology %q, want canonical spec", pr.Plan.Topology)
	}
	if err := pr.Plan.Validate(); err != nil {
		t.Fatalf("spec-topology plan fails validation: %v", err)
	}
	respU, bodyU := postJSON(t, ts.URL+"/v1/plan", "10s",
		wire.PlanRequest{N: 24, Ratio: "5:2:1", Algorithm: "SCB"})
	if respU.StatusCode != http.StatusOK {
		t.Fatalf("uniform status %d: %s", respU.StatusCode, bodyU)
	}
	uniform := decodePlan(t, bodyU)
	if pr.Plan.Expected.Comm <= uniform.Plan.Expected.Comm {
		t.Fatalf("3-island:10 comm %v not above uniform %v",
			pr.Plan.Expected.Comm, uniform.Plan.Expected.Comm)
	}
}

// TestPlanTopologySpecRejected: malformed specs answer 400 with the
// typed ConfigError's message, which names the offending entry.
func TestPlanTopologySpecRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, bad := range []string{"links:PR=1", "links:PR=1,PS=-2,RS=3", "2+1:", "ring"} {
		resp, body := postJSON(t, ts.URL+"/v1/plan", "2s",
			wire.PlanRequest{N: 24, Ratio: "5:2:1", Algorithm: "SCB", Topology: bad})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("spec %q: status %d, want 400: %s", bad, resp.StatusCode, body)
		}
		if !strings.Contains(string(body), "topology") {
			t.Fatalf("spec %q: error body does not name the field: %s", bad, body)
		}
	}
	// /v1/evaluate shares the grammar and the rejection.
	resp, body := postJSON(t, ts.URL+"/v1/evaluate", "2s",
		wire.EvaluateRequest{N: 24, Ratio: "5:2:1", Algorithm: "SCB", Shape: "Square-Corner", Topology: "links:PR=1"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("evaluate: status %d, want 400: %s", resp.StatusCode, body)
	}
}

// TestEvaluateTopologySpec: /v1/evaluate prices a shape under a link
// spec; a 10× three-island matrix must raise the modelled comm time.
func TestEvaluateTopologySpec(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	eval := func(topo string) wire.EvaluateResponse {
		resp, body := postJSON(t, ts.URL+"/v1/evaluate", "5s",
			wire.EvaluateRequest{N: 24, Ratio: "5:2:1", Algorithm: "SCB", Shape: "Square-Corner", Topology: topo})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("topology %q: status %d: %s", topo, resp.StatusCode, body)
		}
		var er wire.EvaluateResponse
		if err := json.Unmarshal(body, &er); err != nil {
			t.Fatalf("decode evaluate response: %v\n%s", err, body)
		}
		return er
	}
	uniform := eval("")
	island := eval("3-island:10")
	if !uniform.Feasible || !island.Feasible {
		t.Fatal("Square-Corner infeasible for 5:2:1")
	}
	if island.Breakdown.Comm <= uniform.Breakdown.Comm {
		t.Fatalf("3-island comm %v not above uniform %v", island.Breakdown.Comm, uniform.Breakdown.Comm)
	}
}

// TestAtlasSkipsLinkTopology: a scenario that sits exactly on the atlas
// grid but carries a per-link topology spec must bypass the atlas tier —
// the baked winners were priced under the uniform model.
func TestAtlasSkipsLinkTopology(t *testing.T) {
	s, ts := newTestServer(t, Config{Atlas: buildTestAtlas(t)})
	resp, body := postJSON(t, ts.URL+"/v1/plan", "10s",
		wire.PlanRequest{N: 24, Ratio: "2.5:1.5:1", Algorithm: "SCB", Topology: "3-island:10"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	pr := decodePlan(t, body)
	if pr.Source == wire.SourceAtlas {
		t.Fatal("link-topology scenario served from the atlas tier")
	}
	if pr.Plan.Topology != "3-island:10" {
		t.Fatalf("plan topology %q, want the spec", pr.Plan.Topology)
	}
	if st := s.Stats(); st.AtlasHits != 0 {
		t.Fatalf("atlasHits = %d, want 0", st.AtlasHits)
	}
}
