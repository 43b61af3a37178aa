package serve

import (
	"encoding/json"
	"net/http"
	"sync/atomic"

	heteropart "repro"
	"repro/internal/atlas"
	wire "repro/serve"
)

// The atlas answer tier.
//
// When Config.Atlas is set, a /v1/plan request whose scenario sits
// exactly on the atlas grid (matching n, algorithm, topology, and a
// ratio on the quantization lattice) is answered before admission
// control: the baked winner is encoded once per cell into a complete
// PlanResponse body and every later hit writes those cached bytes —
// no search engine, no breaker, no singleflight, no allocation on the
// steady-state path. Off-atlas scenarios fall through to the normal
// gated search path unchanged.

// atlasState is the server's per-cell encode cache over the immutable
// atlas: atlasEnc[i] holds the fully encoded PlanResponse body for grid
// cell i once some request (or WarmAtlas) has built it.
type atlasState struct {
	atlas *atlas.Atlas
	enc   []atomic.Pointer[[]byte]
}

func newAtlasState(a *atlas.Atlas) *atlasState {
	if a == nil {
		return nil
	}
	return &atlasState{atlas: a, enc: make([]atomic.Pointer[[]byte], a.Cells())}
}

// atlasAnswer returns the pre-encoded response body for an on-atlas
// scenario, or ok=false to fall through to the search path. The first
// hit on a cell pays one plan construction and JSON encode; every later
// hit is a pointer load.
func (s *Server) atlasAnswer(in planInputs) ([]byte, bool) {
	st := s.atlasSt.Load()
	if st == nil {
		return nil, false
	}
	a := st.atlas
	// An atlas bakes a legacy topology, so a link spec ("links:", "2+1",
	// "3-island") never matches it and always takes the search path.
	if in.n != a.N() || in.alg != a.Algorithm() || in.m.Topology != a.Topology() {
		return nil, false
	}
	rec, c, ok := a.Lookup(in.ratio)
	if !ok || !rec.Feasible {
		return nil, false
	}
	idx := a.Grid().Index(c)
	if body := st.enc[idx].Load(); body != nil {
		return *body, true
	}
	body, ok := s.encodeAtlasCell(in, rec)
	if !ok {
		return nil, false
	}
	st.enc[idx].Store(&body)
	return body, true
}

// encodeAtlasCell builds and encodes the response for one atlas cell,
// cross-checking the baked record against the live planner: a snapshot
// baked by an older binary whose cost model has since changed would
// disagree here, and the request falls through to the search path
// (counted in atlasRejects) instead of serving a stale decision.
func (s *Server) encodeAtlasCell(in planInputs, rec atlas.Record) ([]byte, bool) {
	plan, err := heteropart.NewPlanForShape(in.alg, in.m, in.n, rec.Shape)
	if err != nil ||
		plan.VoC != rec.VoC ||
		plan.Expected.Total != rec.Total ||
		plan.Expected.Comm != rec.Comm {
		s.atlasRejects.Add(1)
		s.cfg.Logf("serve: atlas record for ratio %v disagrees with live planner (err=%v); serving via search", in.ratio, err)
		return nil, false
	}
	body, err := json.Marshal(&wire.PlanResponse{Plan: plan, Source: wire.SourceAtlas})
	if err != nil {
		s.atlasRejects.Add(1)
		s.cfg.Logf("serve: atlas response encode failed: %v", err)
		return nil, false
	}
	return body, true
}

// WarmAtlas pre-encodes every feasible atlas cell so the first request
// per cell does not pay the encode. Returns how many cells were encoded
// and how many records failed the live cross-check. Call at startup;
// safe (but pointless) without a configured atlas.
func (s *Server) WarmAtlas() (encoded, rejected int) {
	st := s.atlasSt.Load()
	if st == nil {
		return 0, 0
	}
	a := st.atlas
	g := a.Grid()
	before := s.atlasRejects.Load()
	for idx := 0; idx < a.Cells(); idx++ {
		c := g.Cell(idx)
		rec, ok := a.At(c)
		if !ok || !rec.Feasible {
			continue
		}
		ratio := g.Ratio(c)
		m := s.cfg.Machine(ratio)
		m.Topology = a.Topology()
		in := planInputs{n: a.N(), ratio: ratio, alg: a.Algorithm(), m: m}
		body, ok := s.encodeAtlasCell(in, rec)
		if !ok {
			continue
		}
		st.enc[idx].Store(&body)
		encoded++
	}
	return encoded, int(s.atlasRejects.Load() - before)
}

// writeAtlasBody writes a pre-encoded atlas response.
func writeAtlasBody(w http.ResponseWriter, body []byte) error {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, err := w.Write(body)
	return err
}

// atlasShapeFallback builds the degraded atlas-shape answer: the baked
// winner for the request's ratio, rebuilt at the request's (off-atlas)
// matrix dimension. One shape construction instead of the canonical
// six-way comparison, and informed by the same decision the full search
// path would start from. Returns nil when the ratio is off-grid or the
// algorithm/topology differ from the atlas's.
func (s *Server) atlasShapeFallback(in planInputs) *heteropart.Plan {
	st := s.atlasSt.Load()
	if st == nil {
		return nil
	}
	a := st.atlas
	if in.alg != a.Algorithm() || in.m.Topology != a.Topology() {
		return nil
	}
	rec, _, ok := a.Lookup(in.ratio)
	if !ok || !rec.Feasible {
		return nil
	}
	plan, err := heteropart.NewPlanForShape(in.alg, in.m, in.n, rec.Shape)
	if err != nil {
		return nil
	}
	return plan
}
