package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	wire "repro/serve"
)

// POST /v1/plan:batch — many plan scenarios in one round trip. The
// request decodes once, each item is decided by answerPlan exactly as a
// standalone /v1/plan is (atlas first, then the gated search path), and
// items fail independently: a malformed ratio in one slot yields a
// per-item error there while the rest still carry plans. Atlas-hit
// items splice their pre-encoded bytes straight into the response
// without re-marshalling.
//
// With "Accept: application/x-ndjson" (or ?stream=1) the response
// streams instead: one BatchItemResult per line as each item completes,
// closed by a BatchStreamTrailer line — so a client fanning a large
// batch out to workers can start on early items while late ones still
// compute.

func (s *Server) handleBatch(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	if r.Method != http.MethodPost {
		return &httpError{status: http.StatusMethodNotAllowed, msg: "use POST"}
	}
	var req wire.BatchPlanRequest
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, s.cfg.MaxBatchBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return badRequest("bad batch body: %v", err)
	}
	if len(req.Items) == 0 {
		return badRequest("batch has no items")
	}
	if len(req.Items) > s.cfg.MaxBatchItems {
		return &httpError{
			status: http.StatusRequestEntityTooLarge,
			msg:    fmt.Sprintf("batch of %d items exceeds the %d-item limit", len(req.Items), s.cfg.MaxBatchItems),
		}
	}
	s.batchRequests.Add(1)
	s.batchItems.Add(int64(len(req.Items)))
	start := time.Now()

	if wantsStream(r) {
		return s.streamBatch(ctx, w, req.Items, start)
	}
	resp := wire.BatchPlanResponse{Items: make([]wire.BatchItemResult, len(req.Items))}
	for i, item := range req.Items {
		resp.Items[i] = s.planItem(ctx, i, item)
		if resp.Items[i].Status == http.StatusOK {
			resp.Succeeded++
		} else {
			resp.Failed++
		}
	}
	resp.ElapsedMS = msSince(start)
	writeJSON(w, http.StatusOK, resp)
	return nil
}

// streamBatch emits NDJSON: one result line per item as it completes,
// then the trailer.
func (s *Server) streamBatch(ctx context.Context, w http.ResponseWriter, items []wire.PlanRequest, start time.Time) error {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	succeeded, failed := 0, 0
	for i, item := range items {
		res := s.planItem(ctx, i, item)
		if res.Status == http.StatusOK {
			succeeded++
		} else {
			failed++
		}
		if err := enc.Encode(res); err != nil {
			return nil // client went away; nothing left to report to it
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	enc.Encode(wire.BatchStreamTrailer{
		Trailer:   true,
		Succeeded: succeeded,
		Failed:    failed,
		ElapsedMS: msSince(start),
	})
	return nil
}

// planItem answers one batch item as a standalone /v1/plan request would
// be answered. Failures become per-item status/error entries, never a
// batch failure.
func (s *Server) planItem(ctx context.Context, idx int, item wire.PlanRequest) wire.BatchItemResult {
	res := wire.BatchItemResult{Index: idx}
	in, err := s.parsePlanRequest(item)
	if err != nil {
		res.Status, res.Error = itemStatus(err)
		return res
	}
	body, resp, err := s.answerPlan(ctx, in)
	if err == nil && body == nil {
		body, err = json.Marshal(resp)
	}
	if err != nil {
		res.Status, res.Error = itemStatus(err)
		return res
	}
	res.Status, res.Response = http.StatusOK, body
	return res
}

// itemStatus flattens a handler error into a per-item status and message.
func itemStatus(err error) (int, string) {
	var he *httpError
	if errors.As(err, &he) {
		return he.status, he.msg
	}
	return http.StatusInternalServerError, err.Error()
}

// wantsStream reports whether the client asked for the NDJSON variant.
func wantsStream(r *http.Request) bool {
	if v := r.URL.Query().Get("stream"); v == "1" || v == "true" {
		return true
	}
	return strings.Contains(r.Header.Get("Accept"), "application/x-ndjson")
}
