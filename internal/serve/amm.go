package serve

// The windowed AMM query plane: tenants built from a paired framework
// (lm-amm, di-amm) answer approximate matrix products AᵀB over the row
// pairs inside the sliding window. The endpoint mirrors the
// approximation route's time handling (?t= or the ingest clock) and
// additionally accepts the timestamp in a small JSON body on POST, so
// clients that never construct query strings can stay JSON-only.

import (
	"io"
	"net/http"

	"swsketch/internal/core"
	"swsketch/internal/registry"
)

// ammRequest is the optional POST body: {"t": 12.5}. An empty body is
// equivalent to omitting ?t= (query at the ingest clock).
type ammRequest struct {
	T *float64 `json:"t"`
}

// ammResponse is the /v2/tenants/{id}/amm payload: the windowed
// product estimate AᵀB ≈ XᵀY (a d_a×d_b matrix) for the window ending
// at T.
type ammResponse struct {
	Product [][]float64 `json:"product"`
	DA      int         `json:"d_a"`
	DB      int         `json:"d_b"`
	T       float64     `json:"t"`
}

// ammQueryTime resolves the query timestamp like queryTime, but for
// POST requests a JSON body {"t": ...} takes the place of the ?t=
// parameter (the body wins when both are present).
func ammQueryTime(w http.ResponseWriter, r *http.Request, t *registry.Tenant) (float64, bool) {
	var req ammRequest
	if r.Method == http.MethodPost && r.Body != nil {
		// An empty body (io.EOF) leaves req.T unset.
		if err := decodeStrict(io.LimitReader(r.Body, 1<<16), &req); err != nil && err != io.EOF {
			httpError(w, http.StatusBadRequest, CodeInvalidJSON, "parse body: %v", err)
			return 0, false
		}
	}
	if req.T == nil {
		return queryTime(w, r, t)
	}
	qt := *req.T
	if qt != qt {
		httpError(w, http.StatusBadRequest, CodeInvalidArgument, "non-finite t")
		return 0, false
	}
	if last, seen := t.Raw().Clock(); seen && qt < last {
		httpError(w, http.StatusBadRequest, CodeInvalidArgument,
			"t %v precedes last ingested %v", qt, last)
		return 0, false
	}
	return qt, true
}

func (s *Server) handleAMM(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenantOf(w, r)
	if !ok || !acquire(w, t) {
		return
	}
	// The capability lives on the raw sketch: serving decorations
	// (instrumentation) forward only the WindowSketch surface.
	p, paired := t.Raw().(core.PairedWindowSketch)
	if !paired {
		name := t.Raw().Name()
		t.Release()
		httpError(w, http.StatusNotImplemented, CodeUnsupported,
			"%s does not answer AMM queries (paired frameworks lm-amm/di-amm only)", name)
		return
	}
	qt, ok := ammQueryTime(w, r, t)
	if !ok {
		t.Release()
		return
	}
	product := p.AmmApproximation(qt)
	dA, dB := p.AmmDims()
	t.Release()
	writeJSON(w, ammResponse{Product: product, DA: dA, DB: dB, T: qt})
}
