package serve

// The windowed AMM query plane: tenants built from a paired framework
// (lm-amm, di-amm) answer approximate matrix products AᵀB over the row
// pairs inside the sliding window. The endpoint goes through the read
// step like the approximation route (?t= or the ingest clock) and
// additionally accepts the timestamp in a small JSON body on POST, so
// clients that never construct query strings can stay JSON-only.

import (
	"io"
	"net/http"

	"swsketch/internal/core"
)

// ammRequest is the optional POST body: {"t": 12.5}. An empty body is
// equivalent to omitting ?t= (query at the ingest clock); a body t
// takes the place of ?t= when both are present.
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

func (s *Server) handleAMM(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenantOf(w, r)
	if !ok {
		return
	}
	// Only the paired frameworks take d_b (Config.DB), so the config
	// answers the capability without acquiring the tenant.
	if t.Config().DB == 0 {
		httpError(w, http.StatusNotImplemented, CodeUnsupported,
			"%s does not answer AMM queries (paired frameworks lm-amm/di-amm only)", t.Algorithm())
		return
	}
	var req ammRequest
	if r.Method == http.MethodPost && r.Body != nil {
		// An empty body (io.EOF) leaves req.T unset.
		if err := decodeStrict(io.LimitReader(r.Body, 1<<16), &req); err != nil && err != io.EOF {
			httpError(w, http.StatusBadRequest, CodeInvalidJSON, "parse body: %v", err)
			return
		}
	}
	var resp ammResponse
	qt, ok := s.read(w, r, t, req.T, func(sk core.TenantSketch, qt float64) {
		p := sk.(core.PairedWindowSketch)
		resp.Product = p.AmmApproximation(qt)
		resp.DA, resp.DB = p.AmmDims()
	})
	if !ok {
		return
	}
	resp.T = qt
	writeJSON(w, resp)
}
