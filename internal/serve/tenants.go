package serve

// Tenant lifecycle routes (/v2/tenants...). Tenant IDs accepted over
// HTTP are restricted to [A-Za-z0-9._-] and at most registry.MaxIDLen
// bytes; the registry itself allows any non-empty string (programmatic
// callers may use richer IDs), the serve layer is stricter so IDs
// embed cleanly in URLs, metric labels, and log lines.

import (
	"encoding/json"
	"errors"
	"net/http"

	"swsketch/internal/registry"
)

// validTenantID reports whether an ID is acceptable over the HTTP API.
func validTenantID(id string) bool {
	if id == "" || len(id) > registry.MaxIDLen {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '.' || c == '_' || c == '-':
		default:
			return false
		}
	}
	return true
}

type tenantListResponse struct {
	Tenants []registry.Info `json:"tenants"`
}

func (s *Server) handleTenantList(w http.ResponseWriter, _ *http.Request) {
	infos := s.treg.List()
	if infos == nil {
		infos = []registry.Info{}
	}
	writeJSON(w, tenantListResponse{Tenants: infos})
}

// tenantInfoResponse is the GET /v2/tenants/{id} payload (also
// returned by PUT on creation).
type tenantInfoResponse struct {
	ID        string          `json:"id"`
	Algorithm string          `json:"algorithm"`
	Dimension int             `json:"dimension"`
	Resident  bool            `json:"resident"`
	Rows      int             `json:"rows_stored"`
	Updates   uint64          `json:"updates"`
	Pinned    bool            `json:"pinned,omitempty"`
	Config    registry.Config `json:"config"`
}

func tenantInfo(t *registry.Tenant) tenantInfoResponse {
	return tenantInfoResponse{
		ID:        t.ID(),
		Algorithm: t.Algorithm(),
		Dimension: t.D(),
		Resident:  t.Resident(),
		Rows:      t.Rows(),
		Updates:   t.Updates(),
		Pinned:    t.Pinned(),
		Config:    t.Config(),
	}
}

// handleTenantPut creates a tenant from a declarative config. The body
// is a registry.Config JSON object; unknown fields are rejected. A
// duplicate ID answers 409 conflict, a config the registry cannot
// build answers 400 invalid_argument.
func (s *Server) handleTenantPut(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !validTenantID(id) {
		httpError(w, http.StatusBadRequest, CodeInvalidArgument,
			"tenant ID must match [A-Za-z0-9._-]{1,%d}", registry.MaxIDLen)
		return
	}
	if id == DefaultTenant {
		httpError(w, http.StatusBadRequest, CodeInvalidArgument,
			"tenant ID %q is reserved", DefaultTenant)
		return
	}
	var cfg registry.Config
	if !s.decodeJSON(w, r, &cfg) {
		return
	}
	t, err := s.treg.Create(id, cfg)
	switch {
	case errors.Is(err, registry.ErrExists):
		httpError(w, http.StatusConflict, CodeConflict, "tenant %q already exists", id)
		return
	case errors.Is(err, registry.ErrBadID):
		httpError(w, http.StatusBadRequest, CodeInvalidArgument, "%v", err)
		return
	case err != nil:
		httpError(w, http.StatusBadRequest, CodeInvalidArgument, "%v", err)
		return
	}
	if s.wal != nil {
		// Log the normalized config (t.Config), not the request body, so
		// replay rebuilds exactly what was built. An append failure rolls
		// the creation back: an unlogged tenant would silently vanish on
		// restart.
		cfgJSON, merr := json.Marshal(t.Config())
		if merr == nil {
			_, merr = s.wal.AppendCreate(id, cfgJSON)
		}
		if merr != nil {
			s.treg.Delete(id)
			httpError(w, http.StatusInternalServerError, CodeInternal, "wal append: %v", merr)
			return
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	_ = json.NewEncoder(w).Encode(tenantInfo(t))
}

func (s *Server) handleTenantInfo(w http.ResponseWriter, r *http.Request) {
	if t, ok := s.tenantOf(w, r); ok {
		writeJSON(w, tenantInfo(t))
	}
}

type tenantDeleteResponse struct {
	Deleted string `json:"deleted"`
}

func (s *Server) handleTenantDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if id == DefaultTenant {
		httpError(w, http.StatusBadRequest, CodeInvalidArgument,
			"tenant %q cannot be deleted", DefaultTenant)
		return
	}
	if _, ok := s.treg.Get(id); !ok {
		httpError(w, http.StatusNotFound, CodeNotFound, "no tenant %q", id)
		return
	}
	if s.wal != nil {
		// Journal first, as apply and restore do: a delete the log cannot
		// take changes nothing, where one applied first would come back
		// on replay from the tenant's earlier records.
		if _, err := s.wal.AppendDelete(id); err != nil {
			httpError(w, http.StatusInternalServerError, CodeInternal, "wal append: %v", err)
			return
		}
	}
	if !s.treg.Delete(id) {
		httpError(w, http.StatusNotFound, CodeNotFound, "no tenant %q", id)
		return
	}
	writeJSON(w, tenantDeleteResponse{Deleted: id})
}

// tenantHealthResponse is the GET /v2/tenants/{id}/health payload: a
// cheap liveness/residency probe that never forces a spilled tenant
// back into memory (unlike the query routes, it does not Acquire).
type tenantHealthResponse struct {
	Status   string `json:"status"`
	Tenant   string `json:"tenant"`
	Resident bool   `json:"resident"`
	Updates  uint64 `json:"updates"`
}

func (s *Server) handleTenantHealth(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenantOf(w, r)
	if !ok {
		return
	}
	writeJSON(w, tenantHealthResponse{
		Status:   "ok",
		Tenant:   t.ID(),
		Resident: t.Resident(),
		Updates:  t.Updates(),
	})
}
