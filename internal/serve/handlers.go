package serve

// Ingest and query handlers: batch and bulk ingest, and the
// approximation, PCA, and stats reads. Each resolves {id} through the
// registry; the default tenant is addressed by name like any other.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"swsketch/internal/core"
	"swsketch/internal/mat"
	"swsketch/internal/pca"
	"swsketch/internal/registry"
)

// apiError is a deferred error envelope: handlers that serve multiple
// items per request (bulk ingest, stream blocks) need error values
// they can embed per item instead of writing the response immediately.
type apiError struct {
	status int
	code   string
	msg    string
}

func errf(status int, code, format string, args ...interface{}) *apiError {
	return &apiError{status: status, code: code, msg: fmt.Sprintf(format, args...)}
}

func (e *apiError) write(w http.ResponseWriter) {
	httpError(w, e.status, e.code, "%s", e.msg)
}

// decodeJSON strictly decodes a request body into v: unknown fields
// are an error, and a body over the WithMaxBody cap answers 413. On
// false the error envelope has been written.
func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	body := r.Body
	if s.maxBody > 0 {
		body = http.MaxBytesReader(w, r.Body, s.maxBody)
	}
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			httpError(w, http.StatusRequestEntityTooLarge, CodeBodyTooLarge,
				"body exceeds %d bytes", tooLarge.Limit)
		} else {
			httpError(w, http.StatusBadRequest, CodeInvalidJSON, "bad JSON: %v", err)
		}
		return false
	}
	return true
}

type ingestRequest struct {
	Updates []ingestUpdate `json:"updates"`
}

type ingestUpdate struct {
	Row []float64 `json:"row,omitempty"`
	// Sparse form: parallel indices/values; mutually exclusive with Row.
	Idx []int     `json:"idx,omitempty"`
	Val []float64 `json:"val,omitempty"`
	T   float64   `json:"t"`
}

type ingestResponse struct {
	Accepted int     `json:"accepted"`
	LastT    float64 `json:"last_t"`
}

// handleIngest is POST /v2/tenants/{id}/rows: one all-or-nothing
// batch into one tenant.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenantOf(w, r)
	if !ok {
		return
	}
	var req ingestRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	resp, apiErr := s.ingestTenant(t, req.Updates)
	if apiErr != nil {
		apiErr.write(w)
		return
	}
	writeJSON(w, resp)
}

type bulkRequest struct {
	Tenants []struct {
		ID      string         `json:"id"`
		Updates []ingestUpdate `json:"updates"`
	} `json:"tenants"`
}

// itemResult is the per-item outcome envelope shared by the bulk
// ingest results and the stream ack lines: Index orders the item
// within its request or stream, ID names the tenant where the route
// does not imply one, and Error reuses the top-level envelope's
// {"code","message"} body.
type itemResult struct {
	Index    int        `json:"index"`
	ID       string     `json:"id,omitempty"`
	Accepted int        `json:"accepted"`
	LastT    float64    `json:"last_t,omitempty"`
	Error    *errorBody `json:"error,omitempty"`
}

type bulkResponse struct {
	Results []itemResult `json:"results"`
}

// handleBulk is POST /v2/rows: per-tenant update batches in one
// request. Each tenant's batch is all-or-nothing, but tenants are
// independent: one tenant's failure (reported in its result's error
// body, with the same codes as single-tenant ingest) does not abort
// the others, and the response is always 200 with one result per
// requested tenant, in request order.
func (s *Server) handleBulk(w http.ResponseWriter, r *http.Request) {
	var req bulkRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	if len(req.Tenants) == 0 {
		httpError(w, http.StatusBadRequest, CodeInvalidArgument, "no tenants")
		return
	}
	results := make([]itemResult, 0, len(req.Tenants))
	for i, item := range req.Tenants {
		res := itemResult{Index: i, ID: item.ID}
		t, ok := s.treg.Get(item.ID)
		if !ok {
			// Attribute the miss to the requested key: a bulk client
			// hammering a deleted tenant shows up on the events plane.
			s.hot.ObserveEvent(item.ID)
			res.Error = &errorBody{Code: CodeNotFound, Message: fmt.Sprintf("no tenant %q", item.ID)}
		} else if resp, apiErr := s.ingestTenant(t, item.Updates); apiErr != nil {
			res.Error = &errorBody{Code: apiErr.code, Message: apiErr.msg}
		} else {
			res.Accepted = resp.Accepted
			res.LastT = resp.LastT
		}
		results = append(results, res)
	}
	writeJSON(w, bulkResponse{Results: results})
}

// ingestTenant validates and applies a batch of updates to a tenant,
// acquiring it for the duration. The batch is all-or-nothing: it is
// validated against the tenant's clock and dimension before any row
// touches the sketch.
func (s *Server) ingestTenant(t *registry.Tenant, updates []ingestUpdate) (ingestResponse, *apiError) {
	if len(updates) == 0 {
		return ingestResponse{}, errf(http.StatusBadRequest, CodeInvalidArgument, "no updates")
	}
	return s.acquireIngest(t, func() (ingestResponse, *apiError) { return s.ingestLocked(t, updates) })
}

// acquireIngest runs one ingest with the tenant acquired for its
// duration. An unavailable tenant, and a rejected batch (clock
// regressions, bad rows, sketch conflicts), land on the hot-key
// sidecar's events plane.
func (s *Server) acquireIngest(t *registry.Tenant, ingest func() (ingestResponse, *apiError)) (ingestResponse, *apiError) {
	if err := t.Acquire(); err != nil {
		s.hot.ObserveEvent(t.ID())
		return ingestResponse{}, acquireError(t, err)
	}
	defer t.Release()
	resp, apiErr := ingest()
	if apiErr != nil {
		s.hot.ObserveEvent(t.ID())
	}
	return resp, apiErr
}

// ingestLocked is the ingest core; the caller holds the tenant.
func (s *Server) ingestLocked(t *registry.Tenant, updates []ingestUpdate) (ingestResponse, *apiError) {
	allDense := true
	for _, u := range updates {
		if len(u.Idx) > 0 || len(u.Val) > 0 {
			allDense = false
			break
		}
	}
	if allDense {
		rows := make([][]float64, len(updates))
		times := make([]float64, len(updates))
		for i, u := range updates {
			rows[i], times[i] = u.Row, u.T
		}
		return s.ingestDenseLocked(t, rows, times)
	}
	d := t.D()
	prev, seen := t.Clock()
	auditing := t == s.def && s.audit != nil
	rows := make([]func(), 0, len(updates))
	// The WAL logs dense row blocks (replay has no sparse path), so a
	// sparse batch densifies when either the auditor or the WAL needs
	// the dense form.
	wantDense := auditing || s.wal != nil
	var denseRows [][]float64
	var denseTimes []float64
	if wantDense {
		denseRows = make([][]float64, 0, len(updates))
		denseTimes = make([]float64, 0, len(updates))
	}
	for i, u := range updates {
		if seen && u.T < prev {
			return ingestResponse{}, errf(http.StatusBadRequest, CodeInvalidArgument,
				"update %d: timestamp %v precedes %v", i, u.T, prev)
		}
		apply, dense, err := prepareUpdate(t, u, wantDense)
		if err != nil {
			return ingestResponse{}, errf(http.StatusBadRequest, CodeInvalidArgument,
				"update %d: %v", i, err)
		}
		rows = append(rows, apply)
		if wantDense {
			denseRows = append(denseRows, dense)
			denseTimes = append(denseTimes, u.T)
		}
		prev, seen = u.T, true
	}
	if apiErr := s.walAppendRows(t, denseRows, denseTimes); apiErr != nil {
		return ingestResponse{}, apiErr
	}
	// The sketch enforces invariants the server cannot fully check —
	// e.g. after a snapshot restore the sketch's internal clock may be
	// ahead of the server's. Surface those as 409 instead of crashing
	// the connection.
	if err := applyAll(rows); err != nil {
		return ingestResponse{}, errf(http.StatusConflict, CodeConflict,
			"ingest rejected by sketch: %v", err)
	}
	t.Commit(len(updates), prev)
	// Committed rows feed the sidecar's rows plane; the bytes plane
	// gets the dense-equivalent payload size (8 bytes × d per row).
	s.hot.ObserveIngest(t.ID(), len(updates), 8*d*len(updates))
	if auditing {
		s.observeAudit(denseRows, denseTimes)
	}
	return ingestResponse{Accepted: len(updates), LastT: prev}, nil
}

// ingestDenseLocked applies an all-dense batch, rows[i] arriving at
// times[i], through the sketch's bulk ingest in one call, amortising
// per-row bookkeeping. Binary stream frames arrive here directly. The
// caller holds the tenant; nothing retains rows or times.
func (s *Server) ingestDenseLocked(t *registry.Tenant, rows [][]float64, times []float64) (ingestResponse, *apiError) {
	d := t.D()
	prev, seen := t.Clock()
	for i, row := range rows {
		if seen && times[i] < prev {
			return ingestResponse{}, errf(http.StatusBadRequest, CodeInvalidArgument,
				"update %d: timestamp %v precedes %v", i, times[i], prev)
		}
		if len(row) != d {
			return ingestResponse{}, errf(http.StatusBadRequest, CodeInvalidArgument,
				"update %d: row length %d, want %d", i, len(row), d)
		}
		if err := checkFiniteVals(row); err != nil {
			return ingestResponse{}, errf(http.StatusBadRequest, CodeInvalidArgument,
				"update %d: %v", i, err)
		}
		prev, seen = times[i], true
	}
	if apiErr := s.walAppendRows(t, rows, times); apiErr != nil {
		return ingestResponse{}, apiErr
	}
	if err := applyBatch(t.Sketch(), rows, times); err != nil {
		return ingestResponse{}, errf(http.StatusConflict, CodeConflict,
			"ingest rejected by sketch: %v", err)
	}
	t.Commit(len(rows), prev)
	s.hot.ObserveIngest(t.ID(), len(rows), 8*d*len(rows))
	if t == s.def && s.audit != nil {
		s.observeAudit(rows, times)
	}
	return ingestResponse{Accepted: len(rows), LastT: prev}, nil
}

// observeAudit feeds freshly ingested default-tenant rows to the
// auditor. The caller holds the default tenant, so the query closure
// (which the auditor may invoke for a stride-triggered evaluation)
// reads the sketch consistently. The closure queries the undecorated
// sketch so audit evaluations don't pollute the serving query-latency
// metrics.
func (s *Server) observeAudit(rows [][]float64, times []float64) {
	if s.audit == nil {
		return
	}
	s.audit.ObserveBatch(rows, times, func(t float64) *mat.Dense {
		return s.def.Raw().Query(t)
	})
}

// prepareUpdate validates one ingest update and returns a closure that
// applies it plus the dense form of the row (for the audit shadow —
// sparse rows are only densified when wantDense is set); validation
// and application are split so a bad batch is rejected atomically.
// The caller holds the tenant.
func prepareUpdate(t *registry.Tenant, u ingestUpdate, wantDense bool) (func(), []float64, error) {
	d := t.D()
	sk := t.Sketch()
	if len(u.Idx) > 0 || len(u.Val) > 0 {
		if len(u.Row) > 0 {
			return nil, nil, fmt.Errorf("row and idx/val are mutually exclusive")
		}
		if len(u.Idx) != len(u.Val) {
			return nil, nil, fmt.Errorf("%d indices but %d values", len(u.Idx), len(u.Val))
		}
		prev := -1
		for _, ix := range u.Idx {
			if ix <= prev || ix >= d {
				return nil, nil, fmt.Errorf("sparse index %d invalid for dimension %d", ix, d)
			}
			prev = ix
		}
		if err := checkFiniteVals(u.Val); err != nil {
			return nil, nil, err
		}
		sr := mat.SparseRow{Idx: u.Idx, Val: u.Val}
		// Capability lives on the undecorated sketch; the decorated one
		// (which forwards sparse updates) takes the call so the update
		// is recorded.
		if _, ok := t.Raw().(core.SparseUpdater); ok {
			su := sk.(core.SparseUpdater)
			var row []float64
			if wantDense {
				row = sr.Dense(d)
			}
			return func() { su.UpdateSparse(sr, u.T) }, row, nil
		}
		dense := sr.Dense(d)
		return func() { sk.Update(dense, u.T) }, dense, nil
	}
	if len(u.Row) != d {
		return nil, nil, fmt.Errorf("row length %d, want %d", len(u.Row), d)
	}
	if err := checkFiniteVals(u.Row); err != nil {
		return nil, nil, err
	}
	return func() { sk.Update(u.Row, u.T) }, u.Row, nil
}

// acquireError maps a Tenant.Acquire failure onto the envelope:
// concurrent deletion is a 404, an unreadable spill file a 500.
func acquireError(t *registry.Tenant, err error) *apiError {
	if errors.Is(err, registry.ErrDeleted) {
		return errf(http.StatusNotFound, CodeNotFound, "tenant %q deleted", t.ID())
	}
	return errf(http.StatusInternalServerError, CodeInternal, "%v", err)
}

// queryTime parses ?t= against an acquired tenant's clock; when
// omitted, the last ingested timestamp is used (query "now").
func queryTime(w http.ResponseWriter, r *http.Request, t *registry.Tenant) (float64, bool) {
	last, seen := t.Clock()
	tq := r.URL.Query().Get("t")
	if tq == "" {
		return last, true
	}
	qt, err := strconv.ParseFloat(tq, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, CodeInvalidArgument, "bad t %q", tq)
		return 0, false
	}
	if seen && qt < last {
		httpError(w, http.StatusBadRequest, CodeInvalidArgument,
			"t %v precedes last ingested %v", qt, last)
		return 0, false
	}
	return qt, true
}

type approximationResponse struct {
	Rows [][]float64 `json:"rows"`
	T    float64     `json:"t"`
}

func (s *Server) handleApproximation(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenantOf(w, r)
	if !ok || !acquire(w, t) {
		return
	}
	qt, ok := queryTime(w, r, t)
	if !ok {
		t.Release()
		return
	}
	b := t.Sketch().Query(qt)
	t.Release()
	rows := make([][]float64, b.Rows())
	for i := range rows {
		rows[i] = b.RowCopy(i)
	}
	writeJSON(w, approximationResponse{Rows: rows, T: qt})
}

type pcaResponse struct {
	Components [][]float64 `json:"components"`
	Explained  []float64   `json:"explained"`
	T          float64     `json:"t"`
}

func (s *Server) handlePCA(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenantOf(w, r)
	if !ok {
		return
	}
	k := 3
	if kq := r.URL.Query().Get("k"); kq != "" {
		var err error
		k, err = strconv.Atoi(kq)
		if err != nil || k < 1 {
			httpError(w, http.StatusBadRequest, CodeInvalidArgument, "bad k %q", kq)
			return
		}
	}
	if !acquire(w, t) {
		return
	}
	qt, ok := queryTime(w, r, t)
	if !ok {
		t.Release()
		return
	}
	b := t.Sketch().Query(qt)
	t.Release()
	if b.Rows() == 0 {
		writeJSON(w, pcaResponse{Components: [][]float64{}, Explained: []float64{}, T: qt})
		return
	}
	res := pca.Compute(b, k)
	comps := make([][]float64, res.Components.Rows())
	for i := range comps {
		comps[i] = res.Components.RowCopy(i)
	}
	writeJSON(w, pcaResponse{Components: comps, Explained: res.Explained, T: qt})
}

// statsResponse is the GET /v2/tenants/{id}/stats payload: sketch
// metadata, the Introspector internals, and the tenant's identity and
// residency.
type statsResponse struct {
	Tenant     string             `json:"tenant"`
	Algorithm  string             `json:"algorithm"`
	Dimension  int                `json:"dimension"`
	RowsStored int                `json:"rows_stored"`
	Updates    uint64             `json:"updates"`
	LastT      float64            `json:"last_t"`
	Internals  map[string]float64 `json:"internals,omitempty"`
	Resident   bool               `json:"resident"`
	Pinned     bool               `json:"pinned,omitempty"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenantOf(w, r)
	if !ok || !acquire(w, t) {
		return
	}
	lastT, _ := t.Clock()
	resp := statsResponse{
		Tenant:     t.ID(),
		Algorithm:  t.Sketch().Name(),
		Dimension:  t.D(),
		RowsStored: t.Sketch().RowsStored(),
		Updates:    t.Updates(),
		LastT:      lastT,
		Pinned:     t.Pinned(),
	}
	if in, ok := t.Raw().(core.Introspector); ok {
		resp.Internals = in.Stats()
	}
	t.Release()
	resp.Resident = t.Resident()
	writeJSON(w, resp)
}
