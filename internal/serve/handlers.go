package serve

// Ingest and query handlers: the apply and read steps, batch and bulk
// ingest, and the approximation, PCA, and stats reads. Each resolves
// {id} through the registry, the default tenant's like any other.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"

	"swsketch/internal/core"
	"swsketch/internal/mat"
	"swsketch/internal/obs"
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

// readBody reads a request body whole into buf, through the
// WithMaxBody cap, so an oversized body answers 413 whatever it holds.
// On false the error envelope has been written.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request, buf *bytes.Buffer) bool {
	body := r.Body
	if s.maxBody > 0 {
		body = http.MaxBytesReader(w, r.Body, s.maxBody)
	}
	buf.Reset()
	if _, err := buf.ReadFrom(body); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			httpError(w, http.StatusRequestEntityTooLarge, CodeBodyTooLarge,
				"body exceeds %d bytes", tooLarge.Limit)
		} else {
			httpError(w, http.StatusBadRequest, CodeInvalidJSON, "read body: %v", err)
		}
		return false
	}
	return true
}

// decodeJSON reads a request body that carries no rows (readBody) and
// decodes it strictly into v (decodeStrict). On false the error
// envelope has been written.
func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	var buf bytes.Buffer
	if !s.readBody(w, r, &buf) {
		return false
	}
	if err := decodeStrict(&buf, v); err != nil {
		httpError(w, http.StatusBadRequest, CodeInvalidJSON, "bad JSON: %v", err)
		return false
	}
	return true
}

// decodeStrict decodes exactly one JSON value from r into v: unknown
// fields and data after the value are errors. The bodies that carry no
// rows, a tenant config and the AMM query, are decoded by it; the row
// decoder (rowjson.go) reads the rest.
func decodeStrict(r io.Reader, v interface{}) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("data after the JSON value")
	}
	return nil
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
	d := getDecoder()
	defer putDecoder(d)
	if !s.readBody(w, r, &d.body) {
		return
	}
	if err := d.rowsBody(d.body.Bytes()); err != nil {
		httpError(w, http.StatusBadRequest, CodeInvalidJSON, "bad JSON: %v", err)
		return
	}
	resp, apiErr := s.ingestTenant(t, d, d.ups)
	if apiErr != nil {
		apiErr.write(w)
		return
	}
	writeJSON(w, resp)
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
	d := getDecoder()
	defer putDecoder(d)
	if !s.readBody(w, r, &d.body) {
		return
	}
	if err := d.bulkBody(d.body.Bytes()); err != nil {
		httpError(w, http.StatusBadRequest, CodeInvalidJSON, "bad JSON: %v", err)
		return
	}
	if len(d.tenants) == 0 {
		httpError(w, http.StatusBadRequest, CodeInvalidArgument, "no tenants")
		return
	}
	results := make([]itemResult, 0, len(d.tenants))
	for i, item := range d.tenants {
		res := itemResult{Index: i, ID: item.id}
		t, ok := s.treg.Get(item.id)
		if !ok {
			// Attribute the miss to the requested key: a bulk client
			// hammering a deleted tenant shows up on the events plane.
			s.hot.ObserveEvent(item.id)
			res.Error = &errorBody{Code: CodeNotFound, Message: fmt.Sprintf("no tenant %q", item.id)}
		} else if resp, apiErr := s.ingestTenant(t, d, d.ups[item.ups.off:item.ups.off+item.ups.n]); apiErr != nil {
			res.Error = &errorBody{Code: apiErr.code, Message: apiErr.msg}
		} else {
			res.Accepted = resp.Accepted
			res.LastT = resp.LastT
		}
		results = append(results, res)
	}
	writeJSON(w, bulkResponse{Results: results})
}

// ingestTenant applies one JSON batch, updates parsed by d,
// all-or-nothing to a tenant.
func (s *Server) ingestTenant(t *registry.Tenant, d *rowDecoder, ups []jsonUpdate) (ingestResponse, *apiError) {
	rows, times, apiErr := d.block(ups, t.D())
	if apiErr != nil {
		s.hot.ObserveEvent(t.ID())
		return ingestResponse{}, apiErr
	}
	return s.acquireIngest(t, rows, times)
}

// acquireIngest applies one live block with the tenant acquired for
// its duration. An unavailable tenant, and a block the apply step
// rejects, land on the hot-key sidecar's events plane.
func (s *Server) acquireIngest(t *registry.Tenant, rows [][]float64, times []float64) (ingestResponse, *apiError) {
	if err := t.Acquire(); err != nil {
		s.hot.ObserveEvent(t.ID())
		return ingestResponse{}, acquireError(t, err)
	}
	defer t.Release()
	resp, apiErr := s.apply(t, rows, times, true)
	if apiErr != nil {
		s.hot.ObserveEvent(t.ID())
	}
	return resp, apiErr
}

// apply is the one step by which rows reach a tenant's sketch, rows[i]
// arriving at times[i], whether live or replayed from the WAL. The
// sketch checks the block (CheckBatch: width, squared norms, its own
// clock) before anything else; the block is then journaled (live
// only: a replayed block is already in the log, and is not hot-key
// traffic either), applied with one UpdateBatch, timed and counted for
// the tenant's framework, and the rows are shadowed for the default
// tenant's auditor. So the WAL never holds a block the sketch rejects.
// The caller holds the tenant; nothing retains rows or times.
func (s *Server) apply(t *registry.Tenant, rows [][]float64, times []float64, live bool) (ingestResponse, *apiError) {
	if len(rows) == 0 {
		return ingestResponse{}, errf(http.StatusBadRequest, CodeInvalidArgument, "no updates")
	}
	sk := t.Sketch()
	if err := sk.CheckBatch(rows, times); err != nil {
		return ingestResponse{}, errf(http.StatusBadRequest, CodeInvalidArgument, "%v", err)
	}
	if live && s.wal != nil {
		if _, err := s.wal.AppendRows(t.ID(), t.Updates(), rows, times); err != nil {
			return ingestResponse{}, errf(http.StatusInternalServerError, CodeInternal, "wal append: %v", err)
		}
	}
	m := s.sketchMetrics(t)
	start := m.Start()
	sk.UpdateBatch(rows, times)
	m.ObserveBatch(start, len(rows))
	t.Commit(len(rows))
	if live {
		// The bytes plane gets the dense payload size, 8 bytes × d per row.
		s.hot.ObserveIngest(t.ID(), len(rows), 8*t.D()*len(rows))
	}
	if t == s.def && s.audit != nil {
		s.audit.ObserveBatch(rows, times, sk.Query)
	}
	return ingestResponse{Accepted: len(rows), LastT: times[len(times)-1]}, nil
}

// sketchMetrics returns the instrument set of t's framework, or nil
// with metrics off. Each framework's set is registered on its first
// use and cached, so later requests look nothing up in s.reg.
func (s *Server) sketchMetrics(t *registry.Tenant) *obs.SketchMetrics {
	if s.reg == nil {
		return nil
	}
	algo := t.Algorithm()
	m, ok := s.algoMetrics.Load(algo)
	if !ok {
		m, _ = s.algoMetrics.LoadOrStore(algo, obs.NewSketchMetrics(s.reg, algo))
	}
	return m.(*obs.SketchMetrics)
}

// acquireError maps a Tenant.Acquire failure onto the envelope:
// concurrent deletion is a 404, an unreadable spill file a 500.
func acquireError(t *registry.Tenant, err error) *apiError {
	if errors.Is(err, registry.ErrDeleted) {
		return errf(http.StatusNotFound, CodeNotFound, "tenant %q deleted", t.ID())
	}
	return errf(http.StatusInternalServerError, CodeInternal, "%v", err)
}

// read is the one step by which a query reaches a tenant's sketch:
// it acquires the tenant, resolves the query time (queryTime), and runs
// q at it, timed for the tenant's framework, before it releases the
// tenant. bodyT is the AMM POST body's t, nil elsewhere. On false the
// error envelope has been written.
func (s *Server) read(w http.ResponseWriter, r *http.Request, t *registry.Tenant, bodyT *float64, q func(sk core.TenantSketch, qt float64)) (float64, bool) {
	if !acquire(w, t) {
		return 0, false
	}
	defer t.Release()
	sk := t.Sketch()
	qt, apiErr := queryTime(r, bodyT, sk)
	if apiErr != nil {
		apiErr.write(w)
		return 0, false
	}
	m := s.sketchMetrics(t)
	start := m.Start()
	q(sk, qt)
	m.ObserveQuery(start)
	return qt, true
}

// queryTime resolves a read's query time against the sketch's clock:
// bodyT when given, else ?t=, else the clock itself (query "now"). It
// rejects a time that is not finite (a query at +Inf would expire every
// block, and JSON cannot carry it back) or that precedes the clock.
func queryTime(r *http.Request, bodyT *float64, sk core.TenantSketch) (float64, *apiError) {
	last, seen := sk.Clock()
	qt := last
	if bodyT != nil {
		qt = *bodyT
	} else if tq := r.URL.Query().Get("t"); tq != "" {
		var err error
		if qt, err = strconv.ParseFloat(tq, 64); err != nil {
			return 0, errf(http.StatusBadRequest, CodeInvalidArgument, "bad t %q", tq)
		}
	}
	switch {
	case math.IsNaN(qt) || math.IsInf(qt, 0):
		return 0, errf(http.StatusBadRequest, CodeInvalidArgument, "non-finite t %v", qt)
	case seen && qt < last:
		return 0, errf(http.StatusBadRequest, CodeInvalidArgument, "t %v precedes last ingested %v", qt, last)
	}
	return qt, nil
}

type approximationResponse struct {
	Rows [][]float64 `json:"rows"`
	T    float64     `json:"t"`
}

func (s *Server) handleApproximation(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenantOf(w, r)
	if !ok {
		return
	}
	var b *mat.Dense
	qt, ok := s.read(w, r, t, nil, func(sk core.TenantSketch, qt float64) { b = sk.Query(qt) })
	if !ok {
		return
	}
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
	var b *mat.Dense
	qt, ok := s.read(w, r, t, nil, func(sk core.TenantSketch, qt float64) { b = sk.Query(qt) })
	if !ok {
		return
	}
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
	sk := t.Sketch()
	lastT, _ := sk.Clock()
	resp := statsResponse{
		Tenant:     t.ID(),
		Algorithm:  sk.Name(),
		Dimension:  t.D(),
		RowsStored: sk.RowsStored(),
		Updates:    t.Updates(),
		LastT:      lastT,
		Internals:  sk.Stats(),
		Pinned:     t.Pinned(),
	}
	t.Release()
	resp.Resident = t.Resident()
	writeJSON(w, resp)
}
