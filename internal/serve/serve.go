// Package serve exposes sliding-window matrix sketches over HTTP. A
// Server fronts a multi-tenant registry of named sketches
// (internal/registry): every tenant gets ingest and query endpoints
// under /v2/tenants/{id}/..., and the config passed to NewServer
// builds the reserved "default" tenant. Each tenant's sketch owns its
// clock and checks every batch before the WAL journals it.
// Per-tenant access serialises on the tenant's own mutex, so ingest
// into different tenants runs in parallel. Three steps reach a
// tenant's sketch: apply (ingest, live or replayed), read and restore
// (upload or replay); apply and read time every tenant (WithMetrics).
//
// Routes are registered with Go 1.22 method patterns:
//
//	GET    /v2/tenants                     list tenants
//	PUT    /v2/tenants/{id}                create a tenant (body: registry.Config)
//	GET    /v2/tenants/{id}                one tenant's summary + config
//	DELETE /v2/tenants/{id}                remove a tenant (and its spill file)
//	POST   /v2/tenants/{id}/rows           batch ingest, body:
//	                                       {"updates":[{"row":[...],"t":1.5},...]}
//	POST   /v2/tenants/{id}/stream         streaming ingest (NDJSON or binary
//	                                       frames; see stream.go)
//	GET    /v2/tenants/{id}/approximation  [?t=...]      window approximation B
//	GET    /v2/tenants/{id}/amm            windowed AᵀB estimate (paired
//	POST   /v2/tenants/{id}/amm            frameworks only; 501 otherwise)
//	GET    /v2/tenants/{id}/pca            [?t=...&k=3]  top-k window PCA
//	GET    /v2/tenants/{id}/stats          sketch metadata + "internals"
//	                                       (Introspector) + tenant fields
//	GET    /v2/tenants/{id}/health         liveness + residency (no audit)
//	GET    /v2/tenants/{id}/snapshot       binary sketch snapshot
//	POST   /v2/tenants/{id}/snapshot       restore a snapshot
//	POST   /v2/rows                        multi-tenant bulk ingest, body:
//	                                       {"tenants":[{"id":"a","updates":[...]},...]}
//	GET    /v2/health                      server health: the default tenant's
//	                                       audit verdict (WithAudit; ?fresh=1
//	                                       forces an evaluation), WAL state
//	                                       (replay's failed records and
//	                                       damage named) and hot-key state
//	*      /v1/...                         410 gone: the retired first grammar
//
//	GET  /healthz           200 ok
//	GET  /metrics           Prometheus text exposition (WithMetrics)
//	GET  /debug/trace       event-trace JSONL dump (?format=summary for counts)
//	                        (WithTrace)
//	GET  /debug/hotkeys     hot-tenant top-K + traffic-skew telemetry
//	                        (WithHotKeys)
//	     /debug/pprof/...   runtime profiles (WithPprof)
//
// Every error response under /v2 uses the machine-readable envelope
//
//	{"error":{"code":"<code>","message":"<human-readable detail>"}}
//
// with the following codes:
//
//	invalid_json        400  request body is not valid JSON for the endpoint
//	invalid_argument    400  a field or query parameter is out of range
//	                         (t not finite or behind the clock), or the
//	                         sketch rejected a batch (row width, a squared
//	                         norm that is not finite or exceeds the
//	                         declared r, a timestamp behind its clock)
//	method_not_allowed  405  wrong HTTP method (Allow header lists valid ones)
//	not_found           404  unknown route or unknown tenant
//	gone                410  a route of the retired /v1 grammar; the
//	                         migration table in docs/API.md names its
//	                         /v2 successor
//	conflict            409  a tenant with that ID already exists
//	unsupported         501  the sketch lacks the capability (AMM queries
//	                         on a framework that is not paired)
//	body_too_large      413  body exceeded the WithMaxBody limit
//	overloaded          429  the tenant's stream budget is exhausted
//	                         (WithStreamQueue)
//	internal            500  server-side failure (e.g. a spilled tenant whose
//	                         state could not be restored from disk, or a
//	                         change the WAL could not journal)
//
// Every framework snapshots except LM-HASH, whose download fails with
// 500. An upload must hold the tenant's algorithm and row width and a
// finite clock, or it gets 400 and the tenant keeps its state, as it
// does when the WAL cannot journal the upload (500); a restored tenant
// reads the snapshot's clock and keeps its update count, the rows
// committed since it was created, which is the WAL's replay offset.
// The WAL journals an upload as one checkpoint record, the bytes of the
// tenant's spill file, from which replay rebuilds the tenant alone; a
// tenant's creation is its first checkpoint, with no sketch bytes, and
// an empty upload answers 400. A change the WAL cannot journal (a row
// block, an upload, a creation or a delete) answers 500 and changes
// nothing; an eviction that drops a tenant (no spill directory) is
// journaled as its deletion first, or the tenant stays. Tenant IDs are
// restricted to [A-Za-z0-9._-], at most 128 bytes; "default" names the
// tenant NewServer builds and cannot be created or deleted.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"swsketch/internal/obs"
	"swsketch/internal/obs/audit"
	"swsketch/internal/obs/hh"
	"swsketch/internal/registry"
	"swsketch/internal/trace"
	"swsketch/internal/wal"
)

// Error codes of the uniform error envelope; see the package comment.
const (
	CodeInvalidJSON      = "invalid_json"
	CodeInvalidArgument  = "invalid_argument"
	CodeMethodNotAllowed = "method_not_allowed"
	CodeNotFound         = "not_found"
	CodeGone             = "gone"
	CodeConflict         = "conflict"
	CodeUnsupported      = "unsupported"
	CodeBodyTooLarge     = "body_too_large"
	CodeInternal         = "internal"
)

// DefaultTenant is the reserved tenant ID of the tenant NewServer
// builds. It cannot be created, deleted, or evicted over the API.
const DefaultTenant = "default"

// Server routes HTTP traffic onto a tenant registry. The config given
// to NewServer builds the pinned "default" tenant; further tenants are
// created over the API or pre-registered in the registry passed via
// WithRegistry.
type Server struct {
	treg *registry.Registry
	def  *registry.Tenant

	reg         *obs.Registry
	algoMetrics sync.Map // framework's algorithm name → *obs.SketchMetrics
	pprof       bool
	maxBody     int64

	tr    *trace.Tracer
	audit *audit.Auditor
	log   *slog.Logger

	wal         *wal.Log
	walReplay   atomic.Pointer[wal.Stats] // RecoverWAL's outcome
	streamQueue int

	hot *hh.Sidecar

	streamRows, streamBlocks, streamShed *obs.Counter
	streamOpen                           *obs.Gauge

	reqSeq    atomic.Uint64
	reqPrefix string
}

// Option configures a Server; see WithMetrics, WithPprof, WithMaxBody.
type Option func(*Server)

// WithMetrics records every tenant's ingest rows, batches and update
// and query latencies into reg, labelled by framework (the apply and
// read steps time them; without metrics they read no clock), plus the
// default tenant's sketch internals. It instruments every route with
// request counters and latency histograms and mounts GET /metrics; when
// the server builds its own registry (no WithRegistry), the registry's
// tenant-lifecycle metrics land in reg too.
func WithMetrics(reg *obs.Registry) Option {
	return func(s *Server) { s.reg = reg }
}

// WithPprof mounts net/http/pprof under /debug/pprof/.
func WithPprof() Option {
	return func(s *Server) { s.pprof = true }
}

// WithMaxBody caps request body sizes (ingest and snapshot restore) at
// n bytes; larger bodies get a 413 body_too_large envelope. A JSON body
// is read whole before it is decoded, so an oversized one answers 413
// whatever it holds. Zero (the default) keeps ingest unlimited and the
// snapshot restore at its built-in 1 GiB guard.
func WithMaxBody(n int64) Option {
	return func(s *Server) {
		if n < 1 {
			panic(fmt.Sprintf("serve: max body %d", n))
		}
		s.maxBody = n
	}
}

// WithTrace attaches an event tracer: the default tenant's structural
// transitions emit into it (when its sketch is trace.Traceable; every
// restore of the default tenant re-attaches it), completed requests
// emit http_request events tagged with their request IDs, and GET
// /debug/trace serves the ring as JSONL. When metrics are also active
// the tracer's per-kind counts and exemplar event IDs are bridged into
// the registry.
func WithTrace(tr *trace.Tracer) Option {
	return func(s *Server) { s.tr = tr }
}

// WithAudit attaches an online accuracy auditor to the default
// tenant: every ingested row is shadowed, cova-err is evaluated on
// the auditor's stride, and GET /v2/health reports ok/degraded
// against its threshold. The auditor's gauges live in whatever
// registry it was built with — pass the same registry to WithMetrics
// to serve them on /metrics.
func WithAudit(a *audit.Auditor) Option {
	return func(s *Server) { s.audit = a }
}

// WithLogger enables structured request logging: one slog record per
// completed request, carrying the request ID that also tags the
// request's trace events. The default is silent.
func WithLogger(l *slog.Logger) Option {
	return func(s *Server) { s.log = l }
}

// WithRegistry mounts a caller-built tenant registry (eviction TTL,
// spill directory, caps — see internal/registry's options) instead of
// the plain one the server otherwise creates. NewServer still creates
// the pinned "default" tenant in it.
func WithRegistry(reg *registry.Registry) Option {
	return func(s *Server) {
		if reg == nil {
			panic("serve: nil registry")
		}
		s.treg = reg
	}
}

// NewServer returns a server whose pinned "default" tenant is built
// from cfg, as PUT /v2/tenants/{id} builds a tenant; a config that
// does not build returns Build's error.
func NewServer(cfg registry.Config, opts ...Option) (*Server, error) {
	s := &Server{streamQueue: DefaultStreamQueue}
	for _, o := range opts {
		o(s)
	}
	// Request IDs: a short per-server entropy prefix plus a counter, so
	// IDs from restarted servers don't collide in aggregated logs.
	s.reqPrefix = strconv.FormatInt(time.Now().UnixNano()&0xffffff, 36)
	if s.treg == nil {
		var ropts []registry.Option
		if s.reg != nil {
			ropts = append(ropts, registry.WithObs(s.reg))
		}
		if s.tr != nil {
			ropts = append(ropts, registry.WithTrace(s.tr))
		}
		treg, err := registry.New(ropts...)
		if err != nil {
			return nil, err
		}
		s.treg = treg
	}
	def, err := s.treg.CreatePinned(DefaultTenant, cfg)
	if errors.Is(err, registry.ErrExists) {
		// The name is reserved: discard any stub a spill-dir scan may
		// have registered under it and take the slot.
		s.treg.Delete(DefaultTenant)
		def, err = s.treg.CreatePinned(DefaultTenant, cfg)
	}
	if err != nil {
		return nil, err
	}
	s.def = def
	_ = def.Acquire() // a fresh pinned tenant cannot fail
	def.Sketch().SetTracer(s.tr)
	def.Release()
	if s.reg != nil {
		// Scrape-time reads run under the default tenant's lock, so
		// /metrics never races an ingest, and read the sketch a restore
		// installed.
		obs.RegisterInternals(s.reg, def.Algorithm(), func() map[string]float64 {
			if s.def.Acquire() != nil {
				return nil // the pinned default tenant cannot actually fail
			}
			defer s.def.Release()
			return s.def.Sketch().Stats()
		})
		obs.RegisterRuntimeMetrics(s.reg)
		obs.RegisterTracer(s.reg, s.tr)
		s.streamRows = s.reg.Counter("swsketch_stream_rows_total",
			"Rows accepted over streaming ingest connections.", nil)
		s.streamBlocks = s.reg.Counter("swsketch_stream_blocks_total",
			"Blocks acknowledged over streaming ingest connections.", nil)
		s.streamShed = s.reg.Counter("swsketch_stream_overloaded_total",
			"Stream opens and blocks shed by the per-tenant backpressure gate.", nil)
		s.streamOpen = s.reg.Gauge("swsketch_stream_open",
			"Streaming ingest connections currently open.", nil)
	}
	if s.hot != nil {
		if s.tr != nil {
			s.hot.SetTracer(s.tr)
		}
		if s.reg != nil {
			s.hot.RegisterMetrics(s.reg)
		}
		// Every successful tenant acquisition feeds the sidecar's
		// touches plane — request-level activity independent of rows.
		s.treg.SetTouchHook(s.hot.Touch)
		if s.wal != nil {
			s.wal.SetAppendHook(func(tenant string, _, bytes int) {
				s.hot.ObserveWAL(tenant, bytes)
			})
		}
	}
	if s.wal != nil {
		// Journal a drop as the tenant's deletion before it leaves, or
		// replay rebuilds the tenant from its records. A drop the log
		// cannot take (as during replay) keeps the tenant resident.
		s.treg.SetDropHook(func(id string) error {
			_, err := s.wal.AppendDelete(id)
			return err
		})
	}
	if s.wal != nil || s.hot != nil {
		s.treg.SetEvictHook(func(id string, spilled bool) {
			if s.wal != nil {
				// Spilled or deleted tenants no longer need their WAL records
				// for recovery; release them so closed segments can truncate.
				s.wal.Released(id)
			}
			if s.hot != nil && !spilled {
				// A dropped or deleted tenant leaves the top-K tracker; its
				// count-min contributions decay out on their own.
				s.hot.Forget(id)
			}
		})
	}
	return s, nil
}

// Registry returns the server's tenant registry (for sweepers and
// direct programmatic access).
func (s *Server) Registry() *registry.Registry { return s.treg }

// Handler returns the HTTP routes listed in the package comment.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	handle := func(pattern string, h http.HandlerFunc, allow ...string) {
		// Method-pattern route plus a same-path fallback answering any
		// other method with a 405 envelope (the stock ServeMux 405 is
		// plain text).
		path := strings.TrimSpace(pattern[strings.Index(pattern, " "):])
		mux.HandleFunc(pattern, s.wrap(path, h))
		if len(allow) > 0 {
			mux.HandleFunc(path, methodNotAllowed(allow...))
		}
	}
	handle("GET /v2/tenants", s.handleTenantList, "GET")
	handle("PUT /v2/tenants/{id}", s.handleTenantPut)  // fallback shared below
	handle("GET /v2/tenants/{id}", s.handleTenantInfo) // fallback shared below
	handle("DELETE /v2/tenants/{id}", s.handleTenantDelete, "GET", "PUT", "DELETE")
	handle("POST /v2/tenants/{id}/rows", s.handleIngest, "POST")
	handle("POST /v2/tenants/{id}/stream", s.handleStream, "POST")
	handle("GET /v2/tenants/{id}/approximation", s.handleApproximation, "GET")
	handle("GET /v2/tenants/{id}/amm", s.handleAMM) // fallback shared below
	handle("POST /v2/tenants/{id}/amm", s.handleAMM, "GET", "POST")
	handle("GET /v2/tenants/{id}/pca", s.handlePCA, "GET")
	handle("GET /v2/tenants/{id}/stats", s.handleStats, "GET")
	handle("GET /v2/tenants/{id}/health", s.handleTenantHealth, "GET")
	handle("GET /v2/tenants/{id}/snapshot", s.handleSnapshotGet) // fallback shared below
	handle("POST /v2/tenants/{id}/snapshot", s.handleSnapshotPost, "GET", "POST")
	handle("POST /v2/rows", s.handleBulk, "POST")
	handle("GET /v2/health", s.handleHealth, "GET")
	handle("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	}, "GET")
	if s.reg != nil {
		mux.Handle("GET /metrics", s.reg.Handler())
		mux.HandleFunc("/metrics", methodNotAllowed("GET"))
	}
	if s.tr != nil {
		handle("GET /debug/trace", s.handleTrace, "GET")
	}
	if s.hot != nil {
		handle("GET /debug/hotkeys", s.handleHotkeys, "GET")
	}
	if s.pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	mux.HandleFunc("/v1/", gone)
	// Catch-all so unknown routes answer with the envelope too.
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		httpError(w, http.StatusNotFound, CodeNotFound, "no route %s %s", r.Method, r.URL.Path)
	})
	return mux
}

// gone answers every method on every path of the retired /v1 grammar.
// The migration table in docs/API.md is the one place that maps each
// old route to its /v2 successor.
func gone(w http.ResponseWriter, r *http.Request) {
	httpError(w, http.StatusGone, CodeGone,
		"%s %s: the /v1 API is retired; docs/API.md#migrating-from-v1 names its /v2 successor",
		r.Method, r.URL.Path)
}

// wrap decorates a handler with the per-request observability plane:
// an X-Request-ID response header, per-route latency/count metrics
// (WithMetrics), an http_request trace event carrying the request ID
// (WithTrace), and one slog record per completed request (WithLogger).
// With none of the three active it is the identity. Route labels use
// the registered pattern ("/v2/tenants/{id}/rows"), not the raw
// path, so metric cardinality stays bounded by the route table.
func (s *Server) wrap(route string, h http.HandlerFunc) http.HandlerFunc {
	if s.reg == nil && s.tr == nil && s.log == nil {
		return h
	}
	var hist *obs.Histogram
	if s.reg != nil {
		hist = s.reg.Histogram("swsketch_http_request_seconds",
			"HTTP request latency by route.", obs.Labels{"route": route}, nil)
	}
	// The route's request counters by status code, each looked up in
	// s.reg on the code's first answer only.
	var mu sync.Mutex
	codes := map[int]*obs.Counter{}
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := s.reqPrefix + "-" + strconv.FormatUint(s.reqSeq.Add(1), 10)
		w.Header().Set("X-Request-ID", id)
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r)
		dur := time.Since(start)
		if hist != nil {
			hist.Observe(dur.Seconds())
			mu.Lock()
			c := codes[sw.code]
			if c == nil {
				c = s.reg.Counter("swsketch_http_requests_total", "HTTP requests by route and status code.",
					obs.Labels{"route": route, "code": strconv.Itoa(sw.code)})
				codes[sw.code] = c
			}
			mu.Unlock()
			c.Inc()
		}
		if s.tr.Enabled() {
			// V1 = status code, V2 = latency in seconds; the note carries
			// the request ID so a log line or response header can be
			// joined against the trace ring.
			s.tr.EmitNote("serve", trace.KindHTTP, 0,
				float64(sw.code), dur.Seconds(), id+" "+r.Method+" "+route)
		}
		if s.log != nil {
			s.log.LogAttrs(r.Context(), slog.LevelInfo, "http request",
				slog.String("id", id),
				slog.String("method", r.Method),
				slog.String("route", route),
				slog.String("path", r.URL.Path),
				slog.Int("status", sw.code),
				slog.Duration("duration", dur),
			)
		}
	}
}

// statusWriter captures the response status for the request counter.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// Unwrap exposes the underlying writer so http.ResponseController
// (the stream handler's flusher) can reach it through the wrapper.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// methodNotAllowed answers with the 405 envelope and an Allow header.
func methodNotAllowed(allow ...string) http.HandlerFunc {
	allowed := strings.Join(allow, ", ")
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Allow", allowed)
		httpError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed,
			"method %s not allowed (allow: %s)", r.Method, allowed)
	}
}

// acquire locks a tenant for the duration of a request, translating
// acquisition failures (concurrent deletion, unreadable spill file)
// into envelope errors. On true the caller must Release.
func acquire(w http.ResponseWriter, t *registry.Tenant) bool {
	if err := t.Acquire(); err != nil {
		acquireError(t, err).write(w)
		return false
	}
	return true
}

// tenantOf resolves the {id} path segment against the registry.
func (s *Server) tenantOf(w http.ResponseWriter, r *http.Request) (*registry.Tenant, bool) {
	id := r.PathValue("id")
	t, ok := s.treg.Get(id)
	if !ok {
		httpError(w, http.StatusNotFound, CodeNotFound, "no tenant %q", id)
		return nil, false
	}
	return t, true
}

// errorBody is the payload of the uniform error envelope.
type errorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

type errorResponse struct {
	Error errorBody `json:"error"`
}

func httpError(w http.ResponseWriter, status int, code, format string, args ...interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(errorResponse{Error: errorBody{
		Code:    code,
		Message: fmt.Sprintf(format, args...),
	}})
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// handleTrace dumps the trace ring. The default body is JSONL (one
// event per line, oldest first); ?format=summary returns the per-kind
// counts and ring occupancy as a single JSON object.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	switch f := r.URL.Query().Get("format"); f {
	case "summary":
		writeJSON(w, s.tr.Summarize())
	case "", "jsonl":
		w.Header().Set("Content-Type", "application/x-ndjson")
		_ = s.tr.WriteJSONL(w)
	default:
		httpError(w, http.StatusBadRequest, CodeInvalidArgument, "bad format %q", f)
	}
}

// restore is the one step by which a snapshot replaces a tenant's
// state, uploaded or replayed from a WAL checkpoint, in apply's order:
// decode into a sketch built from the tenant's config, journal an
// upload as the tenant's checkpoint, then install the sketch with its
// update count (an upload keeps the tenant's), so a rejected snapshot
// or a failed journal changes nothing. On the default tenant it
// re-attaches the tracer and re-arms the auditor, whose shadow cannot
// know the restored window's rows. The caller holds the tenant.
func (s *Server) restore(t *registry.Tenant, blob []byte, updates uint64, live bool) *apiError {
	sk, err := t.Decode(blob)
	if err != nil {
		return errf(http.StatusBadRequest, CodeInvalidArgument, "restore: %v", err)
	}
	if live && s.wal != nil {
		// Replay rebuilds the tenant from its checkpoint alone, so the
		// WAL truncates the tenant's earlier records behind it.
		data, err := t.Checkpoint(sk, updates)
		if err == nil {
			_, err = s.wal.AppendCheckpoint(t.ID(), data)
		}
		if err != nil {
			return errf(http.StatusInternalServerError, CodeInternal, "wal append: %v", err)
		}
	}
	t.Install(sk, updates)
	if t == s.def {
		sk.SetTracer(s.tr)
		s.audit.Reset()
	}
	return nil
}

// handleSnapshotGet downloads a tenant's sketch state.
func (s *Server) handleSnapshotGet(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenantOf(w, r)
	if !ok || !acquire(w, t) {
		return
	}
	defer t.Release()
	data, err := t.Sketch().MarshalBinary()
	if err != nil {
		httpError(w, http.StatusInternalServerError, CodeInternal, "snapshot: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(data)
}

// handleSnapshotPost replaces a tenant's sketch state from an uploaded
// snapshot through the restore step. On success the tenant's clock is
// the restored sketch's, and its update count, the rows committed
// since the tenant was created, is kept: the WAL replays a row block
// only at the count it was logged at, so the count must only grow.
func (s *Server) handleSnapshotPost(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenantOf(w, r)
	if !ok {
		return
	}
	limit := int64(1 << 30)
	if s.maxBody > 0 {
		limit = s.maxBody
	}
	data, err := io.ReadAll(io.LimitReader(r.Body, limit+1))
	if err != nil {
		httpError(w, http.StatusBadRequest, CodeInvalidArgument, "read body: %v", err)
		return
	}
	if int64(len(data)) > limit {
		httpError(w, http.StatusRequestEntityTooLarge, CodeBodyTooLarge,
			"body exceeds %d bytes", limit)
		return
	}
	if len(data) == 0 {
		// Decode reads no bytes as a fresh sketch: a creation's, not an
		// upload's.
		httpError(w, http.StatusBadRequest, CodeInvalidArgument, "restore: empty snapshot")
		return
	}
	if !acquire(w, t) {
		return
	}
	defer t.Release()
	if apiErr := s.restore(t, data, t.Updates(), true); apiErr != nil {
		apiErr.write(w)
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "restored")
}

// healthResponse is the GET /v2/health payload. Status is "ok" or
// "degraded"; Detail carries the auditor's full view when one is
// attached.
type healthResponse struct {
	Status string        `json:"status"`
	Audit  bool          `json:"audit"`
	Detail *audit.Status `json:"detail,omitempty"`
	// WAL reports the write-ahead log's replay outcome; present only
	// when a WAL is attached.
	WAL *walHealth `json:"wal,omitempty"`
	// HotKeys reports the hot-key sidecar's configuration; present
	// only when one is attached (WithHotKeys).
	HotKeys *hotkeysHealth `json:"hotkeys,omitempty"`
}

// walHealth is the health endpoints' view of the write-ahead log.
type walHealth struct {
	// Replayed is false until RecoverWAL has run.
	Replayed bool `json:"replayed"`
	// Damaged reports corruption found during replay (a CRC mismatch or
	// a mid-segment tear): recovery stopped early on that shard and the
	// server is serving a possibly incomplete restore.
	Damaged bool `json:"damaged,omitempty"`
	// Failed counts replayed records that could not be applied. Every
	// check runs before a record is journaled, so a failure means
	// damage, or a restart whose config builds another default sketch.
	Failed int `json:"failed,omitempty"`
	// Failures names the first failed records: each one's tenant,
	// sequence number and error (wal.Stats.Failures).
	Failures []wal.Failure `json:"failures,omitempty"`
	// Damage names where each damaged shard's replay stopped: the
	// segment file, the byte offset and the decoder's error
	// (wal.Stats.Damage).
	Damage []wal.Damage `json:"damage,omitempty"`
}

// handleHealth reports the default tenant's accuracy health. Without
// an auditor it is a plain liveness "ok". With one, the latest
// audited cova-err decides ok (200) vs degraded (503); ?fresh=1
// forces an evaluation first so the verdict reflects the current
// window rather than the last stride boundary.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	resp := healthResponse{Status: "ok"}
	if s.wal != nil {
		resp.WAL = &walHealth{Replayed: s.wal.Replayed()}
		if st := s.walReplay.Load(); st != nil {
			resp.WAL.Damaged, resp.WAL.Failed, resp.WAL.Failures, resp.WAL.Damage = st.Damaged, st.Failed, st.Failures, st.Damage
		}
	}
	if s.hot != nil {
		resp.HotKeys = &hotkeysHealth{
			Enabled:       true,
			WindowSeconds: s.hot.Window().Seconds(),
			TopK:          s.hot.K(),
		}
	}
	if s.audit != nil {
		if r.URL.Query().Get("fresh") != "" {
			if !acquire(w, s.def) {
				return
			}
			s.audit.Evaluate(s.def.Sketch().Query)
			s.def.Release()
		}
		st := s.audit.Status()
		resp.Audit, resp.Detail = true, &st
		if st.Degraded {
			resp.Status = "degraded"
		}
	}
	if resp.WAL != nil && (resp.WAL.Damaged || resp.WAL.Failed > 0) {
		resp.Status = "degraded"
	}
	if resp.Status == "degraded" {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		_ = json.NewEncoder(w).Encode(resp)
		return
	}
	writeJSON(w, resp)
}
