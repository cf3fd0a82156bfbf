package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"log/slog"

	"swsketch/internal/core"
	"swsketch/internal/obs/audit"
	"swsketch/internal/trace"
	"swsketch/internal/window"
)

// variedRow is a deterministic pseudo-random row generator (no RNG so
// runs are reproducible byte for byte).
func variedRow(i int) []float64 {
	return []float64{
		float64(i%7) - 3,
		float64((i*5)%11) * 0.5,
		float64((i*3)%13) - 6,
	}
}

func ingestVaried(t *testing.T, url string, from, to int) {
	t.Helper()
	var b strings.Builder
	b.WriteString(`{"updates":[`)
	for i := from; i < to; i++ {
		if i > from {
			b.WriteString(",")
		}
		r := variedRow(i)
		fmt.Fprintf(&b, `{"row":[%v,%v,%v],"t":%d}`, r[0], r[1], r[2], i)
	}
	b.WriteString("]}")
	resp := postJSON(t, url+"/v2/tenants/default/rows", b.String())
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("ingest [%d,%d) status %d", from, to, resp.StatusCode)
	}
}

func TestHealthWithoutAuditor(t *testing.T) {
	ts, done := newTestServer(t)
	defer done()
	resp, err := http.Get(ts.URL + "/v2/health")
	if err != nil {
		t.Fatal(err)
	}
	var hr healthResponse
	decode(t, resp, &hr)
	if resp.StatusCode != 200 || hr.Status != "ok" || hr.Audit || hr.Detail != nil {
		t.Fatalf("health without auditor: status %d, %+v", resp.StatusCode, hr)
	}
}

// TestHealthAuditMatchesOfflineEval is the acceptance check: the
// cova-err that /v2/health reports must equal an offline evaluation of
// the same sketch against an exact window, to FP tolerance.
func TestHealthAuditMatchesOfflineEval(t *testing.T) {
	spec := window.Seq(100)
	a := audit.New(audit.Config{Spec: spec, D: 3, ErrThreshold: 10}, nil)
	ts := httptest.NewServer(newServer(t, lmCfg(3), WithAudit(a)).Handler())
	defer ts.Close()

	// Two batches of one default stride each: the second evaluation
	// lands exactly at the final row.
	n := 2 * audit.DefaultStride
	ingestVaried(t, ts.URL, 0, n/2)
	ingestVaried(t, ts.URL, n/2, n)

	resp, err := http.Get(ts.URL + "/v2/health")
	if err != nil {
		t.Fatal(err)
	}
	var hr healthResponse
	decode(t, resp, &hr)
	if !hr.Audit || hr.Detail == nil {
		t.Fatalf("health %+v, want audit detail", hr)
	}
	if hr.Detail.Evaluations < 2 {
		t.Fatalf("evaluations = %d, want ≥2", hr.Detail.Evaluations)
	}

	// Offline oracle: identical sketch + exact window over the same
	// stream, evaluated at the same final timestamp.
	sk2 := core.NewLMFD(spec, 3, 8, 4)
	exact := window.NewExact(spec, 3)
	for i := 0; i < n; i++ {
		r := variedRow(i)
		sk2.Update(r, float64(i))
		exact.Update(r, float64(i))
	}
	offline := exact.CovaErr(sk2.Query(float64(n - 1)))

	if diff := hr.Detail.CovaErr - offline; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("audited cova-err %v, offline %v (diff %v)", hr.Detail.CovaErr, offline, diff)
	}
}

func TestHealthFreshForcesEvaluation(t *testing.T) {
	spec := window.Seq(100)
	a := audit.New(audit.Config{Spec: spec, D: 3, ErrThreshold: 10}, nil)
	ts := httptest.NewServer(newServer(t, lmCfg(3), WithAudit(a)).Handler())
	defer ts.Close()

	// 70 rows: one stride boundary passed (64), 6 rows un-evaluated.
	ingestVaried(t, ts.URL, 0, 70)
	before := a.Status().Evaluations

	resp, err := http.Get(ts.URL + "/v2/health?fresh=1")
	if err != nil {
		t.Fatal(err)
	}
	var hr healthResponse
	decode(t, resp, &hr)
	if hr.Detail == nil || hr.Detail.Evaluations != before+1 {
		t.Fatalf("fresh health %+v, want evaluations %d", hr, before+1)
	}
	if hr.Detail.T != 69 {
		t.Fatalf("fresh evaluation at t=%v, want 69", hr.Detail.T)
	}
}

func TestHealthDegraded(t *testing.T) {
	spec := window.Seq(100)
	// ℓ=2 on varied 3-dimensional rows: the sketch cannot be accurate,
	// so any positive threshold this small must trip.
	cfg := lmCfg(3)
	cfg.Ell, cfg.B = 2, 2
	a := audit.New(audit.Config{Spec: spec, D: 3, ErrThreshold: 1e-9}, nil)
	ts := httptest.NewServer(newServer(t, cfg, WithAudit(a)).Handler())
	defer ts.Close()

	ingestVaried(t, ts.URL, 0, 2*audit.DefaultStride)

	resp, err := http.Get(ts.URL + "/v2/health")
	if err != nil {
		t.Fatal(err)
	}
	var hr healthResponse
	decode(t, resp, &hr)
	if resp.StatusCode != http.StatusServiceUnavailable || hr.Status != "degraded" {
		t.Fatalf("degraded health: status %d, %+v", resp.StatusCode, hr)
	}
	if hr.Detail == nil || !hr.Detail.Degraded {
		t.Fatalf("degraded detail %+v", hr.Detail)
	}
}

func TestAuditResetOnSnapshotRestore(t *testing.T) {
	spec := window.Seq(100)
	mk := func() (*httptest.Server, *audit.Auditor) {
		a := audit.New(audit.Config{Spec: spec, D: 3}, nil)
		return httptest.NewServer(newServer(t, lmCfg(3), WithAudit(a)).Handler()), a
	}
	ts, _ := mk()
	defer ts.Close()
	ingestVaried(t, ts.URL, 0, 64)
	snap, err := http.Get(ts.URL + "/v2/tenants/default/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(snap.Body)
	snap.Body.Close()

	ts2, a2 := mk()
	defer ts2.Close()
	ingestVaried(t, ts2.URL, 0, 64)
	if a2.Status().Warming {
		t.Fatal("auditor warming before restore")
	}
	r, err := http.Post(ts2.URL+"/v2/tenants/default/snapshot", "application/octet-stream", bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != 200 {
		t.Fatalf("restore status %d", r.StatusCode)
	}
	st := a2.Status()
	if !st.Warming || st.ShadowRows != 0 {
		t.Fatalf("post-restore auditor %+v, want warming with empty shadow", st)
	}
}

// TestUploadKeepsTheTracer: the restore step installs a freshly
// decoded sketch, so it must attach the tracer to it: after an upload
// to the default tenant, further ingest still emits LM events.
func TestUploadKeepsTheTracer(t *testing.T) {
	tr := trace.New(4096)
	tr.Enable()
	ts := httptest.NewServer(newServer(t, lmCfg(3), WithTrace(tr)).Handler())
	defer ts.Close()
	ingestVaried(t, ts.URL, 0, 150)
	snap := getBytes(t, ts.URL+"/v2/tenants/default/snapshot")
	resp, err := http.Post(ts.URL+"/v2/tenants/default/snapshot", "application/octet-stream", bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upload status %d", resp.StatusCode)
	}
	before := tr.Counts()
	ingestVaried(t, ts.URL, 150, 300)
	after := tr.Counts()
	for _, k := range []string{trace.KindLMClose, trace.KindLMMerge, trace.KindFDShrink} {
		if after[k].Count <= before[k].Count {
			t.Errorf("%s events: %d before the upload's further ingest, %d after", k, before[k].Count, after[k].Count)
		}
	}
}

func TestDebugTraceEndpoint(t *testing.T) {
	tr := trace.New(4096)
	tr.Enable()
	ts := httptest.NewServer(newServer(t, lmCfg(3), WithTrace(tr)).Handler())
	defer ts.Close()

	// Enough varied rows to force block closes, merges, expiries, and
	// FD shrinks, plus the requests themselves.
	ingestVaried(t, ts.URL, 0, 150)

	resp, err := http.Get(ts.URL + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("trace content type %q", ct)
	}
	kinds := map[string]int{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var e trace.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		kinds[e.Kind]++
	}
	for _, want := range []string{trace.KindLMClose, trace.KindFDShrink, trace.KindHTTP} {
		if kinds[want] == 0 {
			t.Fatalf("trace dump missing kind %q (got %v)", want, kinds)
		}
	}

	// Summary format mirrors the ring's counters.
	r2, err := http.Get(ts.URL + "/debug/trace?format=summary")
	if err != nil {
		t.Fatal(err)
	}
	var sum trace.Summary
	decode(t, r2, &sum)
	if !sum.Enabled || sum.Total == 0 || len(sum.Kinds) == 0 {
		t.Fatalf("trace summary %+v", sum)
	}

	// Unknown format is an envelope error.
	r3, err := http.Get(ts.URL + "/debug/trace?format=xml")
	if err != nil {
		t.Fatal(err)
	}
	r3.Body.Close()
	if r3.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad format status %d", r3.StatusCode)
	}
}

func TestDebugTraceAbsentWithoutTracer(t *testing.T) {
	ts, done := newTestServer(t)
	defer done()
	resp, err := http.Get(ts.URL + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("trace without tracer status %d, want 404", resp.StatusCode)
	}
}

// syncBuffer lets the test read log output written from server
// handler goroutines without racing.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestRequestLoggingAndIDs(t *testing.T) {
	var buf syncBuffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	tr := trace.New(256)
	tr.Enable()
	ts := httptest.NewServer(newServer(t, lmCfg(3), WithLogger(logger), WithTrace(tr)).Handler())
	defer ts.Close()

	resp := postJSON(t, ts.URL+"/v2/tenants/default/rows", `{"updates":[{"row":[1,2,3],"t":1}]}`)
	resp.Body.Close()
	id := resp.Header.Get("X-Request-ID")
	if id == "" {
		t.Fatal("no X-Request-ID header")
	}
	r2, err := http.Get(ts.URL + "/v2/tenants/default/stats")
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	id2 := r2.Header.Get("X-Request-ID")
	if id2 == "" || id2 == id {
		t.Fatalf("request IDs not unique: %q vs %q", id, id2)
	}

	out := buf.String()
	for _, want := range []string{
		"id=" + id, "route=/v2/tenants/{id}/rows", "method=POST", "status=200",
		"id=" + id2, "route=/v2/tenants/{id}/stats",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("log output missing %q:\n%s", want, out)
		}
	}

	// The same request ID tags the http_request trace events, joining
	// the two observability planes.
	var found bool
	for _, e := range tr.Events() {
		if e.Kind == trace.KindHTTP && strings.HasPrefix(e.Note, id+" ") {
			found = true
			if e.V1 != 200 {
				t.Fatalf("http trace event status %v, want 200", e.V1)
			}
		}
	}
	if !found {
		t.Fatalf("no http_request trace event tagged %q", id)
	}
}

func TestSilentByDefault(t *testing.T) {
	// Without WithLogger the server must not write anything to the
	// default slog output; spot-check by swapping the default logger.
	var buf syncBuffer
	prev := slog.Default()
	slog.SetDefault(slog.New(slog.NewTextHandler(&buf, nil)))
	defer slog.SetDefault(prev)

	ts, done := newTestServer(t)
	defer done()
	postJSON(t, ts.URL+"/v2/tenants/default/rows", `{"updates":[{"row":[1,2,3],"t":1}]}`).Body.Close()
	if out := buf.String(); out != "" {
		t.Fatalf("unexpected log output: %s", out)
	}
}
