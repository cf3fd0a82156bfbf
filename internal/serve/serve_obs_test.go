package serve

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"swsketch/internal/obs"
	"swsketch/internal/registry"
)

// decodeError reads the uniform error envelope off a response.
func decodeError(t *testing.T, resp *http.Response) errorBody {
	t.Helper()
	var er errorResponse
	decode(t, resp, &er)
	if er.Error.Code == "" {
		t.Fatalf("response carried no error envelope")
	}
	return er.Error
}

func TestErrorEnvelopeOnWrongMethod(t *testing.T) {
	ts, done := newTestServer(t)
	defer done()
	resp, err := http.Get(ts.URL + "/v2/tenants/default/rows")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); allow != "POST" {
		t.Fatalf("Allow = %q, want POST", allow)
	}
	if e := decodeError(t, resp); e.Code != CodeMethodNotAllowed {
		t.Fatalf("code = %q", e.Code)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v2/tenants/default/snapshot", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE snapshot status %d", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); allow != "GET, POST" {
		t.Fatalf("snapshot Allow = %q", allow)
	}
	resp.Body.Close()
}

func TestErrorEnvelopeCodes(t *testing.T) {
	ts, done := newTestServer(t)
	defer done()
	cases := []struct {
		name, body, code string
	}{
		{"bad json", `{`, CodeInvalidJSON},
		{"empty batch", `{"updates":[]}`, CodeInvalidArgument},
		{"wrong dim", `{"updates":[{"row":[1],"t":0}]}`, CodeInvalidArgument},
		{"out of order", `{"updates":[{"row":[1,2,3],"t":5},{"row":[1,2,3],"t":4}]}`, CodeInvalidArgument},
		{"both forms", `{"updates":[{"row":[1,2,3],"idx":[0],"val":[1],"t":0}]}`, CodeInvalidArgument},
	}
	for _, c := range cases {
		resp := postJSON(t, ts.URL+"/v2/tenants/default/rows", c.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d", c.name, resp.StatusCode)
		}
		if e := decodeError(t, resp); e.Code != c.code {
			t.Fatalf("%s: code %q, want %q", c.name, e.Code, c.code)
		}
	}
}

func TestNotFoundEnvelope(t *testing.T) {
	ts, done := newTestServer(t)
	defer done()
	resp, err := http.Get(ts.URL + "/v2/nonsense")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if e := decodeError(t, resp); e.Code != CodeNotFound {
		t.Fatalf("code = %q", e.Code)
	}
}

func TestConflictEnvelopeAfterRestore(t *testing.T) {
	ts, done := newTestServer(t)
	defer done()
	postJSON(t, ts.URL+"/v2/tenants/default/rows", `{"updates":[{"row":[1,2,3],"t":100}]}`).Body.Close()
	snap, err := http.Get(ts.URL + "/v2/tenants/default/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(snap.Body)
	snap.Body.Close()

	ts2, done2 := newTestServer(t)
	defer done2()
	r, err := http.Post(ts2.URL+"/v2/tenants/default/snapshot", "application/octet-stream", bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()

	// The restored sketch's clock rejects the stale timestamp like any
	// other batch the sketch refuses.
	resp := postJSON(t, ts2.URL+"/v2/tenants/default/rows", `{"updates":[{"row":[1,2,3],"t":5}]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if e := decodeError(t, resp); e.Code != CodeInvalidArgument || !strings.Contains(e.Message, "precedes 100") {
		t.Fatalf("error %+v", e)
	}
}

// TestSnapshotRestoreResetsClock is the regression test for the stale
// lastT bug: a server that had ingested up to t=500 and then restores
// a snapshot taken at t=100 must not keep answering default-t queries
// at the dead pre-restore clock. The restored sketch's clock governs:
// stats read last_t 100 with the tenant's 3 committed updates kept, and
// a default-t query answers at t=100.
func TestSnapshotRestoreResetsClock(t *testing.T) {
	ts, done := newTestServer(t)
	defer done()
	postJSON(t, ts.URL+"/v2/tenants/default/rows",
		`{"updates":[{"row":[1,2,3],"t":50},{"row":[4,5,6],"t":100}]}`).Body.Close()
	snap, err := http.Get(ts.URL + "/v2/tenants/default/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(snap.Body)
	snap.Body.Close()

	// Advance the server's clock well past the snapshot...
	postJSON(t, ts.URL+"/v2/tenants/default/rows", `{"updates":[{"row":[7,8,9],"t":500}]}`).Body.Close()
	// ...then restore the old snapshot on the same server.
	r, err := http.Post(ts.URL+"/v2/tenants/default/snapshot", "application/octet-stream", bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != 200 {
		t.Fatalf("restore status %d", r.StatusCode)
	}

	var sr statsResponse
	stats, err := http.Get(ts.URL + "/v2/tenants/default/stats")
	if err != nil {
		t.Fatal(err)
	}
	decode(t, stats, &sr)
	if sr.LastT != 100 || sr.Updates != 3 {
		t.Fatalf("post-restore clock: last_t=%v updates=%d, want 100 and 3", sr.LastT, sr.Updates)
	}

	// A default-t query must not be answered at the stale t=500 clock,
	// nor at a zeroed one: it answers at the restored sketch's t=100.
	ra, err := http.Get(ts.URL + "/v2/tenants/default/approximation")
	if err != nil {
		t.Fatal(err)
	}
	var ar approximationResponse
	decode(t, ra, &ar)
	if ar.T != 100 {
		t.Fatalf("default query time after restore = %v, want 100", ar.T)
	}
}

func TestStatsInternals(t *testing.T) {
	ts, done := newTestServer(t)
	defer done()
	var b strings.Builder
	b.WriteString(`{"updates":[`)
	for i := 0; i < 60; i++ {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, `{"row":[%d,1,0],"t":%d}`, i%3, i)
	}
	b.WriteString("]}")
	postJSON(t, ts.URL+"/v2/tenants/default/rows", b.String()).Body.Close()

	resp, err := http.Get(ts.URL + "/v2/tenants/default/stats")
	if err != nil {
		t.Fatal(err)
	}
	var sr statsResponse
	decode(t, resp, &sr)
	if sr.Internals == nil {
		t.Fatal("stats carried no internals")
	}
	for _, k := range []string{"levels", "blocks", "active_rows", "merges"} {
		if _, ok := sr.Internals[k]; !ok {
			t.Fatalf("internals missing %q: %v", k, sr.Internals)
		}
	}
	if sr.RowsStored == 0 {
		t.Fatalf("stats %+v", sr)
	}
}

func TestWithMaxBody(t *testing.T) {
	ts := httptest.NewServer(newServer(t, lmCfg(3), WithMaxBody(64)).Handler())
	defer ts.Close()

	small := `{"updates":[{"row":[1,2,3],"t":0}]}`
	resp := postJSON(t, ts.URL+"/v2/tenants/default/rows", small)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("small body status %d", resp.StatusCode)
	}

	var b strings.Builder
	b.WriteString(`{"updates":[`)
	for i := 0; i < 20; i++ {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, `{"row":[1,2,3],"t":%d}`, i+1)
	}
	b.WriteString("]}")
	resp = postJSON(t, ts.URL+"/v2/tenants/default/rows", b.String())
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("big body status %d, want 413", resp.StatusCode)
	}
	if e := decodeError(t, resp); e.Code != CodeBodyTooLarge {
		t.Fatalf("code = %q", e.Code)
	}

	// The cap also bounds snapshot restores.
	r2, err := http.Post(ts.URL+"/v2/tenants/default/snapshot", "application/octet-stream",
		bytes.NewReader(make([]byte, 128)))
	if err != nil {
		t.Fatal(err)
	}
	if r2.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("big snapshot status %d, want 413", r2.StatusCode)
	}
	r2.Body.Close()
}

func TestMetricsEndpoint(t *testing.T) {
	reg := obs.NewRegistry()
	ts := httptest.NewServer(newServer(t, registry.Config{Framework: registry.FrameworkSWR, Size: 50, D: 3, Ell: 4}, WithMetrics(reg)).Handler())
	defer ts.Close()

	var b strings.Builder
	b.WriteString(`{"updates":[`)
	for i := 0; i < 30; i++ {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, `{"row":[%d,1,0],"t":%d}`, i%3, i)
	}
	b.WriteString("]}")
	postJSON(t, ts.URL+"/v2/tenants/default/rows", b.String()).Body.Close()
	http.Get(ts.URL + "/v2/tenants/default/approximation?t=29")
	// A named tenant is timed by the same steps, under its framework.
	doReq(t, "PUT", ts.URL+"/v2/tenants/fleet", lmTenantCfg).Body.Close()
	postJSON(t, ts.URL+"/v2/tenants/fleet/rows", `{"updates":[{"row":[1,2,3],"t":1},{"row":[0,1,0],"t":2}]}`).Body.Close()
	http.Get(ts.URL + "/v2/tenants/fleet/pca")

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	out := string(body)
	for _, want := range []string{
		`swsketch_ingest_rows_total{algo="SWR"} 30`,
		`swsketch_ingest_batches_total{algo="SWR"} 1`,
		`swsketch_update_seconds_count{algo="SWR"} 1`,
		`swsketch_query_seconds_count{algo="SWR"} 1`,
		`swsketch_ingest_rows_total{algo="LM-FD"} 2`,
		`swsketch_update_seconds_count{algo="LM-FD"} 1`,
		`swsketch_query_seconds_count{algo="LM-FD"} 1`,
		`swsketch_registry_tenant_rows{tenant="default"}`,
		`swsketch_internal{algo="SWR",stat="candidates"}`,
		`swsketch_internal{algo="SWR",stat="queues"} 4`,
		`swsketch_http_requests_total{code="200",route="/v2/tenants/{id}/rows"} 2`,
		`swsketch_http_request_seconds_count{route="/v2/tenants/{id}/rows"} 2`,
		"# TYPE swsketch_update_seconds histogram",
		`swsketch_update_seconds_bucket{algo="SWR",le="+Inf"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics missing %q:\n%s", want, out)
		}
	}

	// Wrong method on /metrics gets the envelope too.
	r2 := postJSON(t, ts.URL+"/metrics", "{}")
	if r2.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /metrics status %d", r2.StatusCode)
	}
	if e := decodeError(t, r2); e.Code != CodeMethodNotAllowed {
		t.Fatalf("code = %q", e.Code)
	}
}

// TestMetricsConcurrentTenants drives three LM-FD tenants (the default
// among them) and an SWR tenant from one goroutine each while another
// scrapes /metrics: each framework's instruments are registered once
// on first use, and its counts add up over its tenants.
func TestMetricsConcurrentTenants(t *testing.T) {
	reg := obs.NewRegistry()
	h := newServer(t, lmCfg(3), WithMetrics(reg)).Handler()
	serve := func(method, url, body string) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, url, strings.NewReader(body)))
		return rec.Code
	}
	for id, cfg := range map[string]string{"a": lmTenantCfg, "b": lmTenantCfg, "c": `{"framework":"swr","size":50,"d":3,"ell":4}`} {
		if code := serve("PUT", "/v2/tenants/"+id, cfg); code != http.StatusCreated {
			t.Fatalf("create %s: status %d", id, code)
		}
	}
	var wg sync.WaitGroup
	for _, id := range []string{"default", "a", "b", "c"} {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				body := fmt.Sprintf(`{"updates":[{"row":[1,%d,0],"t":%d}]}`, i, i)
				if code := serve("POST", "/v2/tenants/"+id+"/rows", body); code != http.StatusOK {
					t.Errorf("%s: ingest status %d", id, code)
				}
				if code := serve("GET", "/v2/tenants/"+id+"/approximation", ""); code != http.StatusOK {
					t.Errorf("%s: read status %d", id, code)
				}
			}
		}(id)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			serve("GET", "/metrics", "")
		}
	}()
	wg.Wait()
	out := reg.Expose()
	for _, want := range []string{
		`swsketch_ingest_rows_total{algo="LM-FD"} 60`,
		`swsketch_ingest_batches_total{algo="LM-FD"} 60`,
		`swsketch_query_seconds_count{algo="LM-FD"} 60`,
		`swsketch_ingest_rows_total{algo="SWR"} 20`,
		`swsketch_update_seconds_count{algo="SWR"} 20`,
		`swsketch_query_seconds_count{algo="SWR"} 20`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestMetricsInstrumentationIsTransparent checks the instrumented
// server answers queries exactly like a bare one over the same stream.
func TestMetricsInstrumentationIsTransparent(t *testing.T) {
	mk := func(opts ...Option) *httptest.Server {
		return httptest.NewServer(newServer(t, registry.Config{Framework: registry.FrameworkSWOR, Size: 40, D: 3, Ell: 4, Seed: 9}, opts...).Handler())
	}
	bare := mk()
	defer bare.Close()
	inst := mk(WithMetrics(obs.NewRegistry()))
	defer inst.Close()

	var b strings.Builder
	b.WriteString(`{"updates":[`)
	for i := 0; i < 80; i++ {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, `{"row":[%d,%d,1],"t":%d}`, i%5, i%2, i)
	}
	b.WriteString("]}")
	for _, ts := range []*httptest.Server{bare, inst} {
		postJSON(t, ts.URL+"/v2/tenants/default/rows", b.String()).Body.Close()
	}

	get := func(ts *httptest.Server) approximationResponse {
		resp, err := http.Get(ts.URL + "/v2/tenants/default/approximation?t=79")
		if err != nil {
			t.Fatal(err)
		}
		var ar approximationResponse
		decode(t, resp, &ar)
		return ar
	}
	a, bb := get(bare), get(inst)
	if len(a.Rows) != len(bb.Rows) {
		t.Fatalf("rows %d vs %d", len(a.Rows), len(bb.Rows))
	}
	for i := range a.Rows {
		for j := range a.Rows[i] {
			if a.Rows[i][j] != bb.Rows[i][j] {
				t.Fatalf("row %d differs: %v vs %v", i, a.Rows[i], bb.Rows[i])
			}
		}
	}
}

func TestInstrumentedSnapshotStillWorks(t *testing.T) {
	// Metrics must not hide the snapshot capability of the tenant's
	// sketch.
	reg := obs.NewRegistry()
	ts := httptest.NewServer(newServer(t, lmCfg(3), WithMetrics(reg)).Handler())
	defer ts.Close()
	postJSON(t, ts.URL+"/v2/tenants/default/rows", `{"updates":[{"row":[1,2,3],"t":0}]}`).Body.Close()
	resp, err := http.Get(ts.URL + "/v2/tenants/default/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("instrumented snapshot status %d", resp.StatusCode)
	}
}

func TestWithPprofMountsProfiles(t *testing.T) {
	srv := newServer(t, lmCfg(3), WithPprof())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("pprof cmdline status %d", resp.StatusCode)
	}

	// Without the option the route 404s with the envelope.
	ts2 := httptest.NewServer(newServer(t, lmCfg(3)).Handler())
	defer ts2.Close()
	r2, err := http.Get(ts2.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	if r2.StatusCode != http.StatusNotFound {
		t.Fatalf("unmounted pprof status %d", r2.StatusCode)
	}
	r2.Body.Close()
}

// discardWriter is a ResponseWriter that keeps only its header map.
type discardWriter struct{ h http.Header }

func (w discardWriter) Header() http.Header       { return w.h }
func (discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (discardWriter) WriteHeader(int)             {}

// TestWrapCachesRequestCounters: with metrics on, a request to a route
// that already answered its status code looks nothing up in the
// registry. What the wrapper still allocates is its own: the request
// ID's digits and string, its header value, and the status writer.
func TestWrapCachesRequestCounters(t *testing.T) {
	reg := obs.NewRegistry()
	s := newServer(t, lmCfg(3), WithMetrics(reg))
	h := s.wrap("/probe", func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(http.StatusNotFound) })
	w, req := discardWriter{h: http.Header{}}, httptest.NewRequest("GET", "/probe", nil)
	h(w, req)
	if allocs := testing.AllocsPerRun(200, func() { h(w, req) }); allocs > 4 {
		t.Fatalf("a wrapped request allocates %v times, want at most 4", allocs)
	}
	var b strings.Builder
	reg.WritePrometheus(&b)
	if want := `swsketch_http_requests_total{code="404",route="/probe"} 202`; !strings.Contains(b.String(), want) {
		t.Fatalf("metrics lack %q", want)
	}
}
