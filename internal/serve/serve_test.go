package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func newTestServer(t *testing.T) (*httptest.Server, func()) {
	t.Helper()
	ts := httptest.NewServer(newServer(t, lmCfg(3)).Handler())
	return ts, ts.Close
}

func postJSON(t *testing.T, url string, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decode(t *testing.T, resp *http.Response, v interface{}) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

func TestIngestAndQueryRoundTrip(t *testing.T) {
	ts, done := newTestServer(t)
	defer done()

	var b strings.Builder
	b.WriteString(`{"updates":[`)
	for i := 0; i < 50; i++ {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, `{"row":[%d,1,0],"t":%d}`, i%3, i)
	}
	b.WriteString("]}")
	resp := postJSON(t, ts.URL+"/v2/tenants/default/rows", b.String())
	if resp.StatusCode != 200 {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	var ir ingestResponse
	decode(t, resp, &ir)
	if ir.Accepted != 50 || ir.LastT != 49 {
		t.Fatalf("ingest response %+v", ir)
	}

	resp, err := http.Get(ts.URL + "/v2/tenants/default/approximation?t=49")
	if err != nil {
		t.Fatal(err)
	}
	var ar approximationResponse
	decode(t, resp, &ar)
	if len(ar.Rows) == 0 || len(ar.Rows[0]) != 3 {
		t.Fatalf("approximation %+v", ar)
	}
}

func TestQueryDefaultsToLastTimestamp(t *testing.T) {
	ts, done := newTestServer(t)
	defer done()
	postJSON(t, ts.URL+"/v2/tenants/default/rows", `{"updates":[{"row":[1,0,0],"t":7}]}`).Body.Close()
	resp, err := http.Get(ts.URL + "/v2/tenants/default/approximation")
	if err != nil {
		t.Fatal(err)
	}
	var ar approximationResponse
	decode(t, resp, &ar)
	if ar.T != 7 {
		t.Fatalf("default query time = %v, want 7", ar.T)
	}
}

func TestPCAEndpoint(t *testing.T) {
	ts, done := newTestServer(t)
	defer done()
	var b strings.Builder
	b.WriteString(`{"updates":[`)
	for i := 0; i < 40; i++ {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, `{"row":[0,5,0],"t":%d}`, i)
	}
	b.WriteString("]}")
	postJSON(t, ts.URL+"/v2/tenants/default/rows", b.String()).Body.Close()

	resp, err := http.Get(ts.URL + "/v2/tenants/default/pca?k=1")
	if err != nil {
		t.Fatal(err)
	}
	var pr pcaResponse
	decode(t, resp, &pr)
	if len(pr.Components) != 1 || len(pr.Components[0]) != 3 {
		t.Fatalf("pca %+v", pr)
	}
	// Dominant direction must be ±e₁.
	c := pr.Components[0]
	if c[1]*c[1] < 0.99 {
		t.Fatalf("dominant component %v, want ±e₁", c)
	}
	if pr.Explained[0] < 0.99 {
		t.Fatalf("explained %v", pr.Explained)
	}
}

func TestPCAEmptySketch(t *testing.T) {
	ts, done := newTestServer(t)
	defer done()
	resp, err := http.Get(ts.URL + "/v2/tenants/default/pca")
	if err != nil {
		t.Fatal(err)
	}
	var pr pcaResponse
	decode(t, resp, &pr)
	if len(pr.Components) != 0 {
		t.Fatalf("empty sketch pca %+v", pr)
	}
}

func TestStats(t *testing.T) {
	ts, done := newTestServer(t)
	defer done()
	postJSON(t, ts.URL+"/v2/tenants/default/rows", `{"updates":[{"row":[1,2,3],"t":1}]}`).Body.Close()
	resp, err := http.Get(ts.URL + "/v2/tenants/default/stats")
	if err != nil {
		t.Fatal(err)
	}
	var sr statsResponse
	decode(t, resp, &sr)
	if sr.Algorithm != "LM-FD" || sr.Dimension != 3 || sr.Updates != 1 {
		t.Fatalf("stats %+v", sr)
	}
}

func TestHealthz(t *testing.T) {
	ts, done := newTestServer(t)
	defer done()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
}

func TestIngestValidation(t *testing.T) {
	ts, done := newTestServer(t)
	defer done()
	for name, body := range map[string]string{
		"bad json":      `{`,
		"empty":         `{"updates":[]}`,
		"wrong dim":     `{"updates":[{"row":[1,2],"t":0}]}`,
		"unknown field": `{"updates":[{"row":[1,2,3],"t":0,"x":1}]}`,
		"nan-like":      `{"updates":[{"row":[1,2,1e309],"t":0}]}`,
		"out of order":  `{"updates":[{"row":[1,2,3],"t":5},{"row":[1,2,3],"t":4}]}`,
	} {
		resp := postJSON(t, ts.URL+"/v2/tenants/default/rows", body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

func TestBadBatchIsAtomic(t *testing.T) {
	ts, done := newTestServer(t)
	defer done()
	// Second update is invalid: nothing from the batch may land.
	resp := postJSON(t, ts.URL+"/v2/tenants/default/rows",
		`{"updates":[{"row":[1,2,3],"t":0},{"row":[1],"t":1}]}`)
	resp.Body.Close()
	r2, err := http.Get(ts.URL + "/v2/tenants/default/stats")
	if err != nil {
		t.Fatal(err)
	}
	var sr statsResponse
	decode(t, r2, &sr)
	if sr.Updates != 0 {
		t.Fatalf("partial batch applied: %d updates", sr.Updates)
	}
}

func TestMethodEnforcement(t *testing.T) {
	ts, done := newTestServer(t)
	defer done()
	resp, err := http.Get(ts.URL + "/v2/tenants/default/rows")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET ingest status %d", resp.StatusCode)
	}
	resp = postJSON(t, ts.URL+"/v2/tenants/default/stats", "{}")
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST stats status %d", resp.StatusCode)
	}
}

func TestQueryBeforeLastIngestRejected(t *testing.T) {
	ts, done := newTestServer(t)
	defer done()
	postJSON(t, ts.URL+"/v2/tenants/default/rows", `{"updates":[{"row":[1,2,3],"t":10}]}`).Body.Close()
	resp, err := http.Get(ts.URL + "/v2/tenants/default/approximation?t=5")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("stale query status %d", resp.StatusCode)
	}
}

func TestBadTimeAndK(t *testing.T) {
	ts, done := newTestServer(t)
	defer done()
	for _, path := range []string{"/v2/tenants/default/approximation?t=abc", "/v2/tenants/default/pca?k=abc", "/v2/tenants/default/pca?k=0"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
	}
}

func TestSnapshotRoundTripOverHTTP(t *testing.T) {
	ts, done := newTestServer(t)
	defer done()
	postJSON(t, ts.URL+"/v2/tenants/default/rows", `{"updates":[{"row":[1,2,3],"t":0},{"row":[4,5,6],"t":1}]}`).Body.Close()

	resp, err := http.Get(ts.URL + "/v2/tenants/default/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	snap := new(bytes.Buffer)
	if _, err := snap.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || snap.Len() == 0 {
		t.Fatalf("snapshot status %d, %d bytes", resp.StatusCode, snap.Len())
	}

	// Restore into a fresh server and compare answers.
	ts2, done2 := newTestServer(t)
	defer done2()
	r2, err := http.Post(ts2.URL+"/v2/tenants/default/snapshot", "application/octet-stream", bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != 200 {
		t.Fatalf("restore status %d", r2.StatusCode)
	}
	ra, err := http.Get(ts2.URL + "/v2/tenants/default/approximation?t=1")
	if err != nil {
		t.Fatal(err)
	}
	var ar approximationResponse
	decode(t, ra, &ar)
	if len(ar.Rows) != 2 {
		t.Fatalf("restored approximation rows = %d, want 2", len(ar.Rows))
	}
}

func TestSnapshotRestoreRejectsGarbage(t *testing.T) {
	ts, done := newTestServer(t)
	defer done()
	resp, err := http.Post(ts.URL+"/v2/tenants/default/snapshot", "application/octet-stream", bytes.NewBufferString("junk"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage restore status %d", resp.StatusCode)
	}
}

func TestIngestSparseForm(t *testing.T) {
	ts, done := newTestServer(t)
	defer done()
	resp := postJSON(t, ts.URL+"/v2/tenants/default/rows",
		`{"updates":[{"idx":[0,2],"val":[3,4],"t":0},{"row":[1,1,1],"t":1}]}`)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("sparse ingest status %d", resp.StatusCode)
	}
	ra, err := http.Get(ts.URL + "/v2/tenants/default/approximation?t=1")
	if err != nil {
		t.Fatal(err)
	}
	var ar approximationResponse
	decode(t, ra, &ar)
	if len(ar.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(ar.Rows))
	}
	// The sparse row must have materialised correctly.
	var mass float64
	for _, r := range ar.Rows {
		for _, v := range r {
			mass += v * v
		}
	}
	if mass < 27.9 || mass > 28.1 { // 9+16+3
		t.Fatalf("ingested mass = %v, want 28", mass)
	}
}

func TestIngestSparseValidation(t *testing.T) {
	ts, done := newTestServer(t)
	defer done()
	for name, body := range map[string]string{
		"both forms":    `{"updates":[{"row":[1,2,3],"idx":[0],"val":[1],"t":0}]}`,
		"len mismatch":  `{"updates":[{"idx":[0,1],"val":[1],"t":0}]}`,
		"oob index":     `{"updates":[{"idx":[5],"val":[1],"t":0}]}`,
		"unsorted":      `{"updates":[{"idx":[2,1],"val":[1,1],"t":0}]}`,
		"nan-ish value": `{"updates":[{"idx":[0],"val":[1e309],"t":0}]}`,
	} {
		resp := postJSON(t, ts.URL+"/v2/tenants/default/rows", body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

func TestIngestAfterRestoreWithStaleTimestamp(t *testing.T) {
	// The restored sketch brings its clock along; a stale ingest must
	// come back as 400, not a dropped connection.
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

	resp := postJSON(t, ts2.URL+"/v2/tenants/default/rows", `{"updates":[{"row":[1,2,3],"t":5}]}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("stale post-restore ingest status %d, want 400", resp.StatusCode)
	}
	// A forward timestamp is accepted.
	resp = postJSON(t, ts2.URL+"/v2/tenants/default/rows", `{"updates":[{"row":[1,2,3],"t":200}]}`)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("forward post-restore ingest status %d", resp.StatusCode)
	}
}
