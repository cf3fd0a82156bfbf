package serve

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"swsketch/internal/obs"
	"swsketch/internal/trace"
)

// newMatrixServer mounts every optional route (metrics, trace, pprof)
// with a small body cap so the full route × failure matrix is
// exercisable against one server.
func newMatrixServer(t *testing.T) (*httptest.Server, func()) {
	t.Helper()
	tr := trace.New(256)
	srv := newServer(t, lmCfg(3),
		WithMetrics(obs.NewRegistry()),
		WithTrace(tr),
		WithPprof(),
		WithMaxBody(1024),
	)
	ts := httptest.NewServer(srv.Handler())
	return ts, ts.Close
}

func do(t *testing.T, method, url, body string) *http.Response {
	t.Helper()
	var rd *strings.Reader
	if body == "" {
		rd = strings.NewReader("")
	} else {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// wantEnvelope asserts a response is the machine-readable error
// envelope with the given status and code, and returns its body.
func wantEnvelope(t *testing.T, resp *http.Response, status int, code string) errorBody {
	t.Helper()
	if resp.StatusCode != status {
		t.Errorf("status %d, want %d", resp.StatusCode, status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type %q, want application/json", ct)
	}
	var er errorResponse
	decode(t, resp, &er)
	if er.Error.Code != code {
		t.Errorf("code %q, want %q", er.Error.Code, code)
	}
	if er.Error.Message == "" {
		t.Error("empty envelope message")
	}
	return er.Error
}

// wantGone asserts the 410 envelope of the retired /v1 grammar, whose
// message must send the client to /v2 and the migration table.
func wantGone(t *testing.T, resp *http.Response) {
	t.Helper()
	eb := wantEnvelope(t, resp, http.StatusGone, CodeGone)
	if !strings.Contains(eb.Message, "/v2") || !strings.Contains(eb.Message, "docs/API.md") {
		t.Errorf("gone message %q names no successor", eb.Message)
	}
}

// TestErrorEnvelopeMethodMatrix hits every route with methods it does
// not allow; each must answer the 405 envelope with an Allow header
// naming the methods it does. Paths of the retired /v1 grammar answer
// the 410 envelope whatever the method.
func TestErrorEnvelopeMethodMatrix(t *testing.T) {
	ts, done := newMatrixServer(t)
	defer done()

	routes := []struct {
		path  string
		allow []string
	}{
		{"/v2/tenants", []string{"GET"}},
		{"/v2/tenants/default", []string{"GET", "PUT", "DELETE"}},
		{"/v2/tenants/default/rows", []string{"POST"}},
		{"/v2/tenants/default/stream", []string{"POST"}},
		{"/v2/tenants/default/approximation", []string{"GET"}},
		{"/v2/tenants/default/amm", []string{"GET", "POST"}},
		{"/v2/tenants/default/pca", []string{"GET"}},
		{"/v2/tenants/default/stats", []string{"GET"}},
		{"/v2/tenants/default/health", []string{"GET"}},
		{"/v2/tenants/default/snapshot", []string{"GET", "POST"}},
		{"/v2/rows", []string{"POST"}},
		{"/v2/health", []string{"GET"}},
		{"/healthz", []string{"GET"}},
		{"/metrics", []string{"GET"}},
		{"/debug/trace", []string{"GET"}},
	}
	methods := []string{"GET", "POST", "PUT", "DELETE", "PATCH"}

	allowed := func(m string, allow []string) bool {
		for _, a := range allow {
			if a == m {
				return true
			}
		}
		return false
	}

	for _, rt := range routes {
		for _, m := range methods {
			if allowed(m, rt.allow) {
				continue
			}
			t.Run(m+" "+rt.path, func(t *testing.T) {
				resp := do(t, m, ts.URL+rt.path, "")
				wantEnvelope(t, resp, http.StatusMethodNotAllowed, CodeMethodNotAllowed)
				got := resp.Header.Get("Allow")
				for _, a := range rt.allow {
					if !strings.Contains(got, a) {
						t.Errorf("Allow %q missing %s", got, a)
					}
				}
			})
		}
	}
	for _, path := range []string{"/v1/ingest", "/v1/approximation", "/v1/pca", "/v1/stats", "/v1/health", "/v1/snapshot"} {
		for _, m := range methods {
			t.Run(m+" "+path, func(t *testing.T) {
				wantGone(t, do(t, m, ts.URL+path, ""))
			})
		}
	}
}

// TestErrorEnvelopeOversizedBody checks the 413 envelope on every
// route that decodes a request body under the WithMaxBody cap.
func TestErrorEnvelopeOversizedBody(t *testing.T) {
	ts, done := newMatrixServer(t)
	defer done()

	big := strings.Repeat("x", 2048) // cap is 1024
	for _, c := range []struct {
		name, method, path, body string
	}{
		{"ingest", "POST", "/v2/tenants/default/rows", `{"updates":[{"row":[1,2,3],"t":0,"pad":"` + big + `"}]}`},
		{"bulk", "POST", "/v2/rows", `{"tenants":[{"id":"default","pad":"` + big + `"}]}`},
		{"tenant create", "PUT", "/v2/tenants/fresh", `{"framework":"lm-fd","pad":"` + big + `"}`},
		{"snapshot", "POST", "/v2/tenants/default/snapshot", big},
	} {
		t.Run(c.name, func(t *testing.T) {
			resp := do(t, c.method, ts.URL+c.path, c.body)
			wantEnvelope(t, resp, http.StatusRequestEntityTooLarge, CodeBodyTooLarge)
		})
	}
}

// TestErrorEnvelopeMalformedBody checks the 400 envelopes: JSON routes
// answer invalid_json for syntax errors and invalid_argument for
// schema violations; the binary snapshot route answers
// invalid_argument for garbage.
func TestErrorEnvelopeMalformedBody(t *testing.T) {
	ts, done := newMatrixServer(t)
	defer done()

	cases := []struct {
		name   string
		method string
		path   string
		body   string
		code   string
	}{
		{"ingest syntax", "POST", "/v2/tenants/default/rows", `{"updates":`, CodeInvalidJSON},
		{"ingest not json", "POST", "/v2/tenants/default/rows", `not json at all`, CodeInvalidJSON},
		{"ingest unknown field", "POST", "/v2/tenants/default/rows", `{"upd":[]}`, CodeInvalidJSON},
		{"ingest empty batch", "POST", "/v2/tenants/default/rows", `{"updates":[]}`, CodeInvalidArgument},
		{"ingest bad row", "POST", "/v2/tenants/default/rows", `{"updates":[{"row":[1],"t":0}]}`, CodeInvalidArgument},
		{"bulk syntax", "POST", "/v2/rows", `{"tenants":`, CodeInvalidJSON},
		{"bulk unknown field", "POST", "/v2/rows", `{"tenants":[{"id":"default","rows":[]}]}`, CodeInvalidJSON},
		{"bulk empty", "POST", "/v2/rows", `{"tenants":[]}`, CodeInvalidArgument},
		{"tenant create syntax", "PUT", "/v2/tenants/fresh", `{"framework":`, CodeInvalidJSON},
		{"tenant create bad config", "PUT", "/v2/tenants/fresh", `{"framework":"nope","size":10,"d":3}`, CodeInvalidArgument},
		{"snapshot garbage", "POST", "/v2/tenants/default/snapshot", "garbage", CodeInvalidArgument},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp := do(t, c.method, ts.URL+c.path, c.body)
			wantEnvelope(t, resp, http.StatusBadRequest, c.code)
		})
	}
}

// TestErrorEnvelopeUnknownRoutes checks the catch-all envelopes: 404
// for paths that never existed, 410 under the retired /v1 prefix (the
// bare /v1 redirects to /v1/).
func TestErrorEnvelopeUnknownRoutes(t *testing.T) {
	ts, done := newMatrixServer(t)
	defer done()
	for _, path := range []string{"/", "/v2/ingest"} {
		t.Run(path, func(t *testing.T) {
			resp := do(t, "GET", ts.URL+path, "")
			wantEnvelope(t, resp, http.StatusNotFound, CodeNotFound)
		})
	}
	for _, path := range []string{"/v1", "/v1/nope"} {
		t.Run(path, func(t *testing.T) {
			wantGone(t, do(t, "GET", ts.URL+path, ""))
		})
	}
}

// TestErrorEnvelopeQueryParams checks 400 envelopes on bad query
// parameters for every GET route that takes them. Under the retired
// /v1 prefix the same requests answer 410 without parsing anything.
func TestErrorEnvelopeQueryParams(t *testing.T) {
	ts, done := newMatrixServer(t)
	defer done()
	for _, path := range []string{
		"/v2/tenants/default/approximation?t=abc",
		"/v2/tenants/default/pca?t=abc",
		"/v2/tenants/default/pca?k=0",
		"/v2/tenants/default/pca?k=abc",
		"/debug/trace?format=xml",
	} {
		t.Run(path, func(t *testing.T) {
			resp := do(t, "GET", ts.URL+path, "")
			wantEnvelope(t, resp, http.StatusBadRequest, CodeInvalidArgument)
		})
	}
	for _, path := range []string{
		"/v1/approximation?t=abc",
		"/v1/pca?t=abc",
		"/v1/pca?k=0",
		"/v1/pca?k=abc",
	} {
		t.Run(path, func(t *testing.T) {
			wantGone(t, do(t, "GET", ts.URL+path, ""))
		})
	}
}
