package serve

// Tests for the route grammar — the retired /v1 prefix and the
// migration table that maps it onto /v2 — and for the streaming ingest
// plane, including its error-schema conformance with bulk ingest.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"swsketch/internal/binenc"
	"swsketch/internal/registry"
)

// lmCfg is the tests' default tenant: an LM-FD over a 100-row window,
// ℓ 8, b 4, with rows d wide.
func lmCfg(d int) registry.Config {
	return registry.Config{Framework: registry.FrameworkLMFD, Size: 100, D: d, Ell: 8, B: 4}
}

// newServer is NewServer for a config that builds.
func newServer(t testing.TB, cfg registry.Config, opts ...Option) *Server {
	t.Helper()
	s, err := NewServer(cfg, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestV1Gone: the retired /v1 grammar answers 410 with the gone
// envelope on data and tenant routes alike, and nothing reaches a
// sketch.
func TestV1Gone(t *testing.T) {
	ts, done := newTestServer(t)
	defer done()
	wantGone(t, do(t, "POST", ts.URL+"/v1/ingest", `{"updates":[{"row":[1,0,0],"t":1}]}`))
	wantGone(t, do(t, "GET", ts.URL+"/v1/tenants/x/pca", ""))

	var st statsResponse
	decode(t, do(t, "GET", ts.URL+"/v2/tenants/default/stats", ""), &st)
	if st.Updates != 0 {
		t.Fatalf("a /v1 ingest reached the default tenant: %+v", st)
	}
}

// TestV2RoutesMirrorV1 checks the migration table in docs/API.md — the
// one map from each retired /v1 route to its successor, which the 410
// message points at — against the mux: every successor it names is
// served under every method it lists.
func TestV2RoutesMirrorV1(t *testing.T) {
	doc, err := os.ReadFile("../../docs/API.md")
	if err != nil {
		t.Fatal(err)
	}
	sec := string(doc)
	i := strings.Index(sec, "\n## Migrating from /v1\n")
	if i < 0 {
		t.Fatal(`docs/API.md has no "Migrating from /v1" section`)
	}
	sec = sec[i+1:]
	if j := strings.Index(sec, "\n## "); j >= 0 {
		sec = sec[:j]
	}

	ts, done := newTestServer(t)
	defer done()
	mapped := 0
	for _, line := range strings.Split(sec, "\n") {
		// | Methods | `/v1` path | `/v2` path | Change |
		cols := strings.Split(line, "|")
		if len(cols) < 5 || !strings.HasPrefix(strings.TrimSpace(cols[2]), "`/v1/") {
			continue
		}
		path := strings.ReplaceAll(strings.Trim(strings.TrimSpace(cols[3]), "`"), "{id}", DefaultTenant)
		for _, m := range strings.Split(cols[1], ",") {
			m = strings.TrimSpace(m)
			resp := do(t, m, ts.URL+path, "")
			resp.Body.Close()
			if resp.StatusCode == http.StatusNotFound || resp.StatusCode == http.StatusMethodNotAllowed {
				t.Errorf("%s %s, the successor of %s, answers %d", m, path, strings.TrimSpace(cols[2]), resp.StatusCode)
			}
			mapped++
		}
	}
	// The /v1 grammar registered 21 method+path routes.
	if mapped != 21 {
		t.Fatalf("migration table maps %d /v1 routes, want 21", mapped)
	}
}

// streamPost opens a stream request with a fixed body and returns the
// decoded ack lines.
func streamPost(t *testing.T, url, contentType string, body []byte) (*http.Response, []itemResult) {
	t.Helper()
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var acks []itemResult
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var res itemResult
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			t.Fatalf("bad ack line %q: %v", sc.Text(), err)
		}
		acks = append(acks, res)
	}
	return resp, acks
}

// TestV2BulkEnvelope: POST /v2/rows answers one result per item, each
// carrying its index and tenant id, with failures in the shared
// {"code","message"} error body.
func TestV2BulkEnvelope(t *testing.T) {
	ts, done := newTestServer(t)
	defer done()
	resp := postJSON(t, ts.URL+"/v2/rows", `{"tenants":[
		{"id":"default","updates":[{"row":[1,0,0],"t":1}]},
		{"id":"ghost","updates":[{"row":[1],"t":1}]},
		{"id":"default","updates":[{"row":[1,0],"t":2}]}
	]}`)
	if resp.StatusCode != 200 {
		t.Fatalf("v2 bulk status %d", resp.StatusCode)
	}
	var br bulkResponse
	decode(t, resp, &br)
	if len(br.Results) != 3 {
		t.Fatalf("v2 bulk results %+v", br)
	}
	if r := br.Results[0]; r.Index != 0 || r.ID != "default" || r.Accepted != 1 || r.Error != nil {
		t.Fatalf("result 0: %+v", r)
	}
	if r := br.Results[1]; r.Index != 1 || r.Error == nil || r.Error.Code != CodeNotFound {
		t.Fatalf("result 1: %+v", r)
	}
	if r := br.Results[2]; r.Index != 2 || r.Error == nil || r.Error.Code != CodeInvalidArgument {
		t.Fatalf("result 2: %+v", r)
	}
}

// TestStreamNDJSON: updates stream in as NDJSON lines; blank lines
// flush blocks; each block is acked with an itemResult line.
func TestStreamNDJSON(t *testing.T) {
	ts, done := newTestServer(t)
	defer done()
	var b strings.Builder
	for i := 0; i < 5; i++ {
		fmt.Fprintf(&b, `{"row":[%d,1,0],"t":%d}`+"\n", i, i)
	}
	b.WriteString("\n") // flush block 0
	for i := 5; i < 8; i++ {
		fmt.Fprintf(&b, `{"row":[%d,1,0],"t":%d}`+"\n", i, i)
	}
	resp, acks := streamPost(t, ts.URL+"/v2/tenants/default/stream",
		ContentTypeNDJSON, []byte(b.String()))
	if resp.StatusCode != 200 {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	if len(acks) != 2 {
		t.Fatalf("acks %+v", acks)
	}
	if acks[0].Index != 0 || acks[0].Accepted != 5 || acks[0].LastT != 4 || acks[0].Error != nil {
		t.Fatalf("ack 0: %+v", acks[0])
	}
	if acks[1].Index != 1 || acks[1].Accepted != 3 || acks[1].LastT != 7 {
		t.Fatalf("ack 1: %+v", acks[1])
	}
	// The stream landed in the same sketch state batch ingest would
	// produce: stats shows all 8 updates.
	r, err := http.Get(ts.URL + "/v2/tenants/default/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st statsResponse
	decode(t, r, &st)
	if st.Updates != 8 || st.LastT != 7 {
		t.Fatalf("post-stream stats %+v", st)
	}
}

// TestStreamLinesDecodeStrictly: an NDJSON line with an unknown field
// is malformed, as on the batch route: it acks invalid_json and ends
// the stream, and nothing of its block is applied.
func TestStreamLinesDecodeStrictly(t *testing.T) {
	ts, done := newTestServer(t)
	defer done()
	body := `{"row":[1,0,0],"t":1}` + "\n\n" +
		`{"row":[0,1,0],"t":2}` + "\n" +
		`{"row":[1,0,0],"t":3,"bogus":7}` + "\n" +
		`{"row":[0,0,1],"t":4}` + "\n"
	_, acks := streamPost(t, ts.URL+"/v2/tenants/default/stream", ContentTypeNDJSON, []byte(body))
	if len(acks) != 2 || acks[0].Accepted != 1 || acks[0].Error != nil ||
		acks[1].Error == nil || acks[1].Error.Code != CodeInvalidJSON {
		t.Fatalf("acks %+v, want one accepted block, then invalid_json and the end", acks)
	}
	r, err := http.Get(ts.URL + "/v2/tenants/default/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st statsResponse
	decode(t, r, &st)
	if st.Updates != 1 || st.LastT != 1 {
		t.Fatalf("post-stream stats %+v", st)
	}
}

// encodeFrame builds one binary stream frame (length prefix included).
func encodeFrame(rows [][]float64, times []float64) []byte {
	w := binenc.NewWriter()
	w.Block(rows, times)
	payload := w.Bytes()
	out := make([]byte, 4, 4+len(payload))
	binary.LittleEndian.PutUint32(out, uint32(len(payload)))
	return append(out, payload...)
}

// TestStreamBinaryFrames: the binenc framing applies blocks and acks
// with the same envelope as NDJSON mode.
func TestStreamBinaryFrames(t *testing.T) {
	ts, done := newTestServer(t)
	defer done()
	body := encodeFrame([][]float64{{1, 0, 0}, {0, 1, 0}}, []float64{1, 2})
	body = append(body, encodeFrame([][]float64{{0, 0, 1}}, []float64{3})...)
	resp, acks := streamPost(t, ts.URL+"/v2/tenants/default/stream",
		ContentTypeFrames, body)
	if resp.StatusCode != 200 {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	if len(acks) != 2 || acks[0].Accepted != 2 || acks[1].Accepted != 1 || acks[1].Index != 1 {
		t.Fatalf("acks %+v", acks)
	}
	r, err := http.Get(ts.URL + "/v2/tenants/default/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st statsResponse
	decode(t, r, &st)
	if st.Updates != 3 || st.LastT != 3 {
		t.Fatalf("post-stream stats %+v", st)
	}
}

// TestStreamBadFrame: a frame whose length prefix exceeds the payload
// fails with an error ack and closes the stream without touching state.
func TestStreamBadFrame(t *testing.T) {
	ts, done := newTestServer(t)
	defer done()
	// Claims a million-row block backed by a few bytes.
	w := binenc.NewWriter()
	w.Int(1 << 20)
	w.Int(3)
	w.F64(1)
	payload := w.Bytes()
	body := make([]byte, 4, 4+len(payload))
	binary.LittleEndian.PutUint32(body, uint32(len(payload)))
	body = append(body, payload...)
	_, acks := streamPost(t, ts.URL+"/v2/tenants/default/stream", ContentTypeFrames, body)
	if len(acks) != 1 || acks[0].Error == nil || acks[0].Error.Code != CodeInvalidArgument {
		t.Fatalf("acks %+v", acks)
	}
}

// TestStreamErrorAckMatchesBulkEnvelope is the cross-endpoint
// conformance check: the same bad update produces structurally
// identical per-item errors from /v2/rows and the stream ack.
func TestStreamErrorAckMatchesBulkEnvelope(t *testing.T) {
	ts, done := newTestServer(t)
	defer done()

	// Wrong row dimension via bulk.
	resp := postJSON(t, ts.URL+"/v2/rows",
		`{"tenants":[{"id":"default","updates":[{"row":[1],"t":1}]}]}`)
	var br bulkResponse
	decode(t, resp, &br)

	// The same bad update via the stream.
	_, acks := streamPost(t, ts.URL+"/v2/tenants/default/stream",
		ContentTypeNDJSON, []byte(`{"row":[1],"t":1}`+"\n"))

	if len(br.Results) != 1 || len(acks) != 1 {
		t.Fatalf("bulk %+v stream %+v", br.Results, acks)
	}
	be, se := br.Results[0].Error, acks[0].Error
	if be == nil || se == nil {
		t.Fatalf("missing errors: bulk %+v stream %+v", br.Results[0], acks[0])
	}
	if be.Code != se.Code {
		t.Fatalf("code mismatch: bulk %q stream %q", be.Code, se.Code)
	}
	if be.Message != se.Message {
		t.Fatalf("message mismatch: bulk %q stream %q", be.Message, se.Message)
	}
	// Both marshal to the identical JSON shape.
	bj, _ := json.Marshal(be)
	sj, _ := json.Marshal(se)
	if !bytes.Equal(bj, sj) {
		t.Fatalf("envelope mismatch: %s vs %s", bj, sj)
	}
}

// TestStreamBackpressure: a tenant with an exhausted in-flight budget
// refuses a stream open with 429 + Retry-After.
func TestStreamBackpressure(t *testing.T) {
	s := newServer(t, lmCfg(3), WithStreamQueue(2))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Exhaust the default tenant's budget out-of-band.
	def, _ := s.Registry().Get(DefaultTenant)
	if !def.TryEnqueue(2) || !def.TryEnqueue(2) {
		t.Fatal("could not saturate the gate")
	}
	defer func() { def.Dequeue(); def.Dequeue() }()

	resp, err := http.Post(ts.URL+"/v2/tenants/default/stream", ContentTypeNDJSON,
		strings.NewReader(`{"row":[1,0,0],"t":1}`+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated stream open status %d", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("no Retry-After header on shed stream")
	}
	var er errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	if er.Error.Code != CodeOverloaded {
		t.Fatalf("shed code %q", er.Error.Code)
	}
}

// TestStreamUnsupportedContentType rejects unknown stream encodings up
// front.
func TestStreamUnsupportedContentType(t *testing.T) {
	ts, done := newTestServer(t)
	defer done()
	resp, err := http.Post(ts.URL+"/v2/tenants/default/stream", "text/csv",
		strings.NewReader("1,2,3\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Fatalf("csv stream status %d", resp.StatusCode)
	}
}
