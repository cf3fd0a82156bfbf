package serve

// Tests for the hot-key observability plane: the /debug/hotkeys
// endpoint, the ingest funnel feeding the sidecar from every entry
// point, shed/error event accounting, health surfacing, and top-K
// churn landing in the trace ring.

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"swsketch/internal/obs"
	"swsketch/internal/obs/hh"
	"swsketch/internal/trace"
)

// fetchSnapshot pulls /debug/hotkeys through the strict decoder, so
// every test doubles as a wire-schema conformance check.
func fetchSnapshot(t *testing.T, url string) *hh.Snapshot {
	t.Helper()
	resp, err := http.Get(url + "/debug/hotkeys")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/hotkeys status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := hh.DecodeSnapshot(body)
	if err != nil {
		t.Fatalf("snapshot failed its own strict decoder: %v", err)
	}
	return snap
}

// TestHotkeysIngestFunnel drives every ingest entry point — two
// batch ingests, the bulk envelope, and a binary stream — and checks
// the sidecar saw all of it, with the hot tenant's estimate at least
// the exact count and inside its ε·N bound.
func TestHotkeysIngestFunnel(t *testing.T) {
	hot := hh.New(hh.Config{Window: time.Minute, K: 8})
	tr := trace.New(256)
	tr.Enable()
	s := newServer(t, lmCfg(3), WithHotKeys(hot), WithTrace(tr))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Batch ingest: 2 rows, then 1.
	postJSON(t, ts.URL+"/v2/tenants/default/rows", `{"updates":[{"row":[1,0,0],"t":1},{"row":[0,1,0],"t":2}]}`).Body.Close()
	postJSON(t, ts.URL+"/v2/tenants/default/rows", `{"updates":[{"row":[0,0,1],"t":3}]}`).Body.Close()
	// Bulk envelope: 1 row.
	postJSON(t, ts.URL+"/v2/rows",
		`{"tenants":[{"id":"default","updates":[{"row":[1,1,0],"t":4}]}]}`).Body.Close()
	// Binary stream: one 2-row frame.
	frame := encodeFrame([][]float64{{0, 1, 2}, {3, 4, 5}}, []float64{5, 6})
	resp, err := http.Post(ts.URL+"/v2/tenants/default/stream", ContentTypeFrames,
		strings.NewReader(string(frame)))
	if err != nil {
		t.Fatal(err)
	}
	// Drain the ack: the handler observes the block before writing it,
	// so reading it orders the observation before the snapshot below.
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	snap := fetchSnapshot(t, ts.URL)
	if len(snap.TopK) != 1 {
		t.Fatalf("topk %+v, want exactly the default tenant", snap.TopK)
	}
	e := snap.TopK[0]
	if e.Tenant != DefaultTenant {
		t.Fatalf("hot tenant %q", e.Tenant)
	}
	const exact = 6 // 2 + 1 + 1 + 2 rows across the four entry points
	if e.Rows < exact || e.Rows-exact > e.Bound {
		t.Fatalf("rows estimate %d outside [%d, %d+%d]", e.Rows, exact, exact, e.Bound)
	}
	if e.Bytes < 8*3*exact {
		t.Fatalf("bytes estimate %d below the dense-equivalent floor %d", e.Bytes, 8*3*exact)
	}
	if e.Touches < 4 {
		t.Fatalf("touches %d, want ≥ 4 (one per request)", e.Touches)
	}
	if e.Events != 0 {
		t.Fatalf("events %d on a clean run", e.Events)
	}
	if snap.WindowRows != exact {
		t.Fatalf("aggregate window rows %d, want %d", snap.WindowRows, exact)
	}

	// The tenant's first observation entered the top-K tracker, and
	// that churn event is countable in the trace summary.
	sum := tr.Summarize()
	if sum.Kinds[trace.KindTopKEnter].Count == 0 {
		t.Fatalf("no %s events in trace summary %+v", trace.KindTopKEnter, sum.Kinds)
	}
}

// TestHotkeysEvents checks the error funnels: a shed stream open, a
// bad frame on an accepted stream, and a bulk item naming an unknown
// tenant all land on the events plane under the right key.
func TestHotkeysEvents(t *testing.T) {
	hot := hh.New(hh.Config{Window: time.Minute, K: 8})
	s := newServer(t, lmCfg(3), WithHotKeys(hot), WithStreamQueue(2))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Give the default tenant row volume first: the top-K tracker is
	// keyed on rows, and only tracked tenants report per-plane detail.
	postJSON(t, ts.URL+"/v2/tenants/default/rows", `{"updates":[{"row":[1,0,0],"t":1}]}`).Body.Close()

	// Saturate the default tenant's budget, then shed a stream open.
	def, _ := s.Registry().Get(DefaultTenant)
	if !def.TryEnqueue(2) || !def.TryEnqueue(2) {
		t.Fatal("could not saturate the gate")
	}
	resp, err := http.Post(ts.URL+"/v2/tenants/default/stream", ContentTypeNDJSON,
		strings.NewReader(`{"row":[1,0,0],"t":1}`+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated stream open status %d", resp.StatusCode)
	}
	def.Dequeue()
	def.Dequeue()

	// A malformed NDJSON line on an accepted stream fails the block.
	resp, err = http.Post(ts.URL+"/v2/tenants/default/stream", ContentTypeNDJSON,
		strings.NewReader("{not json\n"))
	if err != nil {
		t.Fatal(err)
	}
	// Drain the error ack, which the handler writes after recording
	// the event, so the snapshot below cannot race it.
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	// A bulk item for a tenant that does not exist.
	postJSON(t, ts.URL+"/v2/rows",
		`{"tenants":[{"id":"ghost","updates":[{"row":[1,0,0],"t":1}]}]}`).Body.Close()

	snap := fetchSnapshot(t, ts.URL)
	events := map[string]uint64{}
	for _, e := range snap.TopK {
		events[e.Tenant] = e.Events
	}
	if events[DefaultTenant] < 2 {
		t.Fatalf("default tenant events %d, want ≥ 2 (shed open + bad line): %+v", events[DefaultTenant], snap.TopK)
	}
	// The ghost tenant has no row volume, so it cannot enter the
	// top-K — but its miss still lands on the aggregate events plane.
	if snap.WindowEvents < 3 {
		t.Fatalf("aggregate window events %d, want ≥ 3 (shed + bad line + ghost miss)", snap.WindowEvents)
	}
}

// TestHotkeysHealthSurface: /v2/health carries the sidecar config when
// it is attached, and has no hotkeys key when it is not.
func TestHotkeysHealthSurface(t *testing.T) {
	hot := hh.New(hh.Config{Window: 90 * time.Second, K: 5})
	with := httptest.NewServer(newServer(t, lmCfg(3), WithHotKeys(hot)).Handler())
	defer with.Close()
	without := httptest.NewServer(newServer(t, lmCfg(3)).Handler())
	defer without.Close()

	resp, err := http.Get(with.URL + "/v2/health")
	if err != nil {
		t.Fatal(err)
	}
	var hr struct {
		HotKeys *struct {
			Enabled       bool    `json:"enabled"`
			WindowSeconds float64 `json:"window_seconds"`
			TopK          int     `json:"top_k"`
		} `json:"hotkeys"`
	}
	decode(t, resp, &hr)
	if hr.HotKeys == nil || !hr.HotKeys.Enabled || hr.HotKeys.WindowSeconds != 90 || hr.HotKeys.TopK != 5 {
		t.Fatalf("hotkeys block %+v", hr.HotKeys)
	}

	resp, err = http.Get(without.URL + "/v2/health")
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	decode(t, resp, &raw)
	if _, leaked := raw["hotkeys"]; leaked {
		t.Fatal("/v2/health advertises hotkeys with no sidecar attached")
	}

	// Without the sidecar, the debug route does not exist.
	resp, err = http.Get(without.URL + "/debug/hotkeys")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/debug/hotkeys without sidecar: status %d", resp.StatusCode)
	}
}

// TestHotkeysMetricsGauges: with WithMetrics alongside, the sidecar's
// skew gauges land in the Prometheus exposition.
func TestHotkeysMetricsGauges(t *testing.T) {
	hot := hh.New(hh.Config{Window: time.Minute, K: 8})
	s := newServer(t, lmCfg(3), WithHotKeys(hot), WithMetrics(obs.NewRegistry()))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	postJSON(t, ts.URL+"/v2/tenants/default/rows", `{"updates":[{"row":[1,0,0],"t":1}]}`).Body.Close()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{"swsketch_hotkeys", "topk_share", "window_rows"} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
}
