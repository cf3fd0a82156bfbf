package serve

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"strings"
	"testing"
	"time"

	"swsketch/internal/binenc"
	"swsketch/internal/core"
	"swsketch/internal/registry"
	"swsketch/internal/stream"
	"swsketch/internal/window"
)

// newTenantServer builds a server whose registry evicts to dir with a
// controllable clock, for evict/restore-over-HTTP tests.
func newTenantServer(t *testing.T, ropts ...registry.Option) (*httptest.Server, *Server) {
	t.Helper()
	treg, err := registry.New(ropts...)
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(t, lmCfg(3), WithRegistry(treg))
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts, s
}

func doReq(t *testing.T, method, url, body string) *http.Response {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = bytes.NewBufferString(body)
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

const lmTenantCfg = `{"framework":"lm-fd","window":"sequence","size":64,"d":3,"ell":8,"b":4}`

func TestTenantCRUD(t *testing.T) {
	ts, _ := newTenantServer(t)

	// Create.
	resp := doReq(t, "PUT", ts.URL+"/v2/tenants/alpha", lmTenantCfg)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d", resp.StatusCode)
	}
	var info tenantInfoResponse
	decode(t, resp, &info)
	if info.ID != "alpha" || info.Algorithm != "LM-FD" || info.Dimension != 3 || !info.Resident {
		t.Fatalf("create response %+v", info)
	}
	if info.Config.Framework != "lm-fd" {
		t.Fatalf("create response lacks config: %+v", info)
	}

	// Duplicate → 409 conflict.
	resp = doReq(t, "PUT", ts.URL+"/v2/tenants/alpha", lmTenantCfg)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate create status %d", resp.StatusCode)
	}
	var er errorResponse
	decode(t, resp, &er)
	if er.Error.Code != CodeConflict {
		t.Fatalf("duplicate create code %q", er.Error.Code)
	}

	// Bad config → 400 invalid_argument.
	resp = doReq(t, "PUT", ts.URL+"/v2/tenants/bad", `{"framework":"nope","size":10,"d":3}`)
	decode(t, resp, &er)
	if resp.StatusCode != 400 || er.Error.Code != CodeInvalidArgument {
		t.Fatalf("bad config: status %d code %q", resp.StatusCode, er.Error.Code)
	}

	// Bad ID charset → 400.
	resp = doReq(t, "PUT", ts.URL+"/v2/tenants/sp%20ace", lmTenantCfg)
	decode(t, resp, &er)
	if resp.StatusCode != 400 || er.Error.Code != CodeInvalidArgument {
		t.Fatalf("bad id: status %d code %q", resp.StatusCode, er.Error.Code)
	}

	// Reserved ID → 400.
	resp = doReq(t, "PUT", ts.URL+"/v2/tenants/default", lmTenantCfg)
	decode(t, resp, &er)
	if resp.StatusCode != 400 || !strings.Contains(er.Error.Message, "reserved") {
		t.Fatalf("reserved id: status %d message %q", resp.StatusCode, er.Error.Message)
	}

	// List: default + alpha, sorted.
	resp = doReq(t, "GET", ts.URL+"/v2/tenants", "")
	var list tenantListResponse
	decode(t, resp, &list)
	if len(list.Tenants) != 2 || list.Tenants[0].ID != "alpha" || list.Tenants[1].ID != "default" {
		t.Fatalf("list %+v", list)
	}
	if !list.Tenants[1].Pinned {
		t.Fatal("default tenant not pinned in list")
	}

	// Info.
	resp = doReq(t, "GET", ts.URL+"/v2/tenants/alpha", "")
	decode(t, resp, &info)
	if info.ID != "alpha" || info.Updates != 0 {
		t.Fatalf("info %+v", info)
	}

	// Unknown tenant → 404.
	resp = doReq(t, "GET", ts.URL+"/v2/tenants/ghost", "")
	decode(t, resp, &er)
	if resp.StatusCode != 404 || er.Error.Code != CodeNotFound {
		t.Fatalf("unknown info: status %d code %q", resp.StatusCode, er.Error.Code)
	}

	// Delete.
	resp = doReq(t, "DELETE", ts.URL+"/v2/tenants/alpha", "")
	if resp.StatusCode != 200 {
		t.Fatalf("delete status %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp = doReq(t, "DELETE", ts.URL+"/v2/tenants/alpha", "")
	decode(t, resp, &er)
	if resp.StatusCode != 404 {
		t.Fatalf("re-delete status %d", resp.StatusCode)
	}

	// The default tenant cannot be deleted.
	resp = doReq(t, "DELETE", ts.URL+"/v2/tenants/default", "")
	decode(t, resp, &er)
	if resp.StatusCode != 400 || er.Error.Code != CodeInvalidArgument {
		t.Fatalf("delete default: status %d code %q", resp.StatusCode, er.Error.Code)
	}
}

func TestTenantIngestAndQuery(t *testing.T) {
	ts, _ := newTenantServer(t)
	doReq(t, "PUT", ts.URL+"/v2/tenants/a", lmTenantCfg).Body.Close()
	doReq(t, "PUT", ts.URL+"/v2/tenants/b", lmTenantCfg).Body.Close()

	// Ingest different streams into a and b.
	for i := 0; i < 30; i++ {
		body := fmt.Sprintf(`{"updates":[{"row":[%d,1,0],"t":%d}]}`, i%3, i)
		resp := postJSON(t, ts.URL+"/v2/tenants/a/rows", body)
		if resp.StatusCode != 200 {
			t.Fatalf("ingest a status %d", resp.StatusCode)
		}
		resp.Body.Close()
	}
	resp := postJSON(t, ts.URL+"/v2/tenants/b/rows", `{"updates":[{"row":[5,5,5],"t":0}]}`)
	if resp.StatusCode != 200 {
		t.Fatalf("ingest b status %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Tenant clocks are independent: a's clock is at 29, b's at 0.
	var ar approximationResponse
	resp = doReq(t, "GET", ts.URL+"/v2/tenants/a/approximation", "")
	decode(t, resp, &ar)
	if ar.T != 29 || len(ar.Rows) == 0 {
		t.Fatalf("a approximation t=%v rows=%d", ar.T, len(ar.Rows))
	}
	resp = doReq(t, "GET", ts.URL+"/v2/tenants/b/approximation", "")
	decode(t, resp, &ar)
	if ar.T != 0 {
		t.Fatalf("b approximation t=%v", ar.T)
	}

	// Per-tenant stats carry the tenant fields.
	var st statsResponse
	resp = doReq(t, "GET", ts.URL+"/v2/tenants/a/stats", "")
	decode(t, resp, &st)
	if st.Tenant != "a" || st.Updates != 30 || st.Algorithm != "LM-FD" || !st.Resident {
		t.Fatalf("a stats %+v", st)
	}

	// PCA works per tenant.
	resp = doReq(t, "GET", ts.URL+"/v2/tenants/a/pca?k=2", "")
	var pr pcaResponse
	decode(t, resp, &pr)
	if len(pr.Components) == 0 {
		t.Fatalf("a pca %+v", pr)
	}

	// Tenant health does not require residency.
	var th tenantHealthResponse
	resp = doReq(t, "GET", ts.URL+"/v2/tenants/a/health", "")
	decode(t, resp, &th)
	if th.Status != "ok" || th.Tenant != "a" || th.Updates != 30 {
		t.Fatalf("a health %+v", th)
	}

	// Ingest into an unknown tenant → 404.
	resp = postJSON(t, ts.URL+"/v2/tenants/ghost/rows", `{"updates":[{"row":[1,2,3],"t":0}]}`)
	var er errorResponse
	decode(t, resp, &er)
	if resp.StatusCode != 404 || er.Error.Code != CodeNotFound {
		t.Fatalf("ghost ingest: status %d code %q", resp.StatusCode, er.Error.Code)
	}

	// Regressing timestamps rejected with the tenant's own clock.
	resp = postJSON(t, ts.URL+"/v2/tenants/a/rows", `{"updates":[{"row":[1,2,3],"t":5}]}`)
	decode(t, resp, &er)
	if resp.StatusCode != 400 || !strings.Contains(er.Error.Message, "precedes") {
		t.Fatalf("regressing ingest: status %d message %q", resp.StatusCode, er.Error.Message)
	}
}

// TestDefaultTenantAlias verifies the "default" tenant ID addresses
// the tenant NewServer builds from its config: rows posted to it
// through the per-tenant and bulk routes land in its sketch, its query
// and stats routes read it, and its summary carries the config.
func TestDefaultTenantAlias(t *testing.T) {
	s := newServer(t, lmCfg(3))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	postJSON(t, ts.URL+"/v2/tenants/default/rows", `{"updates":[{"row":[1,2,3],"t":4}]}`).Body.Close()
	postJSON(t, ts.URL+"/v2/rows",
		`{"tenants":[{"id":"default","updates":[{"row":[0,1,0],"t":9}]}]}`).Body.Close()

	var ar approximationResponse
	decode(t, doReq(t, "GET", ts.URL+"/v2/tenants/default/approximation", ""), &ar)
	var st statsResponse
	decode(t, doReq(t, "GET", ts.URL+"/v2/tenants/default/stats", ""), &st)

	// Read the sketch under the tenant's lock, as the handlers do.
	def, _ := s.Registry().Get(DefaultTenant)
	if err := def.Acquire(); err != nil {
		t.Fatal(err)
	}
	sk := def.Sketch()
	want, rows := sk.Query(9), sk.RowsStored()
	def.Release()
	if ar.T != 9 || len(ar.Rows) != want.Rows() {
		t.Fatalf("approximation t=%v rows=%d, want t=9 rows=%d", ar.T, len(ar.Rows), want.Rows())
	}
	for i, row := range ar.Rows {
		for j, v := range row {
			if v != want.At(i, j) {
				t.Fatalf("approximation (%d,%d) = %v, sketch has %v", i, j, v, want.At(i, j))
			}
		}
	}
	if st.Tenant != DefaultTenant || !st.Pinned || st.Algorithm != sk.Name() ||
		st.Updates != 2 || st.LastT != 9 || st.RowsStored != rows {
		t.Fatalf("default stats %+v", st)
	}
	var info tenantInfoResponse
	decode(t, doReq(t, "GET", ts.URL+"/v2/tenants/default", ""), &info)
	if want := lmCfg(3); info.Config.Framework != want.Framework || info.Config.D != 3 || info.Config.Ell != want.Ell {
		t.Fatalf("default summary config %+v, want %+v", info.Config, want)
	}
}

// TestBulkIngest: POST /v2/rows applies each item's batch
// all-or-nothing and independently of the other items, answering 200
// with one itemResult per item, in request order; per-item errors
// reuse the top-level error body.
func TestBulkIngest(t *testing.T) {
	ts, _ := newTenantServer(t)
	doReq(t, "PUT", ts.URL+"/v2/tenants/a", lmTenantCfg).Body.Close()
	doReq(t, "PUT", ts.URL+"/v2/tenants/b", lmTenantCfg).Body.Close()

	body := `{"tenants":[
		{"id":"a","updates":[{"row":[1,0,0],"t":1},{"row":[0,1,0],"t":2}]},
		{"id":"b","updates":[{"row":[2,2,2],"t":7}]},
		{"id":"ghost","updates":[{"row":[1,1,1],"t":1}]},
		{"id":"a","updates":[{"row":[9,9,9],"t":3},{"row":[9,9,9],"t":0}]},
		{"id":"b","updates":[{"row":[1,0],"t":8}]}
	]}`
	resp := postJSON(t, ts.URL+"/v2/rows", body)
	if resp.StatusCode != 200 {
		t.Fatalf("bulk status %d", resp.StatusCode)
	}
	var br bulkResponse
	decode(t, resp, &br)
	want := []struct {
		id       string
		accepted int
		lastT    float64
		code     string
	}{
		{"a", 2, 2, ""},
		{"b", 1, 7, ""},
		{"ghost", 0, 0, CodeNotFound},
		{"a", 0, 0, CodeInvalidArgument}, // regresses inside the batch
		{"b", 0, 0, CodeInvalidArgument}, // wrong row length
	}
	if len(br.Results) != len(want) {
		t.Fatalf("bulk results %+v", br)
	}
	for i, w := range want {
		r := br.Results[i]
		if r.Index != i || r.ID != w.id || r.Accepted != w.accepted || r.LastT != w.lastT {
			t.Fatalf("result %d: %+v, want %+v", i, r, w)
		}
		if w.code == "" && r.Error != nil ||
			w.code != "" && (r.Error == nil || r.Error.Code != w.code || r.Error.Message == "") {
			t.Fatalf("result %d error %+v, want code %q", i, r.Error, w.code)
		}
	}
	// The failed items left their tenants as the successful ones did:
	// not even the valid first row of a's regressing batch landed.
	for id, n := range map[string]uint64{"a": 2, "b": 1} {
		var st statsResponse
		decode(t, doReq(t, "GET", ts.URL+"/v2/tenants/"+id+"/stats", ""), &st)
		if st.Updates != n {
			t.Fatalf("%s committed %d updates, want %d", id, st.Updates, n)
		}
	}

	// Empty bulk → 400.
	resp = postJSON(t, ts.URL+"/v2/rows", `{"tenants":[]}`)
	var er errorResponse
	decode(t, resp, &er)
	if resp.StatusCode != 400 || er.Error.Code != CodeInvalidArgument {
		t.Fatalf("empty bulk: status %d code %q", resp.StatusCode, er.Error.Code)
	}
}

// TestTenantEvictRestoreOverHTTP drives the eviction cycle through the
// public API: a tenant evicted to disk must answer its next query
// bit-identically to its pre-eviction answer, and its health endpoint
// must report the residency transition without forcing a restore.
func TestTenantEvictRestoreOverHTTP(t *testing.T) {
	now := time.Unix(1000, 0)
	var s *Server
	ts, s := newTenantServer(t,
		registry.WithSpillDir(t.TempDir()),
		registry.WithEvictTTL(time.Minute),
		registry.WithClock(func() time.Time { return now }),
	)
	doReq(t, "PUT", ts.URL+"/v2/tenants/cold", lmTenantCfg).Body.Close()
	var b strings.Builder
	b.WriteString(`{"updates":[`)
	for i := 0; i < 40; i++ {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, `{"row":[%d,1,0],"t":%d}`, i%3, i)
	}
	b.WriteString("]}")
	postJSON(t, ts.URL+"/v2/tenants/cold/rows", b.String()).Body.Close()

	before, err := io.ReadAll(doReq(t, "GET", ts.URL+"/v2/tenants/cold/approximation?t=39", "").Body)
	if err != nil {
		t.Fatal(err)
	}

	// Idle past the TTL, then sweep.
	now = now.Add(time.Hour)
	if n := s.Registry().Sweep(); n != 1 {
		t.Fatalf("Sweep evicted %d, want 1", n)
	}
	var th tenantHealthResponse
	resp := doReq(t, "GET", ts.URL+"/v2/tenants/cold/health", "")
	decode(t, resp, &th)
	if th.Resident {
		t.Fatal("health reports resident after eviction")
	}

	// The next query transparently restores and answers identically.
	after, err := io.ReadAll(doReq(t, "GET", ts.URL+"/v2/tenants/cold/approximation?t=39", "").Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("restored tenant's approximation differs from pre-eviction answer")
	}
	resp = doReq(t, "GET", ts.URL+"/v2/tenants/cold/health", "")
	decode(t, resp, &th)
	if !th.Resident || th.Updates != 40 {
		t.Fatalf("health after restore %+v", th)
	}

	// The pinned default tenant never went anywhere.
	var list tenantListResponse
	resp = doReq(t, "GET", ts.URL+"/v2/tenants", "")
	decode(t, resp, &list)
	for _, info := range list.Tenants {
		if info.ID == DefaultTenant && !info.Resident {
			t.Fatal("default tenant evicted")
		}
	}
}

// TestTenantSnapshotRoutes exercises per-tenant snapshot download and
// restore: state moves from one tenant to a fresh one via the API.
func TestTenantSnapshotRoutes(t *testing.T) {
	ts, _ := newTenantServer(t)
	doReq(t, "PUT", ts.URL+"/v2/tenants/src", lmTenantCfg).Body.Close()
	doReq(t, "PUT", ts.URL+"/v2/tenants/dst", lmTenantCfg).Body.Close()
	postJSON(t, ts.URL+"/v2/tenants/src/rows",
		`{"updates":[{"row":[1,2,3],"t":1},{"row":[4,5,6],"t":2}]}`).Body.Close()

	snap, err := io.ReadAll(doReq(t, "GET", ts.URL+"/v2/tenants/src/snapshot", "").Body)
	if err != nil || len(snap) == 0 {
		t.Fatalf("snapshot download: %v (%d bytes)", err, len(snap))
	}
	resp, err := http.Post(ts.URL+"/v2/tenants/dst/snapshot", "application/octet-stream",
		bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("snapshot restore status %d", resp.StatusCode)
	}
	resp.Body.Close()

	srcB, _ := io.ReadAll(doReq(t, "GET", ts.URL+"/v2/tenants/src/approximation?t=2", "").Body)
	dstB, _ := io.ReadAll(doReq(t, "GET", ts.URL+"/v2/tenants/dst/approximation?t=2", "").Body)
	if !bytes.Equal(srcB, dstB) {
		t.Fatal("restored tenant answers differently from the source")
	}
}

// TestDIFDSnapshotRoutes moves a FastFD-tuned di-fd tenant's state, with
// completed blocks on every level, to a fresh tenant: the download
// answers 200 (di-fd had no snapshot codec, so it answered 501), and the
// restored tenant answers and snapshots bit-identically.
func TestDIFDSnapshotRoutes(t *testing.T) {
	ts, _ := newTenantServer(t)
	const cfg = `{"framework":"di-fd","size":48,"d":3,"ell":16,"levels":3,"r":2,"fd_buffer":2,"fd_alpha":0.5}`
	doReq(t, "PUT", ts.URL+"/v2/tenants/src", cfg).Body.Close()
	doReq(t, "PUT", ts.URL+"/v2/tenants/dst", cfg).Body.Close()
	var rows []string
	for i := 0; i < 60; i++ {
		rows = append(rows, fmt.Sprintf(`{"row":[1,%v,0.2],"t":%d}`, 0.4*float64(i%3), i))
	}
	resp := postJSON(t, ts.URL+"/v2/tenants/src/rows", `{"updates":[`+strings.Join(rows, ",")+`]}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}

	resp = doReq(t, "GET", ts.URL+"/v2/tenants/src/snapshot", "")
	snap, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot download: status %d, %v", resp.StatusCode, err)
	}
	resp, err = http.Post(ts.URL+"/v2/tenants/dst/snapshot", "application/octet-stream", bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot restore status %d", resp.StatusCode)
	}

	srcB, _ := io.ReadAll(doReq(t, "GET", ts.URL+"/v2/tenants/src/approximation?t=59", "").Body)
	dstB, _ := io.ReadAll(doReq(t, "GET", ts.URL+"/v2/tenants/dst/approximation?t=59", "").Body)
	if !bytes.Equal(srcB, dstB) {
		t.Fatal("restored tenant answers differently from the source")
	}
	again, _ := io.ReadAll(doReq(t, "GET", ts.URL+"/v2/tenants/dst/snapshot", "").Body)
	if !bytes.Equal(snap, again) {
		t.Fatal("restored tenant snapshots differently from the source")
	}
}

// TestRejectedBatchChangesNothing: on the frameworks with a norm bound,
// a batch whose last row breaks the bound answers 400 invalid_argument
// and leaves the tenant as it was (clock, approximation and snapshot
// bytes), so a retry of its valid rows succeeds.
func TestRejectedBatchChangesNothing(t *testing.T) {
	ts, _ := newTenantServer(t)
	for id, cfg := range map[string]string{
		"di-fd":  `{"framework":"di-fd","size":48,"d":3,"ell":8,"levels":3,"r":100}`,
		"ds-fd":  `{"framework":"ds-fd","size":48,"d":3,"ell":8,"r":100}`,
		"di-amm": `{"framework":"di-amm","size":48,"d":3,"d_b":1,"ell":8,"levels":3,"r":100}`,
	} {
		url := ts.URL + "/v2/tenants/" + id
		resp := doReq(t, "PUT", url, cfg)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("%s: create status %d", id, resp.StatusCode)
		}
		snap := getBytes(t, url+"/snapshot")
		approx := getBytes(t, url+"/approximation?t=3")
		resp = postJSON(t, url+"/rows",
			`{"updates":[{"row":[1,0,0],"t":1},{"row":[2,0,0],"t":2},{"row":[100,0,0],"t":3}]}`)
		wantEnvelope(t, resp, http.StatusBadRequest, CodeInvalidArgument)
		var st statsResponse
		decode(t, doReq(t, "GET", url+"/stats", ""), &st)
		if st.Updates != 0 || st.LastT != 0 {
			t.Fatalf("%s: stats after the rejected batch %+v", id, st)
		}
		if !bytes.Equal(getBytes(t, url+"/approximation?t=3"), approx) {
			t.Fatalf("%s: the rejected batch changed the approximation", id)
		}
		if !bytes.Equal(getBytes(t, url+"/snapshot"), snap) {
			t.Fatalf("%s: the rejected batch changed the snapshot", id)
		}
		resp = postJSON(t, url+"/rows", `{"updates":[{"row":[1,0,0],"t":1},{"row":[2,0,0],"t":2}]}`)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: retry of the valid rows: status %d", id, resp.StatusCode)
		}
	}
}

// TestSnapshotRestoreRejectsAllocationBombs posts three ~100-byte
// snapshots that each made the decoder die with "runtime: out of
// memory": an LM-FD raw row claiming 2³¹−1 non-zeros, an LM-FD header
// claiming d = 2³¹−1 ahead of a sketched block, and an SWR header
// claiming 2³¹−1 queues. Each must get 400 invalid_argument, and the
// server must keep serving.
func TestSnapshotRestoreRejectsAllocationBombs(t *testing.T) {
	ts, _ := newTenantServer(t)
	doReq(t, "PUT", ts.URL+"/v2/tenants/lm", lmTenantCfg).Body.Close()
	doReq(t, "PUT", ts.URL+"/v2/tenants/swr",
		`{"framework":"swr","window":"sequence","size":64,"d":3,"ell":8}`).Body.Close()

	// Snapshot headers as internal/core writes them: magic, window
	// kind and size, then the sketch's own fields.
	header := func(magic uint64, d int) *binenc.Writer {
		w := binenc.NewWriter()
		w.U64(magic)
		w.Int(int(window.Sequence))
		w.F64(64)
		w.Int(d)
		return w
	}
	const lmMagic, swrMagic = 0x4C4D4644_00000001, 0x53575253_00000001
	lmRest := func(w *binenc.Writer, levels int) { // ℓ, b, lastT, seen, levels
		w.F64(8)
		w.Int(4)
		w.F64(0)
		w.Bool(false)
		w.Int(levels)
	}
	block := func(w *binenc.Writer, sketched bool) {
		for i := 0; i < 4; i++ {
			w.F64(0)
		}
		w.Bool(sketched)
	}

	rawRow := header(lmMagic, 3)
	lmRest(rawRow, 0)
	block(rawRow, false)
	rawRow.Int(1)
	rawRow.Int(math.MaxInt32)

	dim := header(lmMagic, math.MaxInt32)
	lmRest(dim, 1)
	dim.Int(1)
	block(dim, true)
	dim.Blob(nil)

	queues := header(swrMagic, 3)
	queues.Int(math.MaxInt32)
	queues.F64(0)
	queues.Bool(false)

	for _, c := range []struct {
		name, tenant string
		blob         []byte
	}{
		{"lm-fd raw row nnz", "lm", rawRow.Bytes()},
		{"lm-fd header d", "lm", dim.Bytes()},
		{"swr header ell", "swr", queues.Bytes()},
	} {
		resp, err := http.Post(ts.URL+"/v2/tenants/"+c.tenant+"/snapshot", "application/octet-stream",
			bytes.NewReader(c.blob))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		wantEnvelope(t, resp, http.StatusBadRequest, CodeInvalidArgument)
	}
	resp := postJSON(t, ts.URL+"/v2/tenants/lm/rows", `{"updates":[{"row":[1,2,3],"t":1}]}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest after the rejected restores: status %d", resp.StatusCode)
	}
}

// TestAMMSnapshotRestoreRejectsAllocationBombs posts three short AMM
// snapshots that each made the decoder die with "fatal error: out of
// memory": a 96-byte DI-AMM header claiming dA = dB = 2²⁴ over 26
// levels, a 396-byte LM-AMM snapshot whose three zero-row COD blobs
// claim ℓ = dA = dB = 2¹³, and a 146-byte LM-AMM raw row claiming 2²⁵
// non-zeros. Each must get 400 invalid_argument, and both tenants must
// still ingest afterwards.
func TestAMMSnapshotRestoreRejectsAllocationBombs(t *testing.T) {
	ts, _ := newTenantServer(t)
	doReq(t, "PUT", ts.URL+"/v2/tenants/lm", ammTenantCfg).Body.Close()
	doReq(t, "PUT", ts.URL+"/v2/tenants/di",
		`{"framework":"di-amm","window":"sequence","size":64,"d":5,"d_b":2,"ell":8,"levels":3,"r":64}`).Body.Close()

	// Snapshot layouts as internal/core and internal/stream write them.
	const ammMagic, lmKind, diKind = 0x414D4D53_00000001, 1, 2
	header := func(kind, dA, dB int) *binenc.Writer {
		w := binenc.NewWriter()
		w.U64(ammMagic)
		w.Int(kind)
		w.Int(dA)
		w.Int(dB)
		w.Int(1) // COD buffer factor
		w.F64(1) // α
		return w
	}
	lmBody := func(w *binenc.Writer, levels int) { // window, ℓ, b, clock, level count
		w.Int(int(window.Sequence))
		w.F64(64)
		w.Int(8)
		w.Int(4)
		w.F64(0)
		w.Bool(false)
		w.Int(levels)
	}
	block := func(w *binenc.Writer, sketched bool) {
		for i := 0; i < 4; i++ {
			w.F64(0)
		}
		w.Bool(sketched)
	}
	codBlob := func(ell, dA, dB int) []byte { // a zero-row co-sketch of the claimed shape
		valid, err := stream.NewCOD(2, 1, 1).MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		w := binenc.NewWriter()
		w.Int(ell)
		w.Int(dA)
		w.Int(dB)
		w.Int(1)
		w.F64(1)
		w.Int(0)
		return append(valid[:8:8], w.Bytes()...)
	}

	diHeader := header(diKind, 1<<24, 1<<24)
	diHeader.Int(64) // N
	diHeader.F64(1)  // R
	diHeader.Int(26) // L
	diHeader.Int(8)  // Ell
	diHeader.Int(4)  // MinEll
	diHeader.F64(1)  // RSlack

	const n = 1 << 13
	codShape := header(lmKind, n, n)
	lmBody(codShape, 1)
	codShape.Int(2)
	for i := 0; i < 3; i++ { // two level-1 blocks, then the active block
		block(codShape, true)
		codShape.Blob(codBlob(n, n, n))
	}

	rawRow := header(lmKind, 1<<24, 1<<24)
	lmBody(rawRow, 0)
	block(rawRow, false)
	rawRow.Int(1)
	rawRow.Int(1 << 25)

	for _, c := range []struct {
		name, tenant string
		blob         []byte
		size         int
	}{
		{"di-amm header", "di", diHeader.Bytes(), 96},
		{"lm-amm cod shape", "lm", codShape.Bytes(), 396},
		{"lm-amm raw row nnz", "lm", rawRow.Bytes(), 146},
	} {
		if len(c.blob) != c.size {
			t.Fatalf("%s: built %d bytes, want %d", c.name, len(c.blob), c.size)
		}
		resp, err := http.Post(ts.URL+"/v2/tenants/"+c.tenant+"/snapshot", "application/octet-stream",
			bytes.NewReader(c.blob))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		wantEnvelope(t, resp, http.StatusBadRequest, CodeInvalidArgument)
	}
	for _, tenant := range []string{"lm", "di"} {
		resp := postJSON(t, ts.URL+"/v2/tenants/"+tenant+"/rows", `{"updates":[{"row":[1,2,0,0,1],"t":1}]}`)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s ingest after the rejected restores: status %d", tenant, resp.StatusCode)
		}
	}
}

func TestTenantRouteMethodNotAllowed(t *testing.T) {
	ts, _ := newTenantServer(t)
	resp := doReq(t, "PATCH", ts.URL+"/v2/tenants/x", "")
	var er errorResponse
	decode(t, resp, &er)
	if resp.StatusCode != http.StatusMethodNotAllowed || er.Error.Code != CodeMethodNotAllowed {
		t.Fatalf("PATCH tenant: status %d code %q", resp.StatusCode, er.Error.Code)
	}
	if allow := resp.Header.Get("Allow"); !strings.Contains(allow, "PUT") || !strings.Contains(allow, "DELETE") {
		t.Fatalf("Allow = %q", allow)
	}
}

// constructorLimitConfigs are tenant configs the framework table lets
// through but a constructor rejects. Each used to pass validation and
// then panic in PUT (dropping the connection) or, for lm-fd's ell and
// fd_buffer, build a tenant that panicked on its first merge or could
// not be restored after a spill.
var constructorLimitConfigs = []string{
	`{"framework":"lm-fd","size":64,"d":3,"ell":8,"b":1}`,
	`{"framework":"lm-hash","size":64,"d":3,"ell":8,"b":1}`,
	`{"framework":"lm-amm","size":64,"d":4,"d_b":2,"ell":8,"b":1}`,
	`{"framework":"di-fd","size":64,"d":3,"ell":8,"levels":30,"r":1}`,
	`{"framework":"di-fd","size":64,"d":3,"ell":8,"levels":3,"r":0.5}`,
	`{"framework":"di-fd","size":64,"d":3,"ell":1,"levels":3,"r":1}`,
	`{"framework":"di-amm","size":64,"d":4,"d_b":2,"ell":1,"levels":3,"r":1}`,
	`{"framework":"lm-fd","size":64,"d":3,"ell":1}`,
	`{"framework":"lm-fd","size":64,"d":3,"ell":8,"fd_buffer":70000}`,
}

// TestTenantPutRejectsConstructorLimits pins that PUT answers every
// constructorLimitConfigs entry with 400 invalid_argument on a
// connection that stays open, and that the server logs no panic.
func TestTenantPutRejectsConstructorLimits(t *testing.T) {
	treg, err := registry.New()
	if err != nil {
		t.Fatal(err)
	}
	var serverLog bytes.Buffer
	ts := httptest.NewUnstartedServer(newServer(t, lmCfg(3), WithRegistry(treg)).Handler())
	ts.Config.ErrorLog = log.New(&serverLog, "", 0)
	ts.Start()
	client := ts.Client()
	for i, cfg := range constructorLimitConfigs {
		reused := false
		trace := &httptrace.ClientTrace{GotConn: func(c httptrace.GotConnInfo) { reused = c.Reused }}
		req, err := http.NewRequest("PUT", fmt.Sprintf("%s/v2/tenants/t%d", ts.URL, i), strings.NewReader(cfg))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req.WithContext(httptrace.WithClientTrace(req.Context(), trace)))
		if err != nil {
			t.Fatalf("%s: %v", cfg, err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			resp.Body.Close()
			t.Fatalf("%s: status %d, want 400", cfg, resp.StatusCode)
		}
		if e := decodeError(t, resp); e.Code != CodeInvalidArgument {
			t.Fatalf("%s: code %q (%s), want %s", cfg, e.Code, e.Message, CodeInvalidArgument)
		}
		if i > 0 && !reused {
			t.Fatalf("%s: the previous response closed the connection", cfg)
		}
	}
	ts.Close()
	if strings.Contains(serverLog.String(), "panic") {
		t.Fatalf("server logged a panic:\n%s", serverLog.String())
	}
}

// TestSnapshotRestoreRejectsForeignTenant pins that an uploaded
// snapshot must hold the tenant's algorithm and row width. A restore
// decodes the geometry its header declares, so a d=9 LM-FD snapshot
// turned a d=3 tenant into one that answered every ingest with 409,
// and an LM-FD snapshot turned an lm-hash tenant into LM-FD. Each now
// gets 400 invalid_argument, and the tenant, the pinned default one
// included, keeps its state and keeps ingesting.
func TestSnapshotRestoreRejectsForeignTenant(t *testing.T) {
	ts, _ := newTenantServer(t)
	doReq(t, "PUT", ts.URL+"/v2/tenants/fd", lmTenantCfg).Body.Close()
	doReq(t, "PUT", ts.URL+"/v2/tenants/hash",
		`{"framework":"lm-hash","window":"sequence","size":64,"d":3,"ell":8,"b":4}`).Body.Close()
	snapshot := func(d int) []byte {
		sk := core.NewLMFD(window.Seq(64), d, 8, 4)
		sk.Update(make([]float64, d), 0)
		b, err := sk.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	wide := snapshot(9)
	for _, c := range []struct {
		tenant, algo string
		blob         []byte
	}{
		{"fd", "LM-FD", wide},
		{"hash", "LM-HASH", snapshot(3)},
		{DefaultTenant, "LM-FD", wide},
	} {
		base := ts.URL + "/v2/tenants/" + c.tenant
		postJSON(t, base+"/rows", `{"updates":[{"row":[1,2,3],"t":1}]}`).Body.Close()
		before, _ := io.ReadAll(doReq(t, "GET", base+"/approximation?t=1", "").Body)
		resp, err := http.Post(base+"/snapshot", "application/octet-stream", bytes.NewReader(c.blob))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			resp.Body.Close()
			t.Fatalf("%s: foreign snapshot restore status %d, want 400", c.tenant, resp.StatusCode)
		}
		if e := decodeError(t, resp); e.Code != CodeInvalidArgument {
			t.Fatalf("%s: code %q, want %s", c.tenant, e.Code, CodeInvalidArgument)
		}
		after, _ := io.ReadAll(doReq(t, "GET", base+"/approximation?t=1", "").Body)
		if !bytes.Equal(before, after) {
			t.Fatalf("%s: a rejected restore changed the tenant's answer", c.tenant)
		}
		resp = postJSON(t, base+"/rows", `{"updates":[{"row":[4,5,6],"t":2}]}`)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: ingest after a rejected restore: status %d", c.tenant, resp.StatusCode)
		}
		var st map[string]any
		decode(t, doReq(t, "GET", base+"/stats", ""), &st)
		if st["algorithm"] != c.algo {
			t.Fatalf("%s: stats algorithm %v, want %s", c.tenant, st["algorithm"], c.algo)
		}
	}
}
