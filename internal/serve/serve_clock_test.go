package serve

// One clock and one batch check per tenant: the sketch's. A batch the
// sketch rejects answers 400 and never reaches the WAL, a read at a
// time the clock refuses changes nothing, an upload brings the
// snapshot's clock along and journals the tenant's config with it (or
// changes nothing when it cannot), and a replay that still fails reads
// degraded.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"swsketch/internal/registry"
	"swsketch/internal/wal"
)

// walBoot opens a log in dir with one shard, 512-byte segments and an
// fsync per append, and boots a server over it whose default tenant is
// built from cfg; opts are the server's further options.
func walBoot(t *testing.T, dir string, cfg registry.Config, opts ...Option) (*Server, *httptest.Server, wal.Stats) {
	t.Helper()
	l, err := wal.Open(dir, wal.WithShards(1), wal.WithSyncInterval(0), wal.WithSegmentBytes(512))
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(t, cfg, append(opts, WithWAL(l))...)
	st, err := s.RecoverWAL()
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); l.Close() })
	return s, ts, st
}

// postRows posts one row per t in ts to a tenant, each as its own
// batch, and fails on any status but 200.
func postRows(t *testing.T, url string, times ...int) {
	t.Helper()
	for _, i := range times {
		resp := postJSON(t, url+"/rows", fmt.Sprintf(`{"updates":[{"row":[%d,1,%d],"t":%d}]}`, i%3, i%5, i))
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("row at t=%d: status %d", i, resp.StatusCode)
		}
	}
}

// span returns the integers in [from, to).
func span(from, to int) []int {
	out := make([]int, 0, to-from)
	for i := from; i < to; i++ {
		out = append(out, i)
	}
	return out
}

// TestRejectedBatchIsNotJournaled: a di-fd batch with a row past the
// declared R answers 400 before the WAL append, so the restart replays
// only the tenant's creation, with nothing failed.
func TestRejectedBatchIsNotJournaled(t *testing.T) {
	dir := t.TempDir()
	_, ts, _ := walBoot(t, dir, lmCfg(3))
	url := ts.URL + "/v2/tenants/di"
	doReq(t, "PUT", url, `{"framework":"di-fd","size":48,"d":3,"ell":8,"levels":3,"r":100}`).Body.Close()
	resp := postJSON(t, url+"/rows", `{"updates":[{"row":[1,0,0],"t":1},{"row":[2,0,0],"t":2},{"row":[100,0,0],"t":3}]}`)
	if e := wantEnvelope(t, resp, http.StatusBadRequest, CodeInvalidArgument); !strings.Contains(e.Message, "exceeds declared R=100") {
		t.Fatalf("message %q", e.Message)
	}
	ts.Close()

	_, ts2, st := walBoot(t, dir, lmCfg(3))
	if st.Records != 1 || st.Applied != 1 || st.Failed != 0 {
		t.Fatalf("replay %+v, want only the creation checkpoint, applied", st)
	}
	var sr statsResponse
	decode(t, doReq(t, "GET", ts2.URL+"/v2/tenants/di/stats", ""), &sr)
	if sr.Updates != 0 {
		t.Fatalf("replayed tenant has %d updates", sr.Updates)
	}
}

// TestNonFiniteFrameTimesRejected: on a binary stream, a frame at
// t=+Inf and a frame at t=NaN each get an invalid_argument ack and are
// not journaled, and a later frame at t=5 is accepted, so the restart
// replays that frame alone.
func TestNonFiniteFrameTimesRejected(t *testing.T) {
	dir := t.TempDir()
	_, ts, _ := walBoot(t, dir, lmCfg(3))
	body := encodeFrame([][]float64{{1, 0, 0}}, []float64{math.Inf(1)})
	body = append(body, encodeFrame([][]float64{{0, 1, 0}}, []float64{math.NaN()})...)
	body = append(body, encodeFrame([][]float64{{0, 0, 1}}, []float64{5})...)
	resp, acks := streamPost(t, ts.URL+"/v2/tenants/default/stream", ContentTypeFrames, body)
	if resp.StatusCode != http.StatusOK || len(acks) != 3 {
		t.Fatalf("status %d, acks %+v; want 200 and three acks", resp.StatusCode, acks)
	}
	for _, ack := range acks[:2] {
		if ack.Error == nil || ack.Error.Code != CodeInvalidArgument || ack.Accepted != 0 {
			t.Fatalf("non-finite frame acked %+v, want invalid_argument", ack)
		}
	}
	if ack := acks[2]; ack.Error != nil || ack.Accepted != 1 || ack.LastT != 5 {
		t.Fatalf("frame at t=5 acked %+v", ack)
	}
	ts.Close()

	_, _, st := walBoot(t, dir, lmCfg(3))
	if st.Records != 1 || st.Applied != 1 || st.Rows != 1 || st.Failed != 0 {
		t.Fatalf("replay %+v, want only the frame at t=5", st)
	}
}

// TestUploadKeepsTheRestoredClock: after a time-window lm-fd tenant's
// snapshot is downloaded and uploaded again, stats and default-t reads
// follow the restored sketch's clock (t=300), the tenant keeps its 300
// committed updates, a row behind the clock answers 400 without being
// journaled, and the restart replays with nothing failed into the same
// bytes.
func TestUploadKeepsTheRestoredClock(t *testing.T) {
	dir := t.TempDir()
	_, ts, _ := walServer(t, dir)
	url := ts.URL + "/v2/tenants/tw"
	doReq(t, "PUT", url, `{"framework":"lm-fd","window":"time","size":100,"d":3,"ell":8,"b":4}`).Body.Close()
	var rows []string
	for i := 1; i <= 300; i++ {
		rows = append(rows, fmt.Sprintf(`{"row":[%d,1,%d],"t":%d}`, i%3, i%5, i))
	}
	postJSON(t, url+"/rows", `{"updates":[`+strings.Join(rows, ",")+`]}`).Body.Close()
	snap := getBytes(t, url+"/snapshot")
	resp, err := http.Post(url+"/snapshot", "application/octet-stream", bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upload status %d", resp.StatusCode)
	}

	var sr statsResponse
	decode(t, doReq(t, "GET", url+"/stats", ""), &sr)
	if sr.Updates != 300 || sr.LastT != 300 {
		t.Fatalf("stats after the upload: updates %d, last_t %v; want 300 and 300", sr.Updates, sr.LastT)
	}
	var ar approximationResponse
	decode(t, doReq(t, "GET", url+"/approximation", ""), &ar)
	if ar.T != 300 {
		t.Fatalf("default-t approximation at t=%v, want 300", ar.T)
	}
	resp = postJSON(t, url+"/rows", `{"updates":[{"row":[1,0,0],"t":50}]}`)
	if e := wantEnvelope(t, resp, http.StatusBadRequest, CodeInvalidArgument); !strings.Contains(e.Message, "precedes 300") {
		t.Fatalf("message %q", e.Message)
	}
	want := getBytes(t, url+"/snapshot")
	ts.Close()

	_, ts2, st := walServer(t, dir)
	if st.Failed != 0 || st.Damaged {
		t.Fatalf("replay %+v, want nothing failed", st)
	}
	if got := getBytes(t, ts2.URL+"/v2/tenants/tw/snapshot"); !bytes.Equal(got, want) {
		t.Fatalf("the tenant replayed into other bytes: %d vs %d", len(got), len(want))
	}
}

// TestUploadFailedJournalChangesNothing: the restore step journals an
// upload before it installs the snapshot, so an upload the WAL cannot
// log answers 500 and leaves the tenant as it was.
func TestUploadFailedJournalChangesNothing(t *testing.T) {
	s, ts, _ := walBoot(t, t.TempDir(), lmCfg(3))
	url := ts.URL + "/v2/tenants/default"
	postRows(t, url, span(0, 40)...)
	snap := getBytes(t, url+"/snapshot")
	postRows(t, url, span(40, 60)...)
	want := getBytes(t, url+"/snapshot")
	if err := s.WAL().Close(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/snapshot", "application/octet-stream", bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	if e := wantEnvelope(t, resp, http.StatusInternalServerError, CodeInternal); !strings.Contains(e.Message, "wal append") {
		t.Fatalf("message %q", e.Message)
	}
	if got := getBytes(t, url+"/snapshot"); !bytes.Equal(got, want) {
		t.Fatalf("a failed upload changed the tenant: %d bytes, had %d", len(got), len(want))
	}
}

// TestNonFiniteQueryTimeRejected: a NaN or infinite t answers 400 on
// every read route, before the query runs: a query at +Inf would
// expire every block of the tenant's window.
func TestNonFiniteQueryTimeRejected(t *testing.T) {
	ts, _ := newTenantServer(t)
	lm := ts.URL + "/v2/tenants/lm"
	doReq(t, "PUT", lm, `{"framework":"lm-fd","size":100,"d":3,"ell":8,"b":4}`).Body.Close()
	postRows(t, lm, span(0, 50)...)
	pair := ts.URL + "/v2/tenants/pair"
	doReq(t, "PUT", pair, ammTenantCfg).Body.Close()
	doReq(t, "POST", pair+"/rows", ammIngestBody(40)).Body.Close()
	var before statsResponse
	decode(t, doReq(t, "GET", lm+"/stats", ""), &before)
	for _, v := range []string{"NaN", "Inf", "-Inf", "infinity"} {
		for _, req := range []struct{ method, url string }{
			{"GET", lm + "/approximation?t=" + v},
			{"GET", lm + "/pca?t=" + v},
			{"GET", pair + "/amm?t=" + v},
			{"POST", pair + "/amm?t=" + v},
		} {
			e := wantEnvelope(t, doReq(t, req.method, req.url, ""), http.StatusBadRequest, CodeInvalidArgument)
			if !strings.Contains(e.Message, "non-finite") {
				t.Fatalf("%s %s: message %q", req.method, req.url, e.Message)
			}
		}
	}
	var after statsResponse
	decode(t, doReq(t, "GET", lm+"/stats", ""), &after)
	if before.RowsStored == 0 || after.RowsStored != before.RowsStored {
		t.Fatalf("rows_stored %d before the reads, %d after", before.RowsStored, after.RowsStored)
	}
}

// TestOverflowingRowRejected: a row whose values are finite but whose
// squared norm overflows to +Inf answers 400 on every framework, and
// the tenant's reads stay well-formed JSON.
func TestOverflowingRowRejected(t *testing.T) {
	ts, _ := newTenantServer(t)
	for id, cfg := range map[string]string{
		"lm":  `{"framework":"lm-fd","size":64,"d":3,"ell":8,"b":4}`,
		"swr": `{"framework":"swr","size":64,"d":3,"ell":4}`,
		"ds":  `{"framework":"ds-fd","size":64,"d":3,"ell":8}`,
	} {
		url := ts.URL + "/v2/tenants/" + id
		doReq(t, "PUT", url, cfg).Body.Close()
		resp := postJSON(t, url+"/rows", `{"updates":[{"row":[1,0,0],"t":1},{"row":[1e160,0,0],"t":2},{"row":[0,1,0],"t":3}]}`)
		if e := wantEnvelope(t, resp, http.StatusBadRequest, CodeInvalidArgument); !strings.Contains(e.Message, "squared norm +Inf") {
			t.Fatalf("%s: message %q", id, e.Message)
		}
		postRows(t, url, 1, 2)
		for _, route := range []string{"/approximation", "/pca"} {
			var v map[string]any
			if err := json.Unmarshal(getBytes(t, url+route), &v); err != nil {
				t.Fatalf("%s%s: %v", id, route, err)
			}
		}
	}
}

// TestReplayFailureTurnsHealthDegraded: a default tenant that restarts
// with another row width cannot replay its log. The replay counts the
// failure, and /v2/health reads degraded with the count.
func TestReplayFailureTurnsHealthDegraded(t *testing.T) {
	dir := t.TempDir()
	_, ts, _ := walBoot(t, dir, lmCfg(3))
	postRows(t, ts.URL+"/v2/tenants/default", 1)
	postJSON(t, ts.URL+"/v2/tenants/default/rows", `{"updates":[{"row":[1,0,0],"t":2},{"row":[0,1,0],"t":3}]}`).Body.Close()
	ts.Close()

	_, ts2, st := walBoot(t, dir, lmCfg(4))
	if st.Applied != 0 || st.Skipped != 1 || st.Failed != 1 {
		t.Fatalf("replay %+v, want 1 failed and 1 skipped", st)
	}
	resp, err := http.Get(ts2.URL + "/v2/health")
	if err != nil {
		t.Fatal(err)
	}
	var hr healthResponse
	decode(t, resp, &hr)
	if resp.StatusCode != http.StatusServiceUnavailable || hr.Status != "degraded" || hr.WAL == nil || hr.WAL.Failed != 1 {
		t.Fatalf("health status %d, %+v, wal %+v", resp.StatusCode, hr, hr.WAL)
	}
}

// TestUploadKeepsTheCreateRecord: an upload moves the tenant's WAL
// truncation mark, and with 512-byte segments the segment holding the
// tenant's creation checkpoint is then unlinked. The upload's checkpoint
// carries the tenant's config, so both restarts rebuild the tenant bit
// for bit.
func TestUploadKeepsTheCreateRecord(t *testing.T) {
	dir := t.TempDir()
	_, ts, _ := walBoot(t, dir, lmCfg(3))
	url := ts.URL + "/v2/tenants/a"
	doReq(t, "PUT", url, lmTenantCfg).Body.Close()
	postRows(t, url, span(0, 40)...)
	snap := getBytes(t, url+"/snapshot")
	resp, err := http.Post(url+"/snapshot", "application/octet-stream", bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	postRows(t, url, span(40, 80)...)
	want := getBytes(t, url+"/snapshot")
	ts.Close()

	_, ts2, st := walBoot(t, dir, lmCfg(3))
	if st.Failed != 0 {
		t.Fatalf("replay %+v", st)
	}
	if got := getBytes(t, ts2.URL+"/v2/tenants/a/snapshot"); !bytes.Equal(got, want) {
		t.Fatalf("first restart: the tenant replayed into other bytes: %d vs %d", len(got), len(want))
	}
	postRows(t, ts2.URL+"/v2/tenants/a", span(80, 160)...)
	want = getBytes(t, ts2.URL+"/v2/tenants/a/snapshot")
	ts2.Close()

	_, ts3, _ := walBoot(t, dir, lmCfg(3))
	if got := getBytes(t, ts3.URL+"/v2/tenants/a/snapshot"); !bytes.Equal(got, want) {
		t.Fatalf("second restart: the tenant replayed into other bytes: %d vs %d", len(got), len(want))
	}
}

// TestSweptTenantsLeaveOneSegment guards WAL truncation: five tenants
// each created, fed 40 rows and swept to the spill directory release
// every record, so one segment file (the active one) remains. A default
// tenant that pinned its shard would keep them all.
func TestSweptTenantsLeaveOneSegment(t *testing.T) {
	dir := t.TempDir()
	now := time.Unix(1000, 0)
	treg, err := registry.New(registry.WithSpillDir(t.TempDir()), registry.WithEvictTTL(time.Minute),
		registry.WithClock(func() time.Time { return now }))
	if err != nil {
		t.Fatal(err)
	}
	s, ts, _ := walBoot(t, dir, lmCfg(3), WithRegistry(treg))
	for i := 0; i < 5; i++ {
		url := fmt.Sprintf("%s/v2/tenants/t%d", ts.URL, i)
		doReq(t, "PUT", url, lmTenantCfg).Body.Close()
		postRows(t, url, span(0, 40)...)
		now = now.Add(2 * time.Minute)
		if n := s.Registry().Sweep(); n != 1 {
			t.Fatalf("round %d: Sweep evicted %d, want 1", i, n)
		}
	}
	segs, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("%d segment files remain (%v), want 1", len(segs), err)
	}
}
