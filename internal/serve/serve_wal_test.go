package serve

// End-to-end WAL recovery over HTTP: traffic in, crash (drop the
// server without any graceful snapshotting), reopen against the same
// log directory, and the recovered tenants must marshal to the same
// bytes the live ones did.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"swsketch/internal/core"
	"swsketch/internal/obs/audit"
	"swsketch/internal/registry"
	"swsketch/internal/wal"
	"swsketch/internal/window"
)

// walServer builds a server journaling into dir and recovers the log.
func walServer(t *testing.T, dir string, opts ...Option) (*Server, *httptest.Server, wal.Stats) {
	t.Helper()
	l, err := wal.Open(dir, wal.WithShards(2), wal.WithSyncInterval(0))
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(t, lmCfg(3), append(opts, WithWAL(l))...)
	st, err := s.RecoverWAL()
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); l.Close() })
	return s, ts, st
}

func getBytes(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, data)
	}
	return data
}

// TestWALRecoveryBitExact drives mixed traffic — batch ingest, a
// created tenant, streaming blocks — then recovers a cold server from
// the log alone and compares binary snapshots byte for byte.
func TestWALRecoveryBitExact(t *testing.T) {
	dir := t.TempDir()
	_, ts, _ := walServer(t, dir)

	// Batch rows into the default tenant via the bulk and per-tenant
	// routes.
	postJSON(t, ts.URL+"/v2/rows",
		`{"tenants":[{"id":"default","updates":[{"row":[1,0,0],"t":1},{"row":[0,2,0],"t":2}]}]}`).Body.Close()
	postJSON(t, ts.URL+"/v2/tenants/default/rows", `{"updates":[{"row":[0,0,3],"t":3}]}`).Body.Close()
	// A sparse update (the WAL densifies it).
	postJSON(t, ts.URL+"/v2/tenants/default/rows", `{"updates":[{"idx":[1],"val":[5],"t":4}]}`).Body.Close()

	// A second tenant created and fed over the API.
	req, _ := http.NewRequest("PUT", ts.URL+"/v2/tenants/alpha", strings.NewReader(lmTenantCfg))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	postJSON(t, ts.URL+"/v2/tenants/alpha/rows", `{"updates":[{"row":[7,0,0],"t":1},{"row":[0,7,0],"t":2}]}`).Body.Close()

	// Streamed blocks into the default tenant.
	var b strings.Builder
	for i := 5; i < 25; i++ {
		fmt.Fprintf(&b, `{"row":[%d,1,0],"t":%d}`+"\n", i%3, i)
	}
	resp, err = http.Post(ts.URL+"/v2/tenants/default/stream", ContentTypeNDJSON,
		strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	wantDefault := getBytes(t, ts.URL+"/v2/tenants/default/snapshot")
	wantAlpha := getBytes(t, ts.URL+"/v2/tenants/alpha/snapshot")

	// "Crash": no graceful close of the registry, just a cold start on
	// the same directory (the log was opened with per-append sync).
	_, ts2, st := walServer(t, dir)
	if st.Damaged || st.Torn {
		t.Fatalf("recovery stats %+v", st)
	}
	var hr healthResponse
	if err := json.Unmarshal(getBytes(t, ts2.URL+"/v2/health"), &hr); err != nil {
		t.Fatal(err)
	}
	if hr.Status != "ok" || hr.WAL == nil || !hr.WAL.Replayed || hr.WAL.Damaged {
		t.Fatalf("recovered health %+v wal %+v", hr, hr.WAL)
	}
	if got := getBytes(t, ts2.URL+"/v2/tenants/default/snapshot"); !bytes.Equal(got, wantDefault) {
		t.Fatalf("default tenant diverged after recovery: %d vs %d bytes", len(got), len(wantDefault))
	}
	if got := getBytes(t, ts2.URL+"/v2/tenants/alpha/snapshot"); !bytes.Equal(got, wantAlpha) {
		t.Fatalf("alpha tenant diverged after recovery: %d vs %d bytes", len(got), len(wantAlpha))
	}

	// The recovered node keeps serving: more rows and a third recovery
	// still agree.
	postJSON(t, ts2.URL+"/v2/tenants/default/rows", `{"updates":[{"row":[1,1,1],"t":30}]}`).Body.Close()
	want3 := getBytes(t, ts2.URL+"/v2/tenants/default/snapshot")
	_, ts3, _ := walServer(t, dir)
	if got := getBytes(t, ts3.URL+"/v2/tenants/default/snapshot"); !bytes.Equal(got, want3) {
		t.Fatalf("second recovery diverged")
	}
}

// TestWALRecoverySparseExplicitZero: a sparse update carrying an
// explicit zero recovers to the same snapshot bytes on LM and DI
// tenants: live ingest and replay apply the same dense block, in which
// the zero is no entry.
func TestWALRecoverySparseExplicitZero(t *testing.T) {
	dir := t.TempDir()
	_, ts, _ := walServer(t, dir)
	cfgs := map[string]string{
		"lm": lmTenantCfg,
		"di": `{"framework":"di-fd","size":48,"d":3,"ell":8,"levels":3,"r":100}`,
	}
	want := map[string][]byte{}
	for id, cfg := range cfgs {
		doReq(t, "PUT", ts.URL+"/v2/tenants/"+id, cfg).Body.Close()
		resp := postJSON(t, ts.URL+"/v2/tenants/"+id+"/rows",
			`{"updates":[{"idx":[0,1],"val":[0,5],"t":1},{"idx":[2],"val":[1],"t":2}]}`)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: ingest status %d", id, resp.StatusCode)
		}
		want[id] = getBytes(t, ts.URL+"/v2/tenants/"+id+"/snapshot")
	}
	_, ts2, _ := walServer(t, dir)
	for id := range cfgs {
		if got := getBytes(t, ts2.URL+"/v2/tenants/"+id+"/snapshot"); !bytes.Equal(got, want[id]) {
			t.Errorf("%s: %d snapshot bytes after recovery, %d before", id, len(got), len(want[id]))
		}
	}
}

// auditedLMFD is the audit tests' auditor for the default tenant
// walServer builds (LM-FD, sequence window 100, d 3).
func auditedLMFD() *audit.Auditor {
	return audit.New(audit.Config{Spec: window.Seq(100), D: 3, ErrThreshold: 10}, nil)
}

// TestWALRecoveryRefillsAuditShadow: replayed rows reach the auditor's
// shadow as live rows do, so after a restart it holds the whole window
// and the audited cova-err equals an offline evaluation.
func TestWALRecoveryRefillsAuditShadow(t *testing.T) {
	dir := t.TempDir()
	_, ts, _ := walServer(t, dir, WithAudit(auditedLMFD()))
	ingestVaried(t, ts.URL, 0, 300)
	a := auditedLMFD()
	_, ts2, _ := walServer(t, dir, WithAudit(a))
	ingestVaried(t, ts2.URL, 300, 364)

	st := a.Status()
	if st.Warming || st.ShadowRows != 100 || st.T != 363 {
		t.Fatalf("auditor after the restart %+v, want an evaluation at t=363 on a 100-row shadow", st)
	}
	spec := window.Seq(100)
	sk, exact := core.NewLMFD(spec, 3, 8, 4), window.NewExact(spec, 3)
	for i := 0; i < 364; i++ {
		sk.Update(variedRow(i), float64(i))
		exact.Update(variedRow(i), float64(i))
	}
	if offline := exact.CovaErr(sk.Query(363)); math.Abs(st.CovaErr-offline) > 1e-12 {
		t.Fatalf("audited cova-err %v, offline %v", st.CovaErr, offline)
	}
}

// TestWALReplayedSnapshotRearmsAudit: a replayed checkpoint record
// re-arms the default tenant's auditor as the upload did, so it stays
// warming until one window of rows has passed the restore.
func TestWALReplayedSnapshotRearmsAudit(t *testing.T) {
	dir := t.TempDir()
	_, ts, _ := walServer(t, dir, WithAudit(auditedLMFD()))
	ingestVaried(t, ts.URL, 0, 150)
	snap := getBytes(t, ts.URL+"/v2/tenants/default/snapshot")
	resp, err := http.Post(ts.URL+"/v2/tenants/default/snapshot", "application/octet-stream", bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	ingestVaried(t, ts.URL, 150, 200)

	a := auditedLMFD()
	_, ts2, _ := walServer(t, dir, WithAudit(a))
	if st := a.Status(); !st.Warming || a.ShadowRows() != 50 {
		t.Fatalf("auditor after replay %+v with %d shadow rows, want warming on the 50 rows since the restore", st, a.ShadowRows())
	}
	ingestVaried(t, ts2.URL, 200, 250)
	if st := a.Status(); st.Warming || a.ShadowRows() != 100 {
		t.Fatalf("auditor one window after the restore %+v with %d shadow rows", st, a.ShadowRows())
	}
}

// TestWALRecoveryAfterRestoreAndDelete: a logged snapshot restore
// supersedes earlier rows, and a logged delete stays deleted.
func TestWALRecoveryAfterRestoreAndDelete(t *testing.T) {
	dir := t.TempDir()
	_, ts, _ := walServer(t, dir)

	postJSON(t, ts.URL+"/v2/tenants/default/rows", `{"updates":[{"row":[1,0,0],"t":1},{"row":[0,1,0],"t":2}]}`).Body.Close()
	snap := getBytes(t, ts.URL+"/v2/tenants/default/snapshot")
	postJSON(t, ts.URL+"/v2/tenants/default/rows", `{"updates":[{"row":[9,9,9],"t":3}]}`).Body.Close()
	// Restore the earlier snapshot: the 9,9,9 row must not survive
	// recovery either.
	resp, err := http.Post(ts.URL+"/v2/tenants/default/snapshot", "application/octet-stream", bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	postJSON(t, ts.URL+"/v2/tenants/default/rows", `{"updates":[{"row":[4,0,0],"t":10}]}`).Body.Close()
	want := getBytes(t, ts.URL+"/v2/tenants/default/snapshot")

	// A tenant created then deleted must stay gone.
	req, _ := http.NewRequest("PUT", ts.URL+"/v2/tenants/doomed", strings.NewReader(lmTenantCfg))
	resp, _ = http.DefaultClient.Do(req)
	resp.Body.Close()
	req, _ = http.NewRequest("DELETE", ts.URL+"/v2/tenants/doomed", nil)
	resp, _ = http.DefaultClient.Do(req)
	resp.Body.Close()

	_, ts2, st := walServer(t, dir)
	if st.Damaged {
		t.Fatalf("recovery stats %+v", st)
	}
	if got := getBytes(t, ts2.URL+"/v2/tenants/default/snapshot"); !bytes.Equal(got, want) {
		t.Fatal("restore-then-ingest state diverged after recovery")
	}
	r, err := http.Get(ts2.URL + "/v2/tenants/doomed/stats")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("deleted tenant resurrected: status %d", r.StatusCode)
	}
}

// TestDeleteFailedJournalChangesNothing: a delete is journaled before
// it applies, so a delete the WAL cannot log answers 500 and leaves the
// tenant and its snapshot bytes as they were, and a restart replays
// the tenant whole. A delete applied before its journal would answer
// 200, and the tenant would come back after the restart with all 10
// rows.
func TestDeleteFailedJournalChangesNothing(t *testing.T) {
	dir := t.TempDir()
	s, ts, _ := walServer(t, dir)
	url := ts.URL + "/v2/tenants/a"
	doReq(t, "PUT", url, lmTenantCfg).Body.Close()
	postRows(t, url, span(0, 10)...)
	want := getBytes(t, url+"/snapshot")
	if err := s.WAL().Close(); err != nil {
		t.Fatal(err)
	}
	if e := wantEnvelope(t, doReq(t, "DELETE", url, ""), http.StatusInternalServerError, CodeInternal); !strings.Contains(e.Message, "wal append") {
		t.Fatalf("message %q", e.Message)
	}
	if got := getBytes(t, url+"/snapshot"); !bytes.Equal(got, want) {
		t.Fatalf("a failed delete changed the tenant: %d bytes, had %d", len(got), len(want))
	}
	ts.Close()

	_, ts2, st := walServer(t, dir)
	if st.Failed != 0 || st.Damaged {
		t.Fatalf("replay %+v, want nothing failed", st)
	}
	if got := getBytes(t, ts2.URL+"/v2/tenants/a/snapshot"); !bytes.Equal(got, want) {
		t.Fatalf("the tenant replayed into other bytes: %d vs %d", len(got), len(want))
	}
}

// TestWALRecoveryAfterSpillRestore: a tenant spilled and restored
// before a restart recovers bit-exactly. The spill released its WAL
// records and segment rotation unlinked the segment holding its create
// record, so recovery rests on the spill file, kept as the tenant's
// checkpoint, plus the rows logged since the restore.
func TestWALRecoveryAfterSpillRestore(t *testing.T) {
	walDir, spillDir := t.TempDir(), t.TempDir()
	now := time.Unix(1000, 0)
	boot := func() (*Server, *httptest.Server, *wal.Log) {
		l, err := wal.Open(walDir, wal.WithShards(1), wal.WithSyncInterval(0), wal.WithSegmentBytes(512))
		if err != nil {
			t.Fatal(err)
		}
		treg, err := registry.New(registry.WithSpillDir(spillDir), registry.WithEvictTTL(time.Minute),
			registry.WithClock(func() time.Time { return now }))
		if err != nil {
			t.Fatal(err)
		}
		s := newServer(t, lmCfg(3), WithRegistry(treg), WithWAL(l))
		if _, err := s.RecoverWAL(); err != nil {
			t.Fatal(err)
		}
		return s, httptest.NewServer(s.Handler()), l
	}
	s, ts, l := boot()
	doReq(t, "PUT", ts.URL+"/v2/tenants/a", lmTenantCfg).Body.Close()
	ingest := func(from int) {
		for i := from; i < from+20; i++ {
			postJSON(t, ts.URL+"/v2/tenants/a/rows",
				fmt.Sprintf(`{"updates":[{"row":[%d,1,%d],"t":%d}]}`, i%3, i%5, i)).Body.Close()
		}
	}
	ingest(0)
	now = now.Add(2 * time.Minute)
	if n := s.Registry().Sweep(); n != 1 {
		t.Fatalf("Sweep evicted %d, want 1", n)
	}
	ingest(20) // the first of these restores the tenant
	want := getBytes(t, ts.URL+"/v2/tenants/a/snapshot")
	ts.Close()
	l.Close()

	_, ts2, l2 := boot()
	defer func() { ts2.Close(); l2.Close() }()
	if got := getBytes(t, ts2.URL+"/v2/tenants/a/snapshot"); !bytes.Equal(got, want) {
		t.Fatalf("spilled-then-restored tenant diverged after recovery: %d vs %d bytes", len(got), len(want))
	}
}

// TestWALDamagedHealthDegraded: corruption found during replay turns
// /v2/health degraded (503) with the wal.damaged flag set.
func TestWALDamagedHealthDegraded(t *testing.T) {
	dir := t.TempDir()
	_, ts, _ := walServer(t, dir)
	postJSON(t, ts.URL+"/v2/tenants/default/rows", `{"updates":[{"row":[1,0,0],"t":1}]}`).Body.Close()
	postJSON(t, ts.URL+"/v2/tenants/default/rows", `{"updates":[{"row":[0,1,0],"t":2}]}`).Body.Close()

	// Flip a byte early in the shard's segment so replay hits a CRC
	// mismatch before the tail (mid-segment damage, not a torn tail).
	segs, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	corrupted := false
	for _, seg := range segs {
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) > 40 {
			data[30] ^= 0xFF
			if err := os.WriteFile(seg, data, 0o644); err != nil {
				t.Fatal(err)
			}
			corrupted = true
		}
	}
	if !corrupted {
		t.Fatal("no segment large enough to corrupt")
	}

	_, ts2, st := walServer(t, dir)
	if !st.Damaged {
		t.Fatalf("recovery stats %+v, want damaged", st)
	}
	resp, err := http.Get(ts2.URL + "/v2/health")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("damaged health status %d", resp.StatusCode)
	}
	var hr healthResponse
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		t.Fatal(err)
	}
	if hr.Status != "degraded" || hr.WAL == nil || !hr.WAL.Damaged || !hr.WAL.Replayed {
		t.Fatalf("damaged health %+v wal %+v", hr, hr.WAL)
	}
}

// TestWALHealthFieldAbsentWithoutWAL: no WAL attached, no "wal" key
// in the health payload.
func TestWALHealthFieldAbsentWithoutWAL(t *testing.T) {
	ts, done := newTestServer(t)
	defer done()
	data := getBytes(t, ts.URL+"/v2/health")
	if bytes.Contains(data, []byte(`"wal"`)) {
		t.Fatalf("health without a WAL leaks the wal field: %s", data)
	}
}
