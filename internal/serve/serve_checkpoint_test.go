package serve

// One tenant checkpoint: an upload journals the tenant's spill-file
// bytes as one WAL record, from which replay rebuilds the tenant alone,
// whatever truncation unlinked before it.

import (
	"bytes"
	"encoding/binary"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"swsketch/internal/registry"
	"swsketch/internal/wal"
)

// upload posts a snapshot to a tenant and fails on any status but 200.
func upload(t *testing.T, url string, snap []byte) {
	t.Helper()
	resp, err := http.Post(url+"/snapshot", "application/octet-stream", bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upload: status %d", resp.StatusCode)
	}
}

// checkpointLog is a wal.Applier that keeps each tenant's last
// checkpoint record and skips every other record.
type checkpointLog map[string][]byte

func (c checkpointLog) Delete(string) (bool, error) { return false, nil }
func (c checkpointLog) Rows(string, uint64, [][]float64, []float64) (bool, error) {
	return false, nil
}
func (c checkpointLog) Checkpoint(tenant string, data []byte) (bool, error) {
	c[tenant] = data
	return true, nil
}

// TestCheckpointIsTheSpillFile: the checkpoint record an upload
// journals carries, byte for byte, the spill file the registry writes
// for the same tenant state.
func TestCheckpointIsTheSpillFile(t *testing.T) {
	walDir, spillDir := t.TempDir(), t.TempDir()
	now := time.Unix(1000, 0)
	treg, err := registry.New(registry.WithSpillDir(spillDir), registry.WithEvictTTL(time.Minute),
		registry.WithClock(func() time.Time { return now }))
	if err != nil {
		t.Fatal(err)
	}
	s, ts, _ := walBoot(t, walDir, lmCfg(3), WithRegistry(treg))
	url := ts.URL + "/v2/tenants/a"
	doReq(t, "PUT", url, lmTenantCfg).Body.Close()
	postRows(t, url, span(0, 40)...)
	upload(t, url, getBytes(t, url+"/snapshot"))
	now = now.Add(2 * time.Minute)
	if n := s.Registry().Sweep(); n != 1 {
		t.Fatalf("Sweep evicted %d, want 1", n)
	}
	spills, err := filepath.Glob(filepath.Join(spillDir, "*.tenant"))
	if err != nil || len(spills) != 1 {
		t.Fatalf("spill files %v (%v), want 1", spills, err)
	}
	want, err := os.ReadFile(spills[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WAL().Close(); err != nil {
		t.Fatal(err)
	}

	l, err := wal.Open(walDir, wal.WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	logged := checkpointLog{}
	if _, err := l.Replay(logged); err != nil {
		t.Fatal(err)
	}
	if got, ok := logged["a"]; !ok || !bytes.Equal(got, want) {
		t.Fatalf("the journaled checkpoint (%d bytes, found %v) is not the %d-byte spill file", len(got), ok, len(want))
	}
}

// TestCheckpointCrashDrill: after an upload's checkpoint has truncated
// the segment holding the tenant's creation, a crash at any later
// record boundary, or inside the record after it, replays the tenant
// bit for bit from the checkpoint plus the rows logged since.
func TestCheckpointCrashDrill(t *testing.T) {
	dir := t.TempDir()
	_, ts, _ := walBoot(t, dir, lmCfg(3))
	url := ts.URL + "/v2/tenants/a"
	doReq(t, "PUT", url, lmTenantCfg).Body.Close()
	postRows(t, url, span(0, 40)...)
	upload(t, url, getBytes(t, url+"/snapshot"))
	if _, err := os.Stat(filepath.Join(dir, "s00-0000000000000001.wal")); !os.IsNotExist(err) {
		t.Fatalf("the segment holding the creation survived the checkpoint: %v", err)
	}

	// A crash point: the log's segments, the last one's length, and the
	// tenant's snapshot at that point.
	type point struct {
		segs []string
		size int64
		want []byte
	}
	var points []point
	mark := func() {
		segs, err := filepath.Glob(filepath.Join(dir, "*.wal"))
		if err != nil || len(segs) == 0 {
			t.Fatalf("segments %v: %v", segs, err)
		}
		fi, err := os.Stat(segs[len(segs)-1])
		if err != nil {
			t.Fatal(err)
		}
		points = append(points, point{segs, fi.Size(), getBytes(t, url+"/snapshot")})
	}
	mark()
	for i := 40; i < 60; i++ {
		postRows(t, url, i)
		mark()
	}

	for _, p := range points {
		for _, torn := range []int64{0, 7} {
			crashed := t.TempDir()
			for i, seg := range p.segs {
				data, err := os.ReadFile(seg)
				if err != nil {
					t.Fatal(err)
				}
				if i == len(p.segs)-1 {
					data = data[:min(int64(len(data)), p.size+torn)]
				}
				if err := os.WriteFile(filepath.Join(crashed, filepath.Base(seg)), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			_, ts2, st := walBoot(t, crashed, lmCfg(3))
			if st.Failed != 0 || st.Damaged {
				t.Fatalf("crash at %d+%d bytes of %s: replay %+v", p.size, torn, filepath.Base(p.segs[len(p.segs)-1]), st)
			}
			if got := getBytes(t, ts2.URL+"/v2/tenants/a/snapshot"); !bytes.Equal(got, p.want) {
				t.Fatalf("crash at %d+%d bytes of %s: the tenant replayed into other bytes", p.size, torn, filepath.Base(p.segs[len(p.segs)-1]))
			}
			ts2.Close()
		}
	}
}

// TestReplayedCheckpointRefusesAnotherConfig: a default tenant that took
// an upload and restarts with another ℓ cannot replay the upload's
// checkpoint, which was taken under the old config. Replay counts the
// failure, and /v2/health reads degraded and names the record's tenant
// and error.
func TestReplayedCheckpointRefusesAnotherConfig(t *testing.T) {
	dir := t.TempDir()
	_, ts, _ := walBoot(t, dir, lmCfg(3))
	url := ts.URL + "/v2/tenants/default"
	postRows(t, url, span(0, 30)...)
	upload(t, url, getBytes(t, url+"/snapshot"))
	postRows(t, url, span(30, 40)...)
	ts.Close()

	cfg := lmCfg(3)
	cfg.Ell = 6
	_, ts2, st := walBoot(t, dir, cfg)
	if st.Failed != 1 {
		t.Fatalf("replay %+v, want 1 failed", st)
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
	if f := hr.WAL.Failures; len(f) != 1 || f[0].Tenant != DefaultTenant || f[0].Seq == 0 ||
		!strings.Contains(f[0].Err, "built from another config") {
		t.Fatalf("health names the failures %+v", f)
	}
}

// TestReplayedCheckpointWithTrailingByteFails: a checkpoint record with
// a byte past its sketch fails on replay like any corrupt checkpoint,
// and /v2/health names the record and the decoder's error.
func TestReplayedCheckpointWithTrailingByteFails(t *testing.T) {
	dir := t.TempDir()
	s, ts, _ := walBoot(t, dir, lmCfg(3))
	postRows(t, ts.URL+"/v2/tenants/default", span(0, 10)...)
	tn, _ := s.Registry().Get(DefaultTenant)
	if err := tn.Acquire(); err != nil {
		t.Fatal(err)
	}
	data, err := tn.Checkpoint(tn.Sketch(), tn.Updates())
	tn.Release()
	if err != nil {
		t.Fatal(err)
	}
	seq, err := s.WAL().AppendCheckpoint(DefaultTenant, append(data, 0))
	if err != nil {
		t.Fatal(err)
	}
	ts.Close()

	_, ts2, st := walBoot(t, dir, lmCfg(3))
	if st.Failed != 1 {
		t.Fatalf("replay %+v, want the checkpoint failed", st)
	}
	resp, err := http.Get(ts2.URL + "/v2/health")
	if err != nil {
		t.Fatal(err)
	}
	var hr healthResponse
	decode(t, resp, &hr)
	if f := hr.WAL.Failures; len(f) != 1 || f[0].Tenant != DefaultTenant || f[0].Seq != seq ||
		!strings.Contains(f[0].Err, "1 trailing bytes") {
		t.Fatalf("health status %d names the failures %+v", resp.StatusCode, f)
	}
}

// TestSpillDuringReplayReleasesTheTenant: a replay that spills tenants
// (a restart under a tenant cap) releases their WAL records, so once
// the last resident tenant spills too, one segment file remains; a
// third boot restores every tenant bit for bit from its spill file.
func TestSpillDuringReplayReleasesTheTenant(t *testing.T) {
	walDir, spillDir := t.TempDir(), t.TempDir()
	now := time.Unix(1000, 0)
	boot := func(opts ...registry.Option) (*Server, string) {
		treg, err := registry.New(append(opts, registry.WithSpillDir(spillDir), registry.WithShards(1),
			registry.WithEvictTTL(time.Minute), registry.WithClock(func() time.Time { return now }))...)
		if err != nil {
			t.Fatal(err)
		}
		s, ts, _ := walBoot(t, walDir, lmCfg(3), WithRegistry(treg))
		return s, ts.URL + "/v2/tenants/"
	}
	ids := []string{"t0", "t1", "t2", "t3", "t4"}
	s, base := boot()
	want := map[string][]byte{}
	for _, id := range ids {
		doReq(t, "PUT", base+id, lmTenantCfg).Body.Close()
		postRows(t, base+id, span(0, 20)...)
		want[id] = getBytes(t, base+id+"/snapshot")
	}
	s.WAL().Close()

	// The default tenant and one other fit under the cap, so replay
	// spills t0 to t3 as it creates the next tenant.
	s, _ = boot(registry.WithMaxTenants(2))
	now = now.Add(2 * time.Minute)
	if n := s.Registry().Sweep(); n != 1 {
		t.Fatalf("Sweep evicted %d, want the one tenant replay left resident", n)
	}
	if segs, err := filepath.Glob(filepath.Join(walDir, "*.wal")); err != nil || len(segs) != 1 {
		t.Fatalf("%d segment files remain (%v), want 1", len(segs), err)
	}
	s.WAL().Close()

	s, base = boot()
	for _, id := range ids {
		tn, ok := s.Registry().Get(id)
		if !ok {
			t.Fatalf("%s is gone", id)
		}
		if got := getBytes(t, base+id+"/snapshot"); tn.Updates() != 20 || !bytes.Equal(got, want[id]) {
			t.Fatalf("%s restored with %d updates into other bytes", id, tn.Updates())
		}
	}
}

// patchClock returns snap with its clock, the first F64 that reads t
// and is followed by a true Bool, set to v.
func patchClock(t *testing.T, snap []byte, lastT, v float64) []byte {
	t.Helper()
	var clock [9]byte
	binary.LittleEndian.PutUint64(clock[:], math.Float64bits(lastT))
	clock[8] = 1
	at := bytes.Index(snap, clock[:])
	if at < 0 {
		t.Fatalf("no clock at %v in the snapshot", lastT)
	}
	out := append([]byte(nil), snap...)
	binary.LittleEndian.PutUint64(out[at:], math.Float64bits(v))
	return out
}

// TestUploadRefusesNonFiniteClock: an upload whose clock reads +Inf,
// −Inf or NaN answers 400 and leaves the tenant's snapshot bytes as
// they were. A tenant restored to such a clock would refuse every row.
func TestUploadRefusesNonFiniteClock(t *testing.T) {
	ts, done := newTestServer(t)
	defer done()
	url := ts.URL + "/v2/tenants/default"
	postRows(t, url, span(0, 38)...)
	snap := getBytes(t, url+"/snapshot")
	for _, v := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		resp, err := http.Post(url+"/snapshot", "application/octet-stream", bytes.NewReader(patchClock(t, snap, 37, v)))
		if err != nil {
			t.Fatal(err)
		}
		if e := wantEnvelope(t, resp, http.StatusBadRequest, CodeInvalidArgument); !strings.Contains(e.Message, "clock") {
			t.Fatalf("clock %v: message %q", v, e.Message)
		}
		if got := getBytes(t, url+"/snapshot"); !bytes.Equal(got, snap) {
			t.Fatalf("clock %v: the refused upload changed the tenant", v)
		}
	}
}

// spillBoot boots a server journaling into walDir (1 shard, 512-byte
// segments) whose registry spills into spillDir a tenant that idles a
// minute by the clock *now. It returns the tenants' base URL.
func spillBoot(t *testing.T, walDir, spillDir string, now *time.Time) (*Server, string, wal.Stats) {
	t.Helper()
	treg, err := registry.New(registry.WithSpillDir(spillDir), registry.WithEvictTTL(time.Minute),
		registry.WithClock(func() time.Time { return *now }))
	if err != nil {
		t.Fatal(err)
	}
	s, ts, st := walBoot(t, walDir, lmCfg(3), WithRegistry(treg))
	return s, ts.URL + "/v2/tenants/", st
}

// sweepAll idles every tenant past its TTL and spills it, failing
// unless want tenants spill.
func sweepAll(t *testing.T, s *Server, now *time.Time, want int) {
	t.Helper()
	*now = now.Add(2 * time.Minute)
	if n := s.Registry().Sweep(); n != want {
		t.Fatalf("Sweep evicted %d, want %d", n, want)
	}
}

// TestUploadKeepsTheReplayOffset: an upload keeps the tenant's update
// count, so a row block logged before the upload can never meet the
// count of a later spill. The tenant takes 10 rows and spills, takes
// its own snapshot back and 5 more rows, and spills again; the default
// tenant's one row keeps every segment. The restart replays nothing
// failed into the same bytes. Were the count reset by the upload, the
// second spill's count 5 would meet the start of a block logged before
// the first, and replay would apply it onto the spilled state.
func TestUploadKeepsTheReplayOffset(t *testing.T) {
	walDir, spillDir := t.TempDir(), t.TempDir()
	now := time.Unix(1000, 0)
	s, base, _ := spillBoot(t, walDir, spillDir, &now)
	postRows(t, base+"default", 0)
	doReq(t, "PUT", base+"a", lmTenantCfg).Body.Close()
	postRows(t, base+"a", span(0, 10)...)
	sweepAll(t, s, &now, 1)
	upload(t, base+"a", getBytes(t, base+"a/snapshot"))
	postRows(t, base+"a", span(10, 15)...)
	want := getBytes(t, base+"a/snapshot")
	sweepAll(t, s, &now, 1)
	s.WAL().Close()

	s, base, st := spillBoot(t, walDir, spillDir, &now)
	if st.Failed != 0 || st.Damaged {
		t.Fatalf("replay %+v, want nothing failed", st)
	}
	if got := getBytes(t, base+"a/snapshot"); !bytes.Equal(got, want) {
		t.Fatalf("the tenant replayed into other bytes: %d vs %d", len(got), len(want))
	}
	if tn, _ := s.Registry().Get("a"); tn.Updates() != 15 {
		t.Fatalf("updates %d after the restart, want 15", tn.Updates())
	}
}

// TestReplayLeavesSpilledTenantsOnDisk: replay decides to skip a
// spilled tenant's row blocks from its update count alone, so the
// tenants stay spilled until their first use. Three tenants take 10
// rows each and spill; the default tenant's one row keeps every
// segment, so replay sees and skips all 33 of their records.
func TestReplayLeavesSpilledTenantsOnDisk(t *testing.T) {
	walDir, spillDir := t.TempDir(), t.TempDir()
	now := time.Unix(1000, 0)
	s, base, _ := spillBoot(t, walDir, spillDir, &now)
	postRows(t, base+"default", 0)
	ids := []string{"a", "b", "c"}
	for _, id := range ids {
		doReq(t, "PUT", base+id, lmTenantCfg).Body.Close()
		postRows(t, base+id, span(0, 10)...)
	}
	sweepAll(t, s, &now, len(ids))
	s.WAL().Close()

	s, base, st := spillBoot(t, walDir, spillDir, &now)
	if st.Applied != 1 || st.Skipped != 33 || st.Failed != 0 {
		t.Fatalf("replay %+v, want the default row applied and 33 records skipped", st)
	}
	for _, id := range ids {
		tn, ok := s.Registry().Get(id)
		if !ok || tn.Resident() {
			t.Fatalf("%s after replay: found %v, resident; want it spilled", id, ok)
		}
		getBytes(t, base+id+"/snapshot")
		if !tn.Resident() || tn.Updates() != 10 {
			t.Fatalf("%s after its first use: resident %v, %d updates", id, tn.Resident(), tn.Updates())
		}
	}
}

// TestCreationIsTheFirstCheckpoint: under a WAL, PUT journals one
// record, the tenant's creation checkpoint: its ID, its config and
// update count 0, with no sketch bytes.
func TestCreationIsTheFirstCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s, ts, _ := walBoot(t, dir, lmCfg(3))
	doReq(t, "PUT", ts.URL+"/v2/tenants/a", lmTenantCfg).Body.Close()
	tn, _ := s.Registry().Get("a")
	want, err := tn.Checkpoint(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WAL().Close(); err != nil {
		t.Fatal(err)
	}
	l, err := wal.Open(dir, wal.WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	logged := checkpointLog{}
	st, err := l.Replay(logged)
	if err != nil || st.Records != 1 || !bytes.Equal(logged["a"], want) {
		t.Fatalf("replay %+v (%v) of %d checkpoint bytes, want one record of the %d-byte creation checkpoint",
			st, err, len(logged["a"]), len(want))
	}
}

// TestEveryFrameworkReplaysFromItsCreation: replay builds a tenant of
// every framework from its creation checkpoint, LM-HASH included, which
// cannot snapshot. After a restart each tenant has its config, its
// update count, its answer and, where it has them, its snapshot bytes;
// a second restart with no traffic between reads the same.
func TestEveryFrameworkReplaysFromItsCreation(t *testing.T) {
	cfgs := map[string]string{
		registry.FrameworkSWR:     `{"framework":"swr","size":64,"d":3,"ell":4}`,
		registry.FrameworkSWOR:    `{"framework":"swor","size":64,"d":3,"ell":4}`,
		registry.FrameworkSWORAll: `{"framework":"swor-all","size":64,"d":3,"ell":4}`,
		registry.FrameworkLMFD:    lmTenantCfg,
		registry.FrameworkLMHash:  `{"framework":"lm-hash","size":64,"d":3,"ell":4,"b":2}`,
		registry.FrameworkDIFD:    `{"framework":"di-fd","size":48,"d":3,"ell":8,"levels":3,"r":100}`,
		registry.FrameworkDSFD:    `{"framework":"ds-fd","size":64,"d":3,"ell":4,"r":100}`,
		registry.FrameworkLMAMM:   `{"framework":"lm-amm","size":64,"d":3,"d_b":1,"ell":4,"b":2}`,
		registry.FrameworkDIAMM:   `{"framework":"di-amm","size":48,"d":3,"d_b":1,"ell":8,"levels":3,"r":100}`,
	}
	// state reads what a restart keeps of each tenant: its summary,
	// config and update count included, its answer and its snapshot.
	state := func(base string) map[string]string {
		out := map[string]string{}
		for _, fw := range registry.Frameworks() {
			out[fw] = string(getBytes(t, base+fw)) + string(getBytes(t, base+fw+"/approximation"))
			if fw != registry.FrameworkLMHash {
				out[fw] += string(getBytes(t, base+fw+"/snapshot"))
			}
		}
		return out
	}
	dir := t.TempDir()
	_, ts, _ := walBoot(t, dir, lmCfg(3))
	for _, fw := range registry.Frameworks() {
		cfg, ok := cfgs[fw]
		if !ok {
			t.Fatalf("no config for framework %s", fw)
		}
		url := ts.URL + "/v2/tenants/" + fw
		if resp := doReq(t, "PUT", url, cfg); resp.StatusCode != http.StatusCreated {
			t.Fatalf("PUT %s: status %d", fw, resp.StatusCode)
		}
		postRows(t, url, span(0, 12)...)
	}
	want := state(ts.URL + "/v2/tenants/")
	ts.Close()
	for restart := 1; restart <= 2; restart++ {
		_, ts, st := walBoot(t, dir, lmCfg(3))
		if st.Failed != 0 || st.Damaged {
			t.Fatalf("restart %d: replay %+v", restart, st)
		}
		got := state(ts.URL + "/v2/tenants/")
		for _, fw := range registry.Frameworks() {
			if got[fw] != want[fw] {
				t.Fatalf("restart %d: %s replayed into\n%.300s\nwant\n%.300s", restart, fw, got[fw], want[fw])
			}
		}
		ts.Close()
	}
}

// TestReplaySkipsACheckpointTheTenantMovedPast: a checkpoint applies
// only at or past the tenant's update count. Tenant a takes 10 rows,
// its own snapshot back and 10 more rows, and spills at 20; the default
// tenant's one row keeps every segment. A crash cuts the log after a's
// 18th row, so the spill file holds two rows the log lost. Replay
// skips the upload's checkpoint, at 10, with every other record of a,
// and a comes back from its spill file with 20 updates and the same
// bytes. Were the checkpoint applied, a would roll back to 18 rows.
func TestReplaySkipsACheckpointTheTenantMovedPast(t *testing.T) {
	walDir, spillDir := t.TempDir(), t.TempDir()
	now := time.Unix(1000, 0)
	s, base, _ := spillBoot(t, walDir, spillDir, &now)
	postRows(t, base+"default", 0)
	doReq(t, "PUT", base+"a", lmTenantCfg).Body.Close()
	postRows(t, base+"a", span(0, 10)...)
	upload(t, base+"a", getBytes(t, base+"a/snapshot"))
	postRows(t, base+"a", span(10, 18)...)
	segs, err := filepath.Glob(filepath.Join(walDir, "*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments %v: %v", segs, err)
	}
	last, err := os.Stat(segs[len(segs)-1])
	if err != nil {
		t.Fatal(err)
	}
	postRows(t, base+"a", 18, 19)
	want := getBytes(t, base+"a/snapshot")
	sweepAll(t, s, &now, 1)
	s.WAL().Close()

	// The crash: the log ends after a's 18th row.
	after, err := filepath.Glob(filepath.Join(walDir, "*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range after[len(segs):] {
		if err := os.Remove(seg); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Truncate(segs[len(segs)-1], last.Size()); err != nil {
		t.Fatal(err)
	}

	s, base, st := spillBoot(t, walDir, spillDir, &now)
	if st.Applied != 1 || st.Skipped != 20 || st.Failed != 0 || st.Damaged {
		t.Fatalf("replay %+v, want the default row applied and a's 20 records skipped", st)
	}
	tn, _ := s.Registry().Get("a")
	if tn.Resident() {
		t.Fatal("replay restored a from its spill file")
	}
	if got := getBytes(t, base+"a/snapshot"); tn.Updates() != 20 || !bytes.Equal(got, want) {
		t.Fatalf("a came back with %d updates and %d snapshot bytes, want 20 and the live %d", tn.Updates(), len(got), len(want))
	}
}
