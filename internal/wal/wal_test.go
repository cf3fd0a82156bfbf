package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"swsketch/internal/obs"
)

// recApplier records everything replay delivers, in order.
type recApplier struct {
	events  []string
	rows    map[string]int // tenant -> total rows applied
	skipAll bool
}

func newRecApplier() *recApplier {
	return &recApplier{rows: make(map[string]int)}
}

func (a *recApplier) Rows(tenant string, start uint64, rows [][]float64, times []float64) (bool, error) {
	if a.skipAll {
		return false, nil
	}
	a.events = append(a.events, fmt.Sprintf("rows %s start=%d n=%d", tenant, start, len(rows)))
	a.rows[tenant] += len(rows)
	return true, nil
}

func (a *recApplier) Checkpoint(tenant string, data []byte) (bool, error) {
	if a.skipAll {
		return false, nil
	}
	a.events = append(a.events, fmt.Sprintf("checkpoint %s %s", tenant, data))
	return true, nil
}

func (a *recApplier) Delete(tenant string) (bool, error) {
	if a.skipAll {
		return false, nil
	}
	a.events = append(a.events, "delete "+tenant)
	return true, nil
}

// openTest opens a log in dir with per-append fsync (deterministic
// tests) and a single shard unless opts override.
func openTest(t *testing.T, dir string, opts ...Option) *Log {
	t.Helper()
	all := append([]Option{WithShards(1), WithSyncInterval(0)}, opts...)
	l, err := Open(dir, all...)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return l
}

func block(n, d int, base float64) ([][]float64, []float64) {
	rows := make([][]float64, n)
	times := make([]float64, n)
	for i := range rows {
		rows[i] = make([]float64, d)
		for j := range rows[i] {
			rows[i][j] = base + float64(i*d+j)
		}
		times[i] = base + float64(i)
	}
	return rows, times
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir)
	if _, err := l.Replay(nil); err != nil {
		t.Fatalf("replay fresh: %v", err)
	}

	if _, err := l.AppendCheckpoint("alpha", []byte("creation")); err != nil {
		t.Fatalf("creation: %v", err)
	}
	rows, times := block(4, 3, 10)
	if _, err := l.AppendRows("alpha", 0, rows, times); err != nil {
		t.Fatalf("rows: %v", err)
	}
	if _, err := l.AppendCheckpoint("alpha", []byte("blobdata")); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if _, err := l.AppendDelete("alpha"); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	l2 := openTest(t, dir)
	ap := newRecApplier()
	st, err := l2.Replay(ap)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	defer l2.Close()
	want := []string{
		"checkpoint alpha creation",
		"rows alpha start=0 n=4",
		"checkpoint alpha blobdata",
		"delete alpha",
	}
	if len(ap.events) != len(want) {
		t.Fatalf("replayed %d events, want %d: %v", len(ap.events), len(want), ap.events)
	}
	for i, w := range want {
		if ap.events[i] != w {
			t.Fatalf("event %d = %q, want %q", i, ap.events[i], w)
		}
	}
	if st.Records != 4 || st.Applied != 4 || st.Torn || st.Damaged {
		t.Fatalf("stats: %+v", st)
	}
	// The log stays appendable after replay, continuing the sequence.
	if seq, err := l2.AppendCheckpoint("beta", []byte(`{}`)); err != nil || seq != 5 {
		t.Fatalf("append after replay: seq=%d err=%v", seq, err)
	}
}

func TestAppendBeforeReplayFails(t *testing.T) {
	l := openTest(t, t.TempDir())
	defer l.Close()
	if _, err := l.AppendCheckpoint("x", nil); err == nil {
		t.Fatal("append before Replay should fail")
	}
	if _, err := l.Replay(nil); err != nil {
		t.Fatalf("replay: %v", err)
	}
	if _, err := l.Replay(nil); err == nil {
		t.Fatal("second Replay should fail")
	}
}

func TestRowsTimesMismatch(t *testing.T) {
	l := openTest(t, t.TempDir())
	defer l.Close()
	if _, err := l.Replay(nil); err != nil {
		t.Fatal(err)
	}
	rows, _ := block(3, 2, 0)
	if _, err := l.AppendRows("t", 0, rows, []float64{1}); err == nil {
		t.Fatal("mismatched rows/times should fail")
	}
}

func segFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), segExt) {
			out = append(out, e.Name())
		}
	}
	return out
}

func TestRotationAndTruncation(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments so every block rotates.
	l := openTest(t, dir, WithSegmentBytes(256))
	if _, err := l.Replay(nil); err != nil {
		t.Fatal(err)
	}
	rows, times := block(4, 4, 1)
	for i := 0; i < 8; i++ {
		if _, err := l.AppendRows("hot", uint64(i*4), rows, times); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if n := len(segFiles(t, dir)); n < 4 {
		t.Fatalf("expected rotation to leave several segments, got %d", n)
	}

	// Spill notification releases every record; closed segments vanish.
	l.Released("hot")
	if n := len(segFiles(t, dir)); n != 1 {
		t.Fatalf("after release want only the active segment, got %d: %v", n, segFiles(t, dir))
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Replay of the truncated log sees only what the active segment
	// still held — records from unlinked closed segments are gone. (In
	// the real system the applier's start check skips these: the spill
	// that triggered Released already covers them.)
	l2 := openTest(t, dir)
	ap := newRecApplier()
	st, err := l2.Replay(ap)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if st.Rows > 4 {
		t.Fatalf("truncated segments replayed: %+v %v", st, ap.events)
	}
	for _, ev := range ap.events {
		if !strings.Contains(ev, "start=28") {
			t.Fatalf("non-tail record survived truncation: %v", ap.events)
		}
	}
	// But the sequence counter still advances past the unlinked records.
	seq, err := l2.AppendCheckpoint("hot", nil)
	if err != nil || seq != 9 {
		t.Fatalf("seq after truncated reopen: %d err=%v", seq, err)
	}
}

func TestSnapshotSupersedesAndTruncates(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir, WithSegmentBytes(256))
	if _, err := l.Replay(nil); err != nil {
		t.Fatal(err)
	}
	rows, times := block(4, 4, 1)
	for i := 0; i < 6; i++ {
		if _, err := l.AppendRows("t", uint64(i*4), rows, times); err != nil {
			t.Fatal(err)
		}
	}
	before := len(segFiles(t, dir))
	// A 22-byte checkpoint's record overflows the 256-byte segment that
	// holds the last rows block, so that segment closes and truncates.
	if _, err := l.AppendCheckpoint("t", []byte("checkpoint-of-22-bytes")); err != nil {
		t.Fatal(err)
	}
	after := len(segFiles(t, dir))
	if after >= before {
		t.Fatalf("snapshot should truncate closed segments: %d -> %d", before, after)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2 := openTest(t, dir)
	ap := newRecApplier()
	st, err := l2.Replay(ap)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	// Only records at or after the snapshot survive on disk.
	for _, ev := range ap.events {
		if strings.HasPrefix(ev, "rows") {
			t.Fatalf("pre-snapshot rows survived truncation: %v", ap.events)
		}
	}
	if st.Damaged || st.Torn {
		t.Fatalf("clean log reported damage: %+v", st)
	}
}

func TestShardingSpreadsTenants(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, WithShards(4), WithSyncInterval(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Replay(nil); err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	for i := 0; i < 64; i++ {
		id := fmt.Sprintf("tenant-%d", i)
		seen[l.shardFor(id).idx] = true
		if _, err := l.AppendCheckpoint(id, nil); err != nil {
			t.Fatal(err)
		}
	}
	if len(seen) != 4 {
		t.Fatalf("64 tenants landed on %d/4 shards", len(seen))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, WithShards(4), WithSyncInterval(0))
	if err != nil {
		t.Fatal(err)
	}
	ap := newRecApplier()
	st, err := l2.Replay(ap)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if st.Applied != 64 {
		t.Fatalf("replayed %d of 64 checkpoints", st.Applied)
	}

	// Opening with fewer shards than the directory holds must refuse —
	// records would silently replay onto the wrong stripe.
	if _, err := Open(dir, WithShards(2)); err == nil {
		t.Fatal("open with fewer shards than segments should fail")
	}
}

func TestGroupCommitFlusher(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, WithShards(1), WithSyncInterval(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Replay(nil); err != nil {
		t.Fatal(err)
	}
	rows, times := block(2, 2, 0)
	for i := 0; i < 10; i++ {
		if _, err := l.AppendRows("t", uint64(i*2), rows, times); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

func TestMetricsRegistered(t *testing.T) {
	reg := obs.NewRegistry()
	l := openTest(t, t.TempDir(), WithObs(reg))
	if _, err := l.Replay(nil); err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	rows, times := block(3, 2, 0)
	if _, err := l.AppendRows("t", 0, rows, times); err != nil {
		t.Fatal(err)
	}
	text := reg.Expose()
	for _, want := range []string{
		"swsketch_wal_appends_total 1",
		"swsketch_wal_rows_total 3",
		"swsketch_wal_fsyncs_total",
		"swsketch_wal_segments",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, text)
		}
	}
}

func TestForeignFilesIgnored(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	l := openTest(t, dir)
	if _, err := l.Replay(nil); err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.AppendCheckpoint("t", nil); err != nil {
		t.Fatal(err)
	}
}

// rowsRefused fails every row block, naming it, and records the rest.
type rowsRefused struct{ *recApplier }

func (rowsRefused) Rows(tenant string, start uint64, _ [][]float64, _ []float64) (bool, error) {
	return false, fmt.Errorf("rows %s at %d refused", tenant, start)
}

// TestReplayKeepsTheFirstFailures: replay counts every record the
// applier fails and keeps the first maxFailures of them, each with its
// tenant, sequence number and error.
func TestReplayKeepsTheFirstFailures(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir)
	if _, err := l.Replay(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendCheckpoint("alpha", []byte("creation")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		rows, times := block(1, 3, float64(i))
		if _, err := l.AppendRows("alpha", uint64(i), rows, times); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	st, err := openTest(t, dir).Replay(rowsRefused{newRecApplier()})
	if err != nil {
		t.Fatal(err)
	}
	if st.Applied != 1 || st.Failed != 10 || len(st.Failures) != maxFailures {
		t.Fatalf("replay %+v, want the checkpoint applied and 10 failed, %d of them kept", st, maxFailures)
	}
	for i, f := range st.Failures {
		want := Failure{Tenant: "alpha", Seq: uint64(i + 2), Err: fmt.Sprintf("rows alpha at %d refused", i)}
		if f != want {
			t.Fatalf("failure %d = %+v, want %+v", i, f, want)
		}
	}
}
