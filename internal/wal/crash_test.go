package wal

// Crash-recovery property tests. The central claim of the ingest
// plane: kill the process at ANY byte offset mid-stream, replay the
// WAL, and the recovered sketch is bit-for-bit identical to one that
// ingested the surviving prefix without interruption. LM-FD is fully
// deterministic, so MarshalBinary equality is the exact oracle.

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"swsketch/internal/binenc"
	"swsketch/internal/core"
	"swsketch/internal/window"
)

// rowsApplier feeds replayed row blocks into a sketch, skipping any
// block whose start does not match the rows already applied — the
// same idempotence rule the serve layer uses.
type rowsApplier struct {
	sk      *core.LM
	applied uint64
	blocks  int
}

func (a *rowsApplier) Delete(string) (bool, error)             { return false, nil }
func (a *rowsApplier) Checkpoint(string, []byte) (bool, error) { return false, nil }

func (a *rowsApplier) Rows(tenant string, start uint64, rows [][]float64, times []float64) (bool, error) {
	if start != a.applied {
		return false, nil
	}
	a.sk.UpdateBatch(rows, times)
	a.applied += uint64(len(rows))
	a.blocks++
	return true, nil
}

const (
	crashD   = 6
	crashEll = 8
	crashB   = 4
)

func newCrashSketch() *core.LM {
	return core.NewLMFD(window.Seq(64), crashD, crashEll, crashB)
}

// writeCrashLog appends nblocks deterministic row blocks to a fresh
// single-shard log in dir, returning the blocks and the active
// segment's byte offset after each append (the record boundaries).
func writeCrashLog(t *testing.T, dir string, rng *rand.Rand, nblocks int) (blocks [][][]float64, times [][]float64, bounds []int64) {
	t.Helper()
	l := openTest(t, dir, WithSegmentBytes(1<<30)) // one segment: no rotation
	if _, err := l.Replay(nil); err != nil {
		t.Fatal(err)
	}
	var start uint64
	for b := 0; b < nblocks; b++ {
		n := 1 + rng.Intn(4)
		rows := make([][]float64, n)
		ts := make([]float64, n)
		for i := range rows {
			rows[i] = make([]float64, crashD)
			for j := range rows[i] {
				rows[i][j] = rng.NormFloat64()
			}
			ts[i] = float64(int(start) + i)
		}
		if _, err := l.AppendRows("t", start, rows, ts); err != nil {
			t.Fatal(err)
		}
		start += uint64(n)
		blocks = append(blocks, rows)
		times = append(times, ts)
		bounds = append(bounds, l.shards[0].size)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return blocks, times, bounds
}

// soleSegment returns the path of the directory's single segment file.
func soleSegment(t *testing.T, dir string) string {
	t.Helper()
	segs := segFiles(t, dir)
	if len(segs) != 1 {
		t.Fatalf("want one segment, got %v", segs)
	}
	return filepath.Join(dir, segs[0])
}

// cloneTruncated copies the log directory with its segment cut at
// offset — the on-disk state after a crash at that byte.
func cloneTruncated(t *testing.T, srcDir string, cut int64) string {
	t.Helper()
	dst := t.TempDir()
	src := soleSegment(t, srcDir)
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if cut > int64(len(data)) {
		cut = int64(len(data))
	}
	if err := os.WriteFile(filepath.Join(dst, filepath.Base(src)), data[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	return dst
}

func TestCrashReplayBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dir := t.TempDir()
	blocks, times, bounds := writeCrashLog(t, dir, rng, 30)
	total := bounds[len(bounds)-1]

	trials := 24
	if testing.Short() {
		trials = 6
	}
	cuts := []int64{0, 1, total - 1, total} // edges always covered
	for len(cuts) < trials {
		cuts = append(cuts, rng.Int63n(total+1))
	}

	for _, cut := range cuts {
		crashed := cloneTruncated(t, dir, cut)

		l, err := Open(crashed, WithShards(1), WithSyncInterval(0))
		if err != nil {
			t.Fatalf("cut %d: open: %v", cut, err)
		}
		ap := &rowsApplier{sk: newCrashSketch()}
		st, err := l.Replay(ap)
		if err != nil {
			t.Fatalf("cut %d: replay: %v", cut, err)
		}

		// Exactly the complete records survive: every boundary <= cut.
		wantBlocks := 0
		for _, b := range bounds {
			if b <= cut {
				wantBlocks++
			}
		}
		if ap.blocks != wantBlocks {
			t.Fatalf("cut %d: replayed %d blocks, want %d (stats %+v)", cut, ap.blocks, wantBlocks, st)
		}
		if st.Damaged {
			t.Fatalf("cut %d: clean truncation reported damage: %+v", cut, st)
		}
		midRecord := cut < total && (wantBlocks == len(bounds) || cut != 0 && (wantBlocks == 0 || bounds[wantBlocks-1] != cut))
		if midRecord && !st.Torn && cut > 0 {
			t.Fatalf("cut %d mid-record but Torn not reported: %+v", cut, st)
		}

		// The oracle: an uninterrupted run over the surviving prefix.
		ref := newCrashSketch()
		for i := 0; i < wantBlocks; i++ {
			ref.UpdateBatch(blocks[i], times[i])
		}
		got, err := ap.sk.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("cut %d: recovered sketch differs from uninterrupted run (%d vs %d bytes)",
				cut, len(got), len(want))
		}

		// Recovery is not just read-only: the log accepts new blocks
		// and a second crashless replay reproduces the extended state.
		// Timestamps continue from the recovered clock.
		more := blocks[0]
		moreTs := make([]float64, len(more))
		for i := range moreTs {
			moreTs[i] = float64(int(ap.applied) + i)
		}
		if _, err := l.AppendRows("t", ap.applied, more, moreTs); err != nil {
			t.Fatalf("cut %d: append after recovery: %v", cut, err)
		}
		ref.UpdateBatch(more, moreTs)
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}

		l2, err := Open(crashed, WithShards(1), WithSyncInterval(0))
		if err != nil {
			t.Fatal(err)
		}
		ap2 := &rowsApplier{sk: newCrashSketch()}
		if _, err := l2.Replay(ap2); err != nil {
			t.Fatal(err)
		}
		if err := l2.Close(); err != nil {
			t.Fatal(err)
		}
		if got2, _ := ap2.sk.MarshalBinary(); !bytes.Equal(got2, mustMarshal(t, ref)) {
			t.Fatalf("cut %d: replay after post-recovery appends diverged", cut)
		}
	}
}

func mustMarshal(t *testing.T, sk *core.LM) []byte {
	t.Helper()
	b, err := sk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestReplayFaults pins the failure shapes replay meets: a torn final
// record (benign), a duplicated sequence number (idempotent skip), a
// CRC flip (damage: stop the shard and surface degraded health), and
// one rows header of each failure class at the tail — a block that
// runs past the bytes is a torn tail, one over the row cap is damage.
func TestReplayFaults(t *testing.T) {
	rng := rand.New(rand.NewSource(11))

	build := func(t *testing.T) (dir string, bounds []int64) {
		dir = t.TempDir()
		_, _, bounds = writeCrashLog(t, dir, rng, 5)
		return dir, bounds
	}

	tests := []struct {
		name    string
		mutate  func(t *testing.T, path string, bounds []int64)
		records int
		applied int
		skipped int
		torn    bool
		damaged bool
	}{
		{
			name: "torn final record",
			mutate: func(t *testing.T, path string, bounds []int64) {
				data, _ := os.ReadFile(path)
				if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
					t.Fatal(err)
				}
			},
			records: 4, applied: 4, torn: true,
		},
		{
			name: "duplicate sequence number",
			mutate: func(t *testing.T, path string, bounds []int64) {
				data, _ := os.ReadFile(path)
				// Re-append record 3's bytes verbatim: redelivery after
				// a retried ack, the idempotence case.
				appendBytes(t, path, data[bounds[1]:bounds[2]])
			},
			records: 6, applied: 5, skipped: 1,
		},
		{
			name: "crc flip mid-file",
			mutate: func(t *testing.T, path string, bounds []int64) {
				data, _ := os.ReadFile(path)
				// Flip one bit in the float payload of record 2: the
				// frame still parses, the checksum catches it.
				data[bounds[0]+60] ^= 0x10
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			records: 1, applied: 1, damaged: true,
		},
		{
			name: "rows header past the bytes at the tail",
			mutate: func(t *testing.T, path string, bounds []int64) {
				appendBytes(t, path, rowsFrame(1<<20, 4, 1, 2))
			},
			records: 5, applied: 5, torn: true,
		},
		{
			name: "over-cap rows header at the tail",
			mutate: func(t *testing.T, path string, bounds []int64) {
				appendBytes(t, path, rowsFrame(maxBlockRows+1, 4, 1, 2))
			},
			records: 5, applied: 5, damaged: true,
		},
	}

	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			dir, bounds := build(t)
			tc.mutate(t, soleSegment(t, dir), bounds)

			l, err := Open(dir, WithShards(1), WithSyncInterval(0))
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			ap := &rowsApplier{sk: newCrashSketch()}
			st, err := l.Replay(ap)
			if err != nil {
				t.Fatalf("replay: %v", err)
			}
			if st.Records != tc.records || st.Applied != tc.applied || st.Skipped != tc.skipped {
				t.Fatalf("stats %+v, want records=%d applied=%d skipped=%d",
					st, tc.records, tc.applied, tc.skipped)
			}
			if st.Torn != tc.torn || st.Damaged != tc.damaged {
				t.Fatalf("stats %+v, want torn=%v damaged=%v", st, tc.torn, tc.damaged)
			}
		})
	}
}

// oldSnapshotFrame is a kind-4 snapshot record as older logs wrote it,
// CRC included: U64 updates, F64 lastT, Bool seen, then the snapshot.
func oldSnapshotFrame(seq uint64) []byte {
	w := binenc.NewWriter()
	w.U32(recMagic)
	w.U64(seq)
	w.U32(4)
	w.Blob([]byte("t"))
	w.U64(9)
	w.F64(7.5)
	w.Bool(true)
	w.Blob([]byte("snapshot-bytes"))
	w.U32(crc32.ChecksumIEEE(w.Bytes()))
	return w.Bytes()
}

// oldCreateFrame is a kind-2 create record as older logs wrote it, CRC
// included: the tenant's config JSON.
func oldCreateFrame(seq uint64) []byte {
	w := binenc.NewWriter()
	w.U32(recMagic)
	w.U64(seq)
	w.U32(2)
	w.Blob([]byte("alpha"))
	w.Blob([]byte(`{"d":2}`))
	w.U32(crc32.ChecksumIEEE(w.Bytes()))
	return w.Bytes()
}

// TestOldSnapshotRecordReadsAsDamaged: a log holding a kind-4 snapshot
// record from an older version replays the records before it and
// reports the shard damaged. The applier gets nothing of the record or
// of what follows it, so its payload is never read as a checkpoint.
func TestOldSnapshotRecordReadsAsDamaged(t *testing.T) {
	dir := t.TempDir()
	writeCrashLog(t, dir, rand.New(rand.NewSource(17)), 5)
	path := soleSegment(t, dir)
	appendBytes(t, path, oldSnapshotFrame(6))
	after := record{seq: 7, kind: KindRows, tenant: "t", start: 9, rows: [][]float64{make([]float64, crashD)}, times: []float64{9}}
	appendBytes(t, path, after.encodedBytes())

	l, err := Open(dir, WithShards(1), WithSyncInterval(0))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ap := newRecApplier()
	st, err := l.Replay(ap)
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 5 || st.Applied != 5 || !st.Damaged || st.Torn || len(ap.events) != 5 {
		t.Fatalf("stats %+v, events %v: want the 5 rows records before the old snapshot record, and damage", st, ap.events)
	}
	for _, ev := range ap.events {
		if !strings.HasPrefix(ev, "rows t ") {
			t.Fatalf("replay delivered %q", ev)
		}
	}
}

// TestOldCreateRecordNamesTheDamage: a kind-2 create record of an
// older log decodes as corrupt, so replay applies the records before
// it, stops the shard there and names the segment, the record's byte
// offset and the unknown kind in Stats.
func TestOldCreateRecordNamesTheDamage(t *testing.T) {
	if _, _, err := decodeRecord(oldCreateFrame(1), 0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("a kind-2 record decodes with %v, want ErrCorrupt", err)
	}
	dir := t.TempDir()
	_, _, bounds := writeCrashLog(t, dir, rand.New(rand.NewSource(19)), 3)
	path := soleSegment(t, dir)
	appendBytes(t, path, oldCreateFrame(4))

	l := openTest(t, dir)
	defer l.Close()
	st, err := l.Replay(newRecApplier())
	if err != nil {
		t.Fatal(err)
	}
	want := Damage{Segment: filepath.Base(path), Offset: int(bounds[len(bounds)-1]),
		Err: "wal: corrupt record: unknown record kind 2"}
	if st.Applied != 3 || !st.Damaged || len(st.Damage) != 1 || st.Damage[0] != want {
		t.Fatalf("replay %+v, want the 3 rows records applied and the damage %+v", st, want)
	}
}

// TestDamageStopsOnlyItsShard: damage in one shard stops that shard's
// replay alone; a later shard still replays every one of its
// segments.
func TestDamageStopsOnlyItsShard(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir, WithShards(2), WithSegmentBytes(256))
	if _, err := l.Replay(nil); err != nil {
		t.Fatal(err)
	}
	var first, second string // tenants of shards 0 and 1
	for i := 0; first == "" || second == ""; i++ {
		id := fmt.Sprintf("t%d", i)
		if l.shardFor(id).idx == 0 {
			first = id
		} else {
			second = id
		}
	}
	rows, times := block(4, 4, 1)
	for i := 0; i < 6; i++ {
		for _, id := range []string{first, second} {
			if _, err := l.AppendRows(id, uint64(i*4), rows, times); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs := segFiles(t, dir) // sorted: shard 0's first
	data, err := os.ReadFile(filepath.Join(dir, segs[0]))
	if err != nil {
		t.Fatal(err)
	}
	data[0] ^= 0xFF
	if err := os.WriteFile(filepath.Join(dir, segs[0]), data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2 := openTest(t, dir, WithShards(2), WithSegmentBytes(256))
	defer l2.Close()
	ap := newRecApplier()
	st, err := l2.Replay(ap)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Damaged || len(st.Damage) != 1 || st.Damage[0].Segment != segs[0] || ap.rows[second] != 24 {
		t.Fatalf("replay %+v applied %d of %s's 24 rows, want them all and the damage named in %s",
			st, ap.rows[second], second, segs[0])
	}
}

// appendBytes appends data to the file at path.
func appendBytes(t *testing.T, path string, data []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
}

// TestDamagedMidSegmentTear pins the positional rule: a tear is only
// benign at the tail of the LAST segment. The same truncation inside
// an earlier segment means records after it were acknowledged and
// lost — that is damage, not a clean stop.
func TestDamagedMidSegmentTear(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	dir := t.TempDir()

	l := openTest(t, dir, WithSegmentBytes(512))
	if _, err := l.Replay(nil); err != nil {
		t.Fatal(err)
	}
	var start uint64
	for b := 0; b < 12; b++ {
		rows := make([][]float64, 2)
		ts := make([]float64, 2)
		for i := range rows {
			rows[i] = make([]float64, crashD)
			for j := range rows[i] {
				rows[i][j] = rng.NormFloat64()
			}
			ts[i] = float64(int(start) + i)
		}
		if _, err := l.AppendRows("t", start, rows, ts); err != nil {
			t.Fatal(err)
		}
		start += 2
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	segs := segFiles(t, dir)
	if len(segs) < 2 {
		t.Fatalf("need several segments, got %v", segs)
	}
	// Tear the FIRST segment: chop its tail mid-record.
	first := filepath.Join(dir, segs[0])
	data, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(first, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	l2 := openTest(t, dir, WithSegmentBytes(512))
	defer l2.Close()
	st, err := l2.Replay(&rowsApplier{sk: newCrashSketch()})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Damaged {
		t.Fatalf("mid-segment tear not reported as damage: %+v", st)
	}
}
