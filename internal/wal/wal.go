// Package wal is the ingest plane's durability layer: a per-shard
// write-ahead log of binenc-framed records (ingested row blocks,
// tenant creations/deletions, tenant checkpoints) that lets a crashed
// node rebuild every tenant sketch bit-exactly by replay.
//
// Design:
//
//   - Striping. Tenants hash (FNV-1a, like the registry) onto a fixed
//     number of shard logs, each with its own segment files, sequence
//     counter, and mutex, so appends for different tenants mostly do
//     not contend. One tenant's records are totally ordered within its
//     shard; cross-tenant order is irrelevant to recovery.
//   - Group commit. Appends buffer into the active segment file and an
//     fsync goroutine flushes every shard on a tunable interval
//     (WithSyncInterval): the classic fsync-batching trade — at most
//     one interval of acknowledged-but-unsynced rows is at risk on
//     power loss, and the fsync cost is amortised over every append in
//     the window. A non-positive interval syncs on every append.
//   - Segments and truncation. The active segment rotates at
//     WithSegmentBytes. Each shard keeps one mark per tenant: the
//     first sequence number whose effect is not yet durable elsewhere.
//     A checkpoint record moves the mark to itself, since it holds the
//     tenant's whole state (ID, config, update count and sketch); a
//     spill, drop or deletion clears it (Released, or the delete
//     append). Closed segments wholly below every mark are unlinked.
//   - Replay. Replay walks every shard's segments in order, skipping
//     duplicate sequence numbers (idempotent re-delivery) and records
//     whose effect a spill file already covers, and surfaces a
//     torn final record as a clean stop vs anything else as damage —
//     the serve layer degrades health on the latter.
//
// Between checkpoints, whose bytes the registry writes and reads, the
// log stores raw ingested blocks: replay feeds the same rows through
// the same deterministic UpdateBatch path, which is what makes
// recovery bit-exact for the deterministic frameworks.
package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"swsketch/internal/obs"
	"swsketch/internal/trace"
)

// Option configures a Log; see WithShards, WithSegmentBytes,
// WithSyncInterval, WithObs, WithTrace.
type Option func(*Log)

// WithShards sets the number of shard logs (default 4). More shards
// mean less append contention and more open files.
func WithShards(n int) Option {
	return func(l *Log) {
		if n < 1 {
			panic(fmt.Sprintf("wal: shards %d", n))
		}
		l.nshards = n
	}
}

// WithSegmentBytes sets the active-segment rotation threshold
// (default 64 MiB). Smaller segments truncate at a finer grain.
func WithSegmentBytes(n int64) Option {
	return func(l *Log) {
		if n < 1 {
			panic(fmt.Sprintf("wal: segment bytes %d", n))
		}
		l.segBytes = n
	}
}

// WithSyncInterval sets the group-commit fsync cadence (default 5ms).
// A non-positive interval fsyncs on every append — full durability at
// single-append latency cost. With a positive interval, Append returns
// once the record is written to the OS; at most one interval of
// acknowledged rows is lost on power failure.
func WithSyncInterval(d time.Duration) Option {
	return func(l *Log) { l.syncEvery = d }
}

// WithObs publishes WAL metrics into reg: append/row/byte counters,
// fsync count and latency histogram, and live segment/unsynced-bytes
// gauges.
func WithObs(reg *obs.Registry) Option {
	return func(l *Log) { l.obs = reg }
}

// WithTrace emits wal_append (hot — sample the tracer) and wal_replay
// events into tr.
func WithTrace(tr *trace.Tracer) Option {
	return func(l *Log) { l.tr = tr }
}

// Log is a sharded write-ahead log rooted at one directory. Safe for
// concurrent use. Open, then Replay exactly once, then Append.
type Log struct {
	dir       string
	nshards   int
	segBytes  int64
	syncEvery time.Duration
	obs       *obs.Registry
	tr        *trace.Tracer

	shards    []*logShard
	replayed  atomic.Bool
	closedLog bool
	replayMu  sync.Mutex // serialises Replay and Close
	stopFlush chan struct{}
	flushWG   sync.WaitGroup

	appends, rows, bytes, fsyncs, truncated *obs.Counter
	fsyncHist                               *obs.Histogram

	appendHook func(tenant string, rows, bytes int)
}

// SetAppendHook registers fn to run after every successful record
// append, carrying the tenant, the record's row count, and its
// encoded size. The serve layer feeds it to the hot-key sidecar's
// WAL plane. fn runs under the shard lock on the append hot path, so
// it must be cheap and must not call back into the log. Call before
// the log takes traffic; it is not synchronised against appends.
func (l *Log) SetAppendHook(fn func(tenant string, rows, bytes int)) { l.appendHook = fn }

// logShard is one stripe: its own segment files, sequence counter,
// and lock.
type logShard struct {
	log *Log
	idx int

	mu         sync.Mutex
	f          *os.File
	size       int64
	dirty      bool
	err        error // first sync/write failure; sticks
	seq        uint64
	activeInfo segmentInfo
	closed     []segmentInfo
	// needed maps tenant -> first seq whose effect is not durable
	// outside the WAL. min over the map bounds what truncation keeps.
	needed map[string]uint64
}

// segmentInfo describes one on-disk segment file.
type segmentInfo struct {
	path  string
	first uint64 // seq of the first record
	last  uint64 // seq of the last record (active: highest written)
}

const segExt = ".wal"

// Open prepares a log rooted at dir (created if missing) and scans
// existing segments. No record is read until Replay, which must be
// called exactly once — on an empty directory it is a cheap no-op —
// before the first Append.
func Open(dir string, opts ...Option) (*Log, error) {
	l := &Log{
		dir:       dir,
		nshards:   4,
		segBytes:  64 << 20,
		syncEvery: 5 * time.Millisecond,
		stopFlush: make(chan struct{}),
	}
	for _, o := range opts {
		o(l)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l.shards = make([]*logShard, l.nshards)
	for i := range l.shards {
		l.shards[i] = &logShard{log: l, idx: i, needed: make(map[string]uint64)}
	}
	if err := l.scanSegments(); err != nil {
		return nil, err
	}
	if l.obs != nil {
		l.registerMetrics()
	}
	return l, nil
}

// registerMetrics wires the append-path counters and gauges.
func (l *Log) registerMetrics() {
	l.appends = l.obs.Counter("swsketch_wal_appends_total",
		"Records appended to the WAL.", nil)
	l.rows = l.obs.Counter("swsketch_wal_rows_total",
		"Rows carried by appended WAL records.", nil)
	l.bytes = l.obs.Counter("swsketch_wal_bytes_total",
		"Bytes appended to WAL segments.", nil)
	l.fsyncs = l.obs.Counter("swsketch_wal_fsyncs_total",
		"Group-commit fsync calls.", nil)
	l.truncated = l.obs.Counter("swsketch_wal_segments_truncated_total",
		"Closed segments unlinked because every record was released.", nil)
	l.fsyncHist = l.obs.Histogram("swsketch_wal_fsync_seconds",
		"Group-commit fsync latency.", nil, obs.LatencyBuckets)
	l.obs.GaugeFunc("swsketch_wal_segments",
		"Live segment files across shards.", nil, func() float64 {
			n := 0
			for _, sh := range l.shards {
				sh.mu.Lock()
				n += len(sh.closed)
				if sh.f != nil {
					n++
				}
				sh.mu.Unlock()
			}
			return float64(n)
		})
}

// segName builds a segment filename; the zero-padded first-seq keeps
// lexical order equal to replay order.
func (l *Log) segName(shard int, first uint64) string {
	return filepath.Join(l.dir, fmt.Sprintf("s%02d-%016x%s", shard, first, segExt))
}

// scanSegments indexes existing segment files per shard, sorted by
// first sequence number. Record contents are not read here.
func (l *Log) scanSegments() error {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return fmt.Errorf("wal: scan: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, segExt) {
			continue
		}
		base := strings.TrimSuffix(name, segExt)
		var shard int
		var first uint64
		if n, err := fmt.Sscanf(base, "s%02d-%016x", &shard, &first); n != 2 || err != nil {
			continue // foreign file in a shared directory
		}
		if shard < 0 || shard >= l.nshards {
			return fmt.Errorf("wal: segment %s names shard %d but the log has %d shards", name, shard, l.nshards)
		}
		sh := l.shards[shard]
		sh.closed = append(sh.closed, segmentInfo{path: filepath.Join(l.dir, name), first: first})
	}
	for _, sh := range l.shards {
		sort.Slice(sh.closed, func(i, j int) bool { return sh.closed[i].first < sh.closed[j].first })
	}
	return nil
}

// shardFor stripes a tenant ID onto its shard by FNV-1a.
func (l *Log) shardFor(tenant string) *logShard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(tenant); i++ {
		h ^= uint64(tenant[i])
		h *= prime64
	}
	return l.shards[h%uint64(l.nshards)]
}

// start opens fresh active segments and the flusher; called by Replay
// once recovery is done.
func (l *Log) start() error {
	for _, sh := range l.shards {
		if err := sh.openActive(); err != nil {
			return err
		}
	}
	if l.syncEvery > 0 {
		l.flushWG.Add(1)
		go l.flushLoop()
	}
	return nil
}

// openActive begins a new active segment after seq. Caller owns the
// shard (replay/rotation). A leftover segment with the same first-seq
// name contributed nothing to replay (it was empty, torn, or all
// duplicates), so it is discarded rather than collided with.
func (sh *logShard) openActive() error {
	path := sh.log.segName(sh.idx, sh.seq+1)
	for i, seg := range sh.closed {
		if seg.path == path {
			_ = os.Remove(path)
			sh.closed = append(sh.closed[:i], sh.closed[i+1:]...)
			break
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: open segment: %w", err)
	}
	sh.f = f
	sh.size = 0
	sh.dirty = false
	sh.activeInfo = segmentInfo{path: path, first: sh.seq + 1, last: sh.seq}
	return nil
}

// flushLoop is the group-commit goroutine: every interval it fsyncs
// each dirty shard.
func (l *Log) flushLoop() {
	defer l.flushWG.Done()
	tick := time.NewTicker(l.syncEvery)
	defer tick.Stop()
	for {
		select {
		case <-l.stopFlush:
			return
		case <-tick.C:
			for _, sh := range l.shards {
				sh.mu.Lock()
				sh.syncLocked()
				sh.mu.Unlock()
			}
		}
	}
}

// syncLocked fsyncs the active segment if it has unsynced appends.
// Caller holds sh.mu.
func (sh *logShard) syncLocked() {
	if !sh.dirty || sh.f == nil || sh.err != nil {
		return
	}
	start := time.Now()
	if err := sh.f.Sync(); err != nil {
		sh.err = fmt.Errorf("wal: fsync: %w", err)
		return
	}
	sh.dirty = false
	if l := sh.log; l.fsyncs != nil {
		l.fsyncs.Inc()
		l.fsyncHist.Observe(time.Since(start).Seconds())
	}
}

// append encodes and writes one record to the tenant's shard,
// returning its sequence number. It rotates full segments, maintains
// the truncation low-water marks, and syncs immediately when group
// commit is disabled.
func (l *Log) append(rec *record) (uint64, error) {
	if !l.Replayed() {
		return 0, fmt.Errorf("wal: append before Replay")
	}
	sh := l.shardFor(rec.tenant)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.err != nil {
		return 0, sh.err
	}
	if sh.f == nil {
		return 0, fmt.Errorf("wal: log closed")
	}
	rec.seq = sh.seq + 1
	data := rec.encodedBytes()
	if sh.size > 0 && sh.size+int64(len(data)) > l.segBytes {
		sh.rotateLocked()
		if sh.err != nil {
			return 0, sh.err
		}
	}
	if _, err := sh.f.Write(data); err != nil {
		sh.err = fmt.Errorf("wal: write: %w", err)
		return 0, sh.err
	}
	sh.seq = rec.seq
	sh.activeInfo.last = rec.seq
	sh.size += int64(len(data))
	sh.dirty = true
	sh.track(rec)
	if rec.kind == KindCheckpoint || rec.kind == KindDelete {
		sh.gcLocked()
	}
	if l.syncEvery <= 0 {
		sh.syncLocked()
		if sh.err != nil {
			return 0, sh.err
		}
	}
	if l.appends != nil {
		l.appends.Inc()
		l.bytes.Add(uint64(len(data)))
		if rec.kind == KindRows {
			l.rows.Add(uint64(len(rec.rows)))
		}
	}
	if l.tr.Enabled() {
		l.tr.EmitNote("wal", trace.KindWALAppend, 0,
			float64(len(rec.rows)), float64(len(data)), rec.tenant)
	}
	if l.appendHook != nil {
		l.appendHook(rec.tenant, len(rec.rows), len(data))
	}
	return rec.seq, nil
}

// rotateLocked closes the active segment into the closed list, opens
// a fresh one, and garbage-collects. Caller holds sh.mu.
func (sh *logShard) rotateLocked() {
	sh.syncLocked()
	if sh.err != nil {
		return
	}
	if err := sh.f.Close(); err != nil {
		sh.err = fmt.Errorf("wal: close segment: %w", err)
		return
	}
	sh.closed = append(sh.closed, sh.activeInfo)
	if err := sh.openActive(); err != nil {
		sh.err = err
		return
	}
	sh.gcLocked()
}

// gcLocked unlinks closed segments whose every record is below the
// lowest still-needed sequence number. Caller holds sh.mu.
func (sh *logShard) gcLocked() {
	floor := sh.seq + 1 // nothing needed → everything closed is released
	for _, first := range sh.needed {
		if first < floor {
			floor = first
		}
	}
	kept := sh.closed[:0]
	for _, seg := range sh.closed {
		if seg.last < floor {
			if err := os.Remove(seg.path); err == nil {
				if sh.log.truncated != nil {
					sh.log.truncated.Inc()
				}
				continue
			}
		}
		kept = append(kept, seg)
	}
	sh.closed = kept
}

// AppendRows logs a block of rows ingested into tenant at the given
// timestamps. start is the tenant's committed update count before the
// block — replay uses it to skip blocks a spill snapshot already
// covers. The returned sequence number is shard-local.
func (l *Log) AppendRows(tenant string, start uint64, rows [][]float64, times []float64) (uint64, error) {
	if len(rows) != len(times) {
		return 0, fmt.Errorf("wal: %d rows but %d timestamps", len(rows), len(times))
	}
	return l.append(&record{kind: KindRows, tenant: tenant, start: start, rows: rows, times: times})
}

// AppendCreate logs a tenant creation with its declarative config as
// JSON.
func (l *Log) AppendCreate(tenant string, cfgJSON []byte) (uint64, error) {
	return l.append(&record{kind: KindCreate, tenant: tenant, blob: cfgJSON})
}

// AppendDelete logs an explicit tenant deletion and releases the
// tenant's earlier records for truncation.
func (l *Log) AppendDelete(tenant string) (uint64, error) {
	return l.append(&record{kind: KindDelete, tenant: tenant})
}

// AppendCheckpoint logs a tenant's checkpoint, whose bytes replace the
// tenant's whole state on replay. The tenant's earlier records become
// truncatable.
func (l *Log) AppendCheckpoint(tenant string, data []byte) (uint64, error) {
	return l.append(&record{kind: KindCheckpoint, tenant: tenant, blob: data})
}

// Released tells the log a tenant's state became durable outside the
// WAL (spilled to disk) or ceased to matter (dropped/deleted without
// an API call): its records up to now are no longer needed for
// recovery and closed segments holding only released records are
// unlinked. During replay, where an applier's Create can spill
// another tenant, it clears the tenant's mark but leaves the unlinking
// to the log's first GC after replay: replay walks the segment list
// that GC changes.
func (l *Log) Released(tenant string) {
	sh := l.shardFor(tenant)
	sh.mu.Lock()
	delete(sh.needed, tenant)
	if l.replayed.Load() {
		sh.gcLocked()
	}
	sh.mu.Unlock()
}

// Sync forces a group commit on every shard and reports the first
// sticky shard error.
func (l *Log) Sync() error {
	var first error
	for _, sh := range l.shards {
		sh.mu.Lock()
		sh.syncLocked()
		if sh.err != nil && first == nil {
			first = sh.err
		}
		sh.mu.Unlock()
	}
	return first
}

// Replayed reports whether Replay has run (appends are legal).
func (l *Log) Replayed() bool { return l.replayed.Load() }

// Dir returns the log's root directory.
func (l *Log) Dir() string { return l.dir }

// Close stops the flusher, syncs, and closes every shard's active
// segment. The log cannot be reused after Close; further Closes are
// no-ops.
func (l *Log) Close() error {
	l.replayMu.Lock()
	if l.closedLog {
		l.replayMu.Unlock()
		return nil
	}
	l.closedLog = true
	replayed := l.replayed.Load()
	l.replayMu.Unlock()
	if replayed {
		close(l.stopFlush)
		l.flushWG.Wait()
	}
	var first error
	for _, sh := range l.shards {
		sh.mu.Lock()
		sh.syncLocked()
		if sh.err != nil && first == nil {
			first = sh.err
		}
		if sh.f != nil {
			if err := sh.f.Close(); err != nil && first == nil {
				first = err
			}
			sh.f = nil
		}
		sh.mu.Unlock()
	}
	return first
}
