package wal

// Replay-to-restore. Replay walks every shard's segments in sequence
// order and hands each record to an Applier. The applier decides
// whether the record's effect is still needed (a spill file may
// already cover it) — that decision also rebuilds the truncation
// low-water marks, so a restarted log garbage-collects exactly like
// the one that crashed.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"swsketch/internal/trace"
)

// Applier consumes replayed records. Each method reports whether the
// record's effect was applied (true) or intentionally skipped (false,
// nil) — e.g. a row block or a checkpoint the tenant has moved past.
// An error counts the record as failed, and Stats keeps the first few
// errors, but does not stop replay.
type Applier interface {
	// Rows handles a row-block record. start is the tenant's committed
	// update count before the block.
	Rows(tenant string, start uint64, rows [][]float64, times []float64) (bool, error)
	// Checkpoint handles a checkpoint record: data, which the log does
	// not read, holds the tenant's whole state and replaces it. A
	// tenant's first checkpoint, its creation, builds it.
	Checkpoint(tenant string, data []byte) (bool, error)
	// Delete handles a tenant-deletion record.
	Delete(tenant string) (bool, error)
}

// Stats summarises one replay.
type Stats struct {
	// Segments is the number of segment files read.
	Segments int `json:"segments"`
	// Records is the number of structurally valid records seen.
	Records int `json:"records"`
	// Applied counts records whose effect was applied.
	Applied int `json:"applied"`
	// Skipped counts records intentionally skipped — duplicate
	// sequence numbers and effects already covered by spill files.
	Skipped int `json:"skipped"`
	// Failed counts records the applier errored on.
	Failed int `json:"failed"`
	// Failures names the first maxFailures of them.
	Failures []Failure `json:"failures,omitempty"`
	// Rows is the total row count of applied row blocks.
	Rows int `json:"rows"`
	// Torn reports a benign torn final record (crash mid-append).
	Torn bool `json:"torn,omitempty"`
	// Damaged reports corruption that stopped a shard's replay early:
	// a CRC mismatch, bad magic, an unknown record kind, or a tear
	// anywhere but the final record. Serving layers should surface
	// degraded health.
	Damaged bool `json:"damaged,omitempty"`
	// Damage names where and why each damaged shard stopped.
	Damage []Damage `json:"damage,omitempty"`
}

// Damage is where a shard's replay stopped: the segment file's name,
// the byte offset of the record that did not decode, and the
// decoder's error.
type Damage struct {
	Segment string `json:"segment"`
	Offset  int    `json:"offset"`
	Err     string `json:"error"`
}

// Failure is one replayed record the applier errored on: its tenant,
// its shard-local sequence number and the applier's error.
type Failure struct {
	Tenant string `json:"tenant"`
	Seq    uint64 `json:"seq"`
	Err    string `json:"error"`
}

// maxFailures bounds Stats.Failures; Failed counts every failure.
const maxFailures = 8

// Replay reads every shard's segments in order, applying records
// through ap (which may be nil to skip application — e.g. a fresh
// log), and enables appends. It must be called exactly once per
// opened Log. Corruption never returns an error — it is reported in
// Stats.Damaged so the caller can serve degraded rather than refuse
// to start; the error return covers I/O and lifecycle failures only.
func (l *Log) Replay(ap Applier) (Stats, error) {
	l.replayMu.Lock()
	defer l.replayMu.Unlock()
	if l.replayed.Load() {
		return Stats{}, fmt.Errorf("wal: already replayed")
	}
	var st Stats
	for _, sh := range l.shards {
		if err := sh.replay(ap, &st); err != nil {
			return st, err
		}
	}
	if err := l.start(); err != nil {
		return st, err
	}
	l.replayed.Store(true)
	return st, nil
}

// replay restores one shard: segments in first-seq order, records in
// byte order. Replay owns the segment list; it takes the shard lock
// only for the marks, which Released changes when an applier spills a
// tenant.
func (sh *logShard) replay(ap Applier, st *Stats) error {
	damaged := false
	for segIdx, seg := range sh.closed {
		data, err := os.ReadFile(seg.path)
		if err != nil {
			return fmt.Errorf("wal: replay %s: %w", seg.path, err)
		}
		st.Segments++
		applied, skipped := 0, 0
		off := 0
		for off < len(data) {
			rec, next, err := decodeRecord(data, off)
			if err != nil {
				atTail := segIdx == len(sh.closed)-1 && errors.Is(err, ErrTorn)
				if atTail {
					st.Torn = true
					// Chop the torn tail so the recovered log is clean on
					// disk: a later replay must not mistake these bytes for
					// mid-segment damage once newer segments exist.
					if terr := os.Truncate(seg.path, int64(off)); terr != nil {
						return fmt.Errorf("wal: truncate torn tail of %s: %w", seg.path, terr)
					}
				} else {
					damaged = true
					st.Damaged = true
					st.Damage = append(st.Damage, Damage{Segment: filepath.Base(seg.path), Offset: off, Err: err.Error()})
				}
				break
			}
			off = next
			st.Records++
			if rec.seq <= sh.seq {
				// Idempotent skip: a duplicate or out-of-order sequence
				// number means the record's effect is already in.
				st.Skipped++
				skipped++
				continue
			}
			sh.seq = rec.seq
			sh.activeInfo.last = rec.seq
			ok, err := sh.dispatch(ap, rec)
			switch {
			case err != nil:
				st.Failed++
				if len(st.Failures) < maxFailures {
					st.Failures = append(st.Failures, Failure{Tenant: rec.tenant, Seq: rec.seq, Err: err.Error()})
				}
			case ok:
				st.Applied++
				applied++
				if rec.kind == KindRows {
					st.Rows += len(rec.rows)
				}
				sh.mu.Lock() // an applier's spill calls Released
				sh.track(&rec)
				sh.mu.Unlock()
			default:
				st.Skipped++
				skipped++
			}
		}
		sh.closed[segIdx] = segmentInfo{path: seg.path, first: seg.first, last: sh.seq}
		if tr := sh.log.tr; tr.Enabled() {
			tr.EmitNote("wal", trace.KindWALReplay, 0,
				float64(applied), float64(skipped), seg.path)
		}
		if damaged {
			// Ordering beyond the damage is unknowable; stop this shard.
			break
		}
	}
	return nil
}

// dispatch routes one replayed record to the applier.
func (sh *logShard) dispatch(ap Applier, rec record) (bool, error) {
	if ap == nil {
		return false, nil
	}
	switch rec.kind {
	case KindRows:
		return ap.Rows(rec.tenant, rec.start, rec.rows, rec.times)
	case KindCheckpoint:
		return ap.Checkpoint(rec.tenant, rec.blob)
	case KindDelete:
		return ap.Delete(rec.tenant)
	}
	return false, fmt.Errorf("wal: unknown kind %d", rec.kind)
}

// track keeps the truncation low-water marks for one record, on
// append and for every applied record on replay, so a restarted log
// garbage-collects exactly like the one that wrote it. A checkpoint
// holds the tenant's whole state, so it supersedes every earlier
// record of the tenant. Caller holds sh.mu.
func (sh *logShard) track(rec *record) {
	switch rec.kind {
	case KindRows:
		if _, ok := sh.needed[rec.tenant]; !ok {
			sh.needed[rec.tenant] = rec.seq
		}
	case KindCheckpoint:
		sh.needed[rec.tenant] = rec.seq
	case KindDelete:
		delete(sh.needed, rec.tenant)
	}
}
