package serve

// WAL integration: the durability half of the ingest plane. With
// WithWAL attached, every state-changing request appends a record to
// the per-shard write-ahead log BEFORE it mutates the registry, and
// RecoverWAL replays the log on startup through the apply and restore
// steps live requests take, so a crashed node rebuilds its tenant
// sketches bit-exactly (modulo the group-commit window) and the
// default tenant's audit shadow with them. A tenant's creation is its
// first checkpoint, and an eviction that drops a tenant is journaled
// as its deletion first. Spills and deletions release a tenant's
// records for truncation via the registry's evict hook.

import (
	"fmt"

	"swsketch/internal/wal"
)

// WithWAL attaches a write-ahead log (opened, not yet replayed): rows,
// tenant creations and uploads (as checkpoints) and deletions, drops
// included, are logged before they apply, and the registry's evictions
// release WAL records for truncation. Call RecoverWAL after NewServer
// and before serving — appends fail until the log has replayed.
func WithWAL(l *wal.Log) Option {
	return func(s *Server) {
		if l == nil {
			panic("serve: nil WAL")
		}
		s.wal = l
	}
}

// WAL returns the attached write-ahead log, or nil.
func (s *Server) WAL() *wal.Log { return s.wal }

// RecoverWAL replays the attached WAL through the tenant registry and
// enables appends. It must run after NewServer (so replayed rows for
// the default tenant land in its fresh sketch) and before the server
// takes traffic. Neither corruption nor failed records fail recovery:
// they are reported in the returned stats and on /v2/health, which
// reads degraded and names the first failed records. Without WithWAL
// it is a no-op.
func (s *Server) RecoverWAL() (wal.Stats, error) {
	if s.wal == nil {
		return wal.Stats{}, nil
	}
	st, err := s.wal.Replay(&registryApplier{s: s})
	if err != nil {
		return st, err
	}
	s.walReplay.Store(&st)
	return st, nil
}

// registryApplier adapts the tenant registry to wal.Applier for
// replay-to-restore.
type registryApplier struct {
	s *Server
}

// Rows re-applies a logged row block through the live ingest's apply
// step when the tenant's committed update count, which only grows,
// matches the block's start: a spill file that already covers the
// block leaves Updates() past it (skip), and a gap means an
// intervening record was lost to truncation by design. The count is
// read lock-free, so a skipped block leaves a spilled tenant on disk.
func (a *registryApplier) Rows(tenant string, start uint64, rows [][]float64, times []float64) (bool, error) {
	t, ok := a.s.treg.Get(tenant)
	if !ok || t.Updates() != start {
		return false, nil // deleted later in the log, released, or covered
	}
	if err := t.Acquire(); err != nil {
		return false, fmt.Errorf("rows %q: %w", tenant, err)
	}
	defer t.Release()
	if _, apiErr := a.s.apply(t, rows, times, false); apiErr != nil {
		return false, fmt.Errorf("rows %q: %s", tenant, apiErr.msg)
	}
	return true, nil
}

// Checkpoint rebuilds a tenant from a logged checkpoint alone, through
// the upload's restore step; a creation checkpoint builds the tenant.
// One below the tenant's update count is skipped, as a row block is,
// so a spilled tenant stays on disk. A tenant built from another
// config (a default tenant restarted with other flags) fails the
// record.
func (a *registryApplier) Checkpoint(tenant string, data []byte) (bool, error) {
	t, blob, updates, err := a.s.treg.OpenCheckpoint(tenant, data)
	if err == nil && t == nil {
		return false, nil // the tenant has moved past the checkpoint
	}
	if err == nil {
		err = t.Acquire()
	}
	if err != nil {
		return false, fmt.Errorf("checkpoint %q: %w", tenant, err)
	}
	defer t.Release()
	if apiErr := a.s.restore(t, blob, updates, false); apiErr != nil {
		return false, fmt.Errorf("checkpoint %q: %s", tenant, apiErr.msg)
	}
	return true, nil
}

// Delete re-applies a logged tenant deletion.
func (a *registryApplier) Delete(tenant string) (bool, error) {
	return a.s.treg.Delete(tenant), nil
}
