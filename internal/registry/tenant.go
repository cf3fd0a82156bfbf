package registry

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"swsketch/internal/core"
)

// ErrDeleted is returned by Tenant.Acquire when the tenant was removed
// from its registry after the caller obtained the pointer.
var ErrDeleted = errors.New("registry: tenant deleted")

// Tenant is one named sliding-window sketch inside a Registry, built
// from its Config. All sketch access goes through Acquire/Release —
// the tenant's own mutex — so ingest into different tenants runs in
// parallel while each tenant stays single-writer (the sketches'
// contract). The sketch owns the stream clock; the tenant keeps only
// its update count.
//
// A tenant can be *resident* (sketch in memory) or *spilled* (state on
// disk under the registry's spill directory); Acquire transparently
// restores a spilled tenant before returning.
type Tenant struct {
	id     string
	cfg    Config
	pinned bool
	reg    *Registry

	mu      sync.Mutex
	sk      core.TenantSketch // the built sketch; nil while spilled
	deleted bool
	spilled atomic.Bool

	updates   atomic.Uint64
	lastRows  atomic.Int64 // RowsStored at the last Release (lock-free reads)
	lastTouch atomic.Int64 // unix nanos of the last Release/Get
	pending   atomic.Int64 // stream blocks admitted but not yet committed
}

// ID returns the tenant's registry key.
func (t *Tenant) ID() string { return t.id }

// Config returns the declarative config the tenant was created from.
func (t *Tenant) Config() Config { return t.cfg }

// Algorithm returns the sketch's algorithm name (e.g. "LM-FD").
func (t *Tenant) Algorithm() string { return t.cfg.algoName() }

// D returns the tenant's row dimension.
func (t *Tenant) D() int { return t.cfg.D }

// Pinned reports whether the tenant is exempt from eviction (the
// serve layer's default tenant is; see Registry.CreatePinned).
func (t *Tenant) Pinned() bool { return t.pinned }

// Resident reports, lock-free, whether the sketch is in memory (true)
// or spilled to disk (false).
func (t *Tenant) Resident() bool { return !t.spilled.Load() }

// Updates returns, lock-free, the number of rows committed since the
// tenant was created: the WAL's replay offset. A spill and an upload
// keep it, so it only grows.
func (t *Tenant) Updates() uint64 { return t.updates.Load() }

// Rows returns, lock-free, the sketch's row count as of the last
// Release (the live value requires Acquire).
func (t *Tenant) Rows() int { return int(t.lastRows.Load()) }

// Acquire locks the tenant for exclusive sketch access, transparently
// restoring a spilled tenant from disk first. Every successful
// Acquire must be paired with Release. It fails when the tenant was
// deleted concurrently (ErrDeleted) or the spilled state cannot be
// read back.
func (t *Tenant) Acquire() error {
	t.mu.Lock()
	if t.deleted {
		t.mu.Unlock()
		return ErrDeleted
	}
	if t.sk == nil {
		if err := t.reg.restore(t); err != nil {
			t.mu.Unlock()
			return err
		}
	}
	if t.reg.touchHook != nil {
		t.reg.touchHook(t.id)
	}
	return nil
}

// Release unlocks the tenant, stamping its recency (for LRU/TTL
// eviction) and publishing the sketch's row count for lock-free
// observers.
func (t *Tenant) Release() {
	if t.sk != nil {
		t.lastRows.Store(int64(t.sk.RowsStored()))
	}
	t.touch()
	t.mu.Unlock()
}

// touch stamps the tenant as recently used.
func (t *Tenant) touch() { t.lastTouch.Store(t.reg.now().UnixNano()) }

// Sketch returns the tenant's sketch: its clock, batch check,
// snapshots and queries. Callers must hold the tenant via Acquire.
func (t *Tenant) Sketch() core.TenantSketch { return t.sk }

// Commit counts n rows applied to the sketch. Callers must hold the
// tenant via Acquire.
func (t *Tenant) Commit(n int) { t.updates.Add(uint64(n)) }

// TryEnqueue admits one in-flight stream block if the tenant's
// pending count is below limit, reporting whether it was admitted.
// The streaming ingest path uses this as its backpressure gate: a
// false return means the caller should shed load (429) rather than
// queue unboundedly. Lock-free; pair every true with Dequeue.
func (t *Tenant) TryEnqueue(limit int) bool {
	for {
		n := t.pending.Load()
		if n >= int64(limit) {
			return false
		}
		if t.pending.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// Dequeue retires one in-flight stream block admitted by TryEnqueue.
func (t *Tenant) Dequeue() { t.pending.Add(-1) }

// Pending returns, lock-free, the tenant's in-flight stream blocks.
func (t *Tenant) Pending() int { return int(t.pending.Load()) }

// Decode decodes a binary snapshot, clock included, into a sketch built
// from the tenant's config, which must come out with the tenant's
// algorithm and row width (a snapshot's header sets its geometry). It
// changes nothing; Install puts the sketch in place. Every restore
// (upload, WAL replay, spill) uses the pair.
func (t *Tenant) Decode(blob []byte) (core.TenantSketch, error) {
	sk, err := t.cfg.Build()
	if err != nil {
		return nil, err
	}
	if err := sk.UnmarshalBinary(blob); err != nil {
		return nil, err
	}
	if sk.Name() != t.Algorithm() || sk.Dim() != t.cfg.D {
		return nil, fmt.Errorf("registry: the snapshot's %s sketch does not fit tenant %q, %s of row width %d",
			sk.Name(), t.id, t.Algorithm(), t.cfg.D)
	}
	return sk, nil
}

// Install replaces the tenant's sketch with sk, which Decode returned,
// and sets the update count to updates. Callers must hold the tenant
// via Acquire.
func (t *Tenant) Install(sk core.TenantSketch, updates uint64) {
	t.sk = sk
	t.updates.Store(updates)
}
