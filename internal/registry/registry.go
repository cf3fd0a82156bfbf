// Package registry is the multi-tenant serving layer over the sketch
// stack: a sharded, concurrency-safe registry of named sliding-window
// sketches, each created from a declarative Config (framework, window,
// sizing). It is what lets one process host many independent windows —
// the serve layer mounts it under /v2/tenants/{id}/...
//
// Design:
//
//   - Striped locking. Tenants hash (FNV-1a) onto a power-of-two
//     number of shards sized to GOMAXPROCS, each a small map under its
//     own RWMutex, so lookups and creations on different tenants do
//     not contend. Sketch access itself serialises on a per-tenant
//     mutex (Tenant.Acquire/Release): ingest into different tenants is
//     fully parallel, ingest into one tenant is single-writer.
//   - Idle eviction. With WithEvictTTL, Sweep evicts tenants idle
//     longer than the TTL; with WithMaxTenants, Create evicts the
//     least-recently-used tenant of a full shard (the cap is striped
//     across shards, so it is enforced approximately). Eviction
//     *spills* — snapshots the sketch plus its config and update count
//     to the WithSpillDir directory — when one is set, and drops the
//     tenant otherwise, once SetDropHook's hook has taken the drop; a
//     failed spill or drop keeps the tenant resident. A spilled tenant
//     is restored transparently on its next Acquire; restore is
//     bit-exact for the deterministic sketches (LM-FD, DS-FD, LM-AMM,
//     DI-AMM).
//   - Observability. WithObs publishes aggregate counters/gauges and a
//     per-tenant row-count gauge set; WithTrace emits tenant_create /
//     tenant_evict / tenant_restore / tenant_delete events.
//
// The registry itself starts no goroutines: call Sweep from a ticker
// (cmd/swserve does) or rely on the Create-time LRU cap.
package registry

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"swsketch/internal/obs"
	"swsketch/internal/trace"
)

// Sentinel errors returned by Create.
var (
	// ErrExists reports a Create with an ID already in the registry
	// (including spilled tenants awaiting restore).
	ErrExists = errors.New("registry: tenant already exists")
	// ErrBadID reports an empty or over-long tenant ID.
	ErrBadID = errors.New("registry: tenant ID must be 1..128 bytes")
)

// MaxIDLen bounds tenant ID length (spill filenames and metric labels
// stay sane).
const MaxIDLen = 128

// Option configures a Registry; see WithMaxTenants, WithEvictTTL,
// WithSpillDir, WithObs, WithTrace, WithShards, WithClock.
type Option func(*Registry)

// WithMaxTenants caps resident tenants: a Create into a full shard
// first evicts that shard's least-recently-used unpinned tenant. The
// cap is striped across shards (ceil(n/shards) per shard), so it is
// enforced approximately, and a shard whose tenants are all busy or
// pinned may briefly exceed it rather than block ingest.
func WithMaxTenants(n int) Option {
	return func(r *Registry) {
		if n < 1 {
			panic(fmt.Sprintf("registry: max tenants %d", n))
		}
		r.maxTenants = n
	}
}

// WithEvictTTL marks tenants idle longer than ttl as evictable by
// Sweep. The registry does not sweep by itself; run Sweep on a ticker.
func WithEvictTTL(ttl time.Duration) Option {
	return func(r *Registry) {
		if ttl <= 0 {
			panic(fmt.Sprintf("registry: evict TTL %v", ttl))
		}
		r.ttl = ttl
	}
}

// WithSpillDir enables snapshot-to-disk eviction: evicted tenants
// whose sketch supports binary snapshots are written to dir (created
// if missing) and restored transparently on their next touch. At
// construction the directory is scanned and every valid spill file is
// registered as a spilled tenant, so a restarted process resumes its
// tenant set lazily.
func WithSpillDir(dir string) Option {
	return func(r *Registry) {
		if dir == "" {
			panic("registry: empty spill dir")
		}
		r.spillDir = dir
	}
}

// WithObs publishes registry metrics into reg: tenant lifecycle
// counters (created/evicted/restored/deleted), resident and spilled
// gauges, and a per-tenant rows gauge set (one series per tenant —
// mind the cardinality with very large fleets).
func WithObs(reg *obs.Registry) Option {
	return func(r *Registry) { r.obs = reg }
}

// WithTrace emits tenant lifecycle events (tenant_create,
// tenant_evict, tenant_restore, tenant_delete) into tr.
func WithTrace(tr *trace.Tracer) Option {
	return func(r *Registry) { r.tr = tr }
}

// WithShards overrides the shard count (rounded up to a power of two;
// the default is GOMAXPROCS rounded likewise). Mostly for tests.
func WithShards(n int) Option {
	return func(r *Registry) {
		if n < 1 {
			panic(fmt.Sprintf("registry: shards %d", n))
		}
		r.nshards = n
	}
}

// WithClock overrides the time source used for recency stamps and TTL
// decisions. For tests.
func WithClock(now func() time.Time) Option {
	return func(r *Registry) { r.now = now }
}

// SetEvictHook registers fn to run whenever a tenant's in-memory
// state leaves the registry: after a successful spill (spilled=true)
// and after a drop or explicit Delete (spilled=false). The serve layer
// uses it to release the tenant's WAL records for truncation — a
// spilled or deleted tenant no longer needs them for recovery. fn may
// run with registry locks held and must not call back into the
// registry. Call it before the registry takes traffic; it is not
// synchronised against concurrent evictions.
func (r *Registry) SetEvictHook(fn func(id string, spilled bool)) { r.evictHook = fn }

// SetDropHook registers fn to run before an eviction drops a tenant
// (no spill directory); the serve layer journals the drop there as the
// tenant's deletion. A drop fn fails keeps the tenant resident, as a
// failed spill does. fn runs with registry locks held and must not call
// back into the registry. Call it before the registry takes traffic;
// it is not synchronised against concurrent evictions.
func (r *Registry) SetDropHook(fn func(id string) error) { r.dropHook = fn }

// SetTouchHook registers fn to run after every successful tenant
// Acquire, identifying the tenant. The serve layer feeds it to the
// hot-key sidecar as a per-request activity signal. fn runs with the
// tenant's lock held on the acquiring goroutine's hot path, so it must
// be cheap and must not call back into the registry. Call it before
// the registry takes traffic; it is not synchronised against
// concurrent acquisitions.
func (r *Registry) SetTouchHook(fn func(id string)) { r.touchHook = fn }

// shard is one lock stripe: a map of tenants under its own RWMutex.
type shard struct {
	mu      sync.RWMutex
	tenants map[string]*Tenant
}

// Registry is a sharded collection of named tenants. Safe for
// concurrent use by any number of goroutines.
type Registry struct {
	shards  []*shard
	mask    uint64
	nshards int

	maxTenants  int
	maxPerShard int
	ttl         time.Duration
	spillDir    string
	obs         *obs.Registry
	tr          *trace.Tracer
	now         func() time.Time

	evictHook func(id string, spilled bool)
	dropHook  func(id string) error
	touchHook func(id string)

	created, restored, deleted *obs.Counter
	evictSpilled, evictDropped *obs.Counter
	spillErrors                *obs.Counter
}

// New builds a registry. The only fallible option is WithSpillDir
// (directory creation and the startup scan of existing spill files);
// without it New cannot fail.
func New(opts ...Option) (*Registry, error) {
	r := &Registry{now: time.Now}
	for _, o := range opts {
		o(r)
	}
	if r.nshards == 0 {
		r.nshards = runtime.GOMAXPROCS(0)
	}
	n := 1
	for n < r.nshards {
		n <<= 1
	}
	r.nshards = n
	r.mask = uint64(n - 1)
	r.shards = make([]*shard, n)
	for i := range r.shards {
		r.shards[i] = &shard{tenants: make(map[string]*Tenant)}
	}
	if r.maxTenants > 0 {
		r.maxPerShard = (r.maxTenants + n - 1) / n
	}
	if r.obs != nil {
		r.registerMetrics()
	}
	if r.spillDir != "" {
		if err := os.MkdirAll(r.spillDir, 0o755); err != nil {
			return nil, fmt.Errorf("registry: spill dir: %w", err)
		}
		if err := r.scanSpillDir(); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// registerMetrics wires the aggregate counters/gauges and the
// per-tenant rows gauge set into the obs registry.
func (r *Registry) registerMetrics() {
	r.created = r.obs.Counter("swsketch_registry_tenants_created_total",
		"Tenants admitted to the registry.", nil)
	r.restored = r.obs.Counter("swsketch_registry_tenants_restored_total",
		"Spilled tenants restored from disk on touch.", nil)
	r.deleted = r.obs.Counter("swsketch_registry_tenants_deleted_total",
		"Tenants removed explicitly.", nil)
	r.evictSpilled = r.obs.Counter("swsketch_registry_tenants_evicted_total",
		"Tenants evicted by TTL sweep or LRU cap.", obs.Labels{"mode": "spill"})
	r.evictDropped = r.obs.Counter("swsketch_registry_tenants_evicted_total",
		"Tenants evicted by TTL sweep or LRU cap.", obs.Labels{"mode": "drop"})
	r.spillErrors = r.obs.Counter("swsketch_registry_spill_errors_total",
		"Evictions that failed to write a spill file (tenant kept resident).", nil)
	r.obs.GaugeFunc("swsketch_registry_tenants_resident",
		"Tenants whose sketch is in memory.", nil,
		func() float64 { res, _ := r.counts(); return float64(res) })
	r.obs.GaugeFunc("swsketch_registry_tenants_spilled",
		"Tenants whose state lives in the spill directory.", nil,
		func() float64 { _, sp := r.counts(); return float64(sp) })
	r.obs.GaugeSet("swsketch_registry_tenant_rows",
		"Sketch rows per tenant (as of each tenant's last release).",
		"tenant", nil, func() map[string]float64 {
			out := make(map[string]float64)
			r.each(func(t *Tenant) { out[t.id] = float64(t.Rows()) })
			return out
		})
}

// counts returns the resident and spilled tenant totals.
func (r *Registry) counts() (resident, spilled int) {
	r.each(func(t *Tenant) {
		if t.Resident() {
			resident++
		} else {
			spilled++
		}
	})
	return
}

// each visits every tenant under its shard's read lock.
func (r *Registry) each(f func(*Tenant)) {
	for _, sh := range r.shards {
		sh.mu.RLock()
		for _, t := range sh.tenants {
			f(t)
		}
		sh.mu.RUnlock()
	}
}

// shardFor stripes an ID onto its shard by FNV-1a.
func (r *Registry) shardFor(id string) *shard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= prime64
	}
	return r.shards[h&r.mask]
}

// Create builds the sketch described by cfg and admits it under id.
// It fails with ErrBadID, ErrExists, or cfg's validation error. When
// the shard is at its striped WithMaxTenants cap, the shard's
// least-recently-used idle tenant is evicted first (spill or drop).
func (r *Registry) Create(id string, cfg Config) (*Tenant, error) {
	return r.create(id, cfg, false)
}

// CreatePinned is Create for a tenant exempt from eviction. The serve
// layer creates its default tenant so.
func (r *Registry) CreatePinned(id string, cfg Config) (*Tenant, error) {
	return r.create(id, cfg, true)
}

func (r *Registry) create(id string, cfg Config, pinned bool) (*Tenant, error) {
	if id == "" || len(id) > MaxIDLen {
		return nil, ErrBadID
	}
	cfg = cfg.normalize()
	sk, err := cfg.Build()
	if err != nil {
		return nil, err
	}
	t := &Tenant{id: id, cfg: cfg, pinned: pinned, reg: r, sk: sk}
	t.touch()
	sh := r.shardFor(id)
	sh.mu.Lock()
	if _, ok := sh.tenants[id]; ok {
		sh.mu.Unlock()
		return nil, ErrExists
	}
	if r.maxPerShard > 0 {
		r.enforceCap(sh)
	}
	sh.tenants[id] = t
	sh.mu.Unlock()
	if r.created != nil {
		r.created.Inc()
	}
	if r.tr.Enabled() {
		res, _ := r.counts()
		r.tr.EmitNote("registry", trace.KindTenantCreate, 0, float64(res), 0, id)
	}
	return t, nil
}

// Get returns the tenant registered under id, stamping its recency.
// The tenant may be spilled; Acquire restores it.
func (r *Registry) Get(id string) (*Tenant, bool) {
	sh := r.shardFor(id)
	sh.mu.RLock()
	t, ok := sh.tenants[id]
	sh.mu.RUnlock()
	if ok {
		t.touch()
	}
	return t, ok
}

// Delete removes the tenant and its spill file, reporting whether it
// existed. A request already holding the tenant completes against the
// orphaned sketch; later Acquires fail with ErrDeleted.
func (r *Registry) Delete(id string) bool {
	sh := r.shardFor(id)
	sh.mu.Lock()
	t, ok := sh.tenants[id]
	if ok {
		delete(sh.tenants, id)
	}
	sh.mu.Unlock()
	if !ok {
		return false
	}
	t.mu.Lock()
	t.deleted = true
	t.sk = nil
	t.spilled.Store(false)
	t.mu.Unlock()
	if r.spillDir != "" {
		_ = os.Remove(r.spillPath(id))
	}
	if r.deleted != nil {
		r.deleted.Inc()
	}
	if r.evictHook != nil {
		r.evictHook(id, false)
	}
	if r.tr.Enabled() {
		r.tr.EmitNote("registry", trace.KindTenantDelete, 0, 0, 0, id)
	}
	return true
}

// Info is one tenant's lock-free summary, as returned by List.
type Info struct {
	// ID is the tenant's registry key.
	ID string `json:"id"`
	// Algorithm is the sketch algorithm name (e.g. "LM-FD").
	Algorithm string `json:"algorithm"`
	// Resident is false while the tenant's state lives on disk.
	Resident bool `json:"resident"`
	// Rows is the sketch's row count as of the tenant's last release.
	Rows int `json:"rows_stored"`
	// Updates counts rows committed into the tenant.
	Updates uint64 `json:"updates"`
	// Pinned tenants are exempt from eviction.
	Pinned bool `json:"pinned,omitempty"`
}

// List returns every tenant's summary, sorted by ID.
func (r *Registry) List() []Info {
	var out []Info
	r.each(func(t *Tenant) {
		out = append(out, Info{
			ID:        t.id,
			Algorithm: t.Algorithm(),
			Resident:  t.Resident(),
			Rows:      t.Rows(),
			Updates:   t.Updates(),
			Pinned:    t.pinned,
		})
	})
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Len returns the number of registered tenants (resident + spilled).
func (r *Registry) Len() int {
	n := 0
	for _, sh := range r.shards {
		sh.mu.RLock()
		n += len(sh.tenants)
		sh.mu.RUnlock()
	}
	return n
}

// Sweep evicts every unpinned resident tenant idle longer than the
// WithEvictTTL deadline and returns how many it evicted (spilled or
// dropped). Without WithEvictTTL it is a no-op. Busy tenants (mid-
// request) are skipped, never blocked on.
func (r *Registry) Sweep() int {
	if r.ttl <= 0 {
		return 0
	}
	cutoff := r.now().Add(-r.ttl).UnixNano()
	evicted := 0
	for _, sh := range r.shards {
		sh.mu.RLock()
		var idle []*Tenant
		for _, t := range sh.tenants {
			if !t.pinned && t.Resident() && t.lastTouch.Load() <= cutoff {
				idle = append(idle, t)
			}
		}
		sh.mu.RUnlock()
		for _, t := range idle {
			if r.evict(sh, t, cutoff) {
				evicted++
			}
		}
	}
	return evicted
}

// evict spills (preferred) or drops one idle tenant. It re-checks
// idleness under the tenant lock and skips busy tenants via TryLock so
// a sweep never stalls ingest. The shard lock is taken first (the
// registry's lock order is shard before tenant) because a drop removes
// the tenant from the shard map.
func (r *Registry) evict(sh *shard, t *Tenant, cutoff int64) bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if !t.mu.TryLock() {
		return false
	}
	defer t.mu.Unlock()
	return t.lastTouch.Load() <= cutoff && r.evictLocked(sh, t)
}

// enforceCap evicts the least-recently-used unpinned resident tenants
// of a full shard. Caller holds sh.mu. Best effort: a busy tenant, or
// one whose spill fails, is skipped for the next-oldest, so a shard
// under heavy load may briefly exceed its stripe of the cap.
func (r *Registry) enforceCap(sh *shard) {
	resident := 0
	var victims []*Tenant
	for _, t := range sh.tenants {
		if !t.Resident() {
			continue
		}
		resident++
		if !t.pinned {
			victims = append(victims, t)
		}
	}
	sort.Slice(victims, func(i, j int) bool {
		return victims[i].lastTouch.Load() < victims[j].lastTouch.Load()
	})
	for _, t := range victims {
		if resident < r.maxPerShard {
			return
		}
		if !t.mu.TryLock() {
			continue
		}
		if r.evictLocked(sh, t) {
			resident--
		}
		t.mu.Unlock()
	}
}

// evictLocked, Sweep's and the cap's one spill-or-drop step, reports
// whether the tenant left memory; a failed spill or drop keeps it
// resident. Caller holds sh.mu and t.mu.
func (r *Registry) evictLocked(sh *shard, t *Tenant) bool {
	if t.deleted || t.sk == nil {
		return false
	}
	if r.spillDir != "" {
		return r.spill(t)
	}
	return r.drop(sh, t)
}

// drop discards a tenant outright (no spill directory) once the drop
// hook has taken it. Caller holds both sh.mu and t.mu.
func (r *Registry) drop(sh *shard, t *Tenant) bool {
	if r.dropHook != nil && r.dropHook(t.id) != nil {
		return false
	}
	delete(sh.tenants, t.id)
	rows := t.sk.RowsStored()
	t.deleted = true
	t.sk = nil
	if r.evictDropped != nil {
		r.evictDropped.Inc()
	}
	if r.evictHook != nil {
		r.evictHook(t.id, false)
	}
	if r.tr.Enabled() {
		r.tr.EmitNote("registry", trace.KindTenantEvict, 0, float64(rows), 0, t.id)
	}
	return true
}
