package registry

import (
	"encoding"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"swsketch/internal/core"
	"swsketch/internal/mat"
	"swsketch/internal/obs"
	"swsketch/internal/stream"
	"swsketch/internal/trace"
	"swsketch/internal/window"
)

// lmCfg is the deterministic workhorse config used across the tests.
func lmCfg(d int) Config {
	return Config{Framework: "lm-fd", Window: "sequence", Size: 64, D: d, Ell: 8, B: 4}
}

// fakeClock is a settable time source for TTL tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// ingestRows pushes a deterministic stream into a tenant through the
// Acquire/Release protocol, like the serve layer does.
func ingestRows(t *testing.T, tn *Tenant, d, n int, t0 float64) {
	t.Helper()
	if err := tn.Acquire(); err != nil {
		t.Fatalf("Acquire(%s): %v", tn.ID(), err)
	}
	defer tn.Release()
	rows := make([][]float64, n)
	times := make([]float64, n)
	for i := range rows {
		r := make([]float64, d)
		for j := range r {
			r[j] = math.Sin(float64(i*d+j)) + 0.1*float64(j)
		}
		rows[i] = r
		times[i] = t0 + float64(i)
	}
	tn.Sketch().UpdateBatch(rows, times)
	tn.Commit(n)
}

// queryBits snapshots a tenant's approximation as raw float64 bits.
func queryBits(t *testing.T, tn *Tenant, at float64) [][]uint64 {
	t.Helper()
	if err := tn.Acquire(); err != nil {
		t.Fatalf("Acquire(%s): %v", tn.ID(), err)
	}
	defer tn.Release()
	return denseBits(tn.Sketch().Query(at))
}

func denseBits(b *mat.Dense) [][]uint64 {
	out := make([][]uint64, b.Rows())
	for i := range out {
		out[i] = make([]uint64, b.Cols())
		for j := range out[i] {
			out[i][j] = math.Float64bits(b.At(i, j))
		}
	}
	return out
}

func bitsEqual(a, b [][]uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

func mustNew(t *testing.T, opts ...Option) *Registry {
	t.Helper()
	r, err := New(opts...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return r
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string // substring of the error; "" = valid
	}{
		{"lm-fd ok", lmCfg(4), ""},
		{"auto lm-fd", Config{Framework: "lm-fd", Size: 100, D: 4, Eps: 0.2}, ""},
		{"auto swr", Config{Framework: "SWR", Window: "time", Size: 9.5, D: 4, Eps: 0.3}, ""},
		{"di ok", Config{Framework: "di-fd", Size: 64, D: 4, Ell: 8, L: 3, R: 1}, ""},
		{"no framework", Config{Size: 10, D: 4, Ell: 4}, "framework is required"},
		{"bad framework", Config{Framework: "fd", Size: 10, D: 4, Ell: 4}, "unknown framework"},
		{"bad window", Config{Framework: "lm-fd", Window: "hour", Size: 10, D: 4, Ell: 4}, "unknown window kind"},
		{"bad size", Config{Framework: "lm-fd", Size: 0, D: 4, Ell: 4}, "size must be positive"},
		{"frac seq size", Config{Framework: "lm-fd", Size: 10.5, D: 4, Ell: 4}, "integer row count"},
		{"bad d", Config{Framework: "lm-fd", Size: 10, Ell: 4}, "dimension d"},
		{"no ell no eps", Config{Framework: "swor", Size: 10, D: 4}, "explicit ell"},
		{"auto needs eps", Config{Framework: "lm-fd", Size: 10, D: 4}, "eps must be in (0,1)"},
		{"di time", Config{Framework: "di-fd", Window: "time", Size: 10, D: 4, Ell: 4, L: 2, R: 1}, "sequence windows only"},
		{"di no levels", Config{Framework: "di-fd", Size: 10, D: 4, Ell: 4, R: 1}, "levels"},
		{"di no r", Config{Framework: "di-fd", Size: 10, D: 4, Ell: 4, L: 2}, "squared row norm"},
		{"ds ok", Config{Framework: "ds-fd", Size: 64, D: 4, Ell: 8}, ""},
		{"ds declared r", Config{Framework: "ds-fd", Size: 64, D: 4, Ell: 8, R: 2.5}, ""},
		{"auto ds-fd", Config{Framework: "ds-fd", Size: 100, D: 4, Eps: 0.25}, ""},
		{"ds time", Config{Framework: "ds-fd", Window: "time", Size: 10, D: 4, Ell: 8}, "sequence windows only"},
		{"ds tiny ell", Config{Framework: "ds-fd", Size: 64, D: 4, Ell: 1}, "ell ≥ 2"},
		{"ds negative r", Config{Framework: "ds-fd", Size: 64, D: 4, Ell: 8, R: -1}, "norm bound"},
		{"fastfd lm-fd", Config{Framework: "lm-fd", Size: 10, D: 4, Ell: 4, FDBuffer: 2, FDAlpha: 0.5}, ""},
		{"fastfd di-fd", Config{Framework: "di-fd", Size: 64, D: 4, Ell: 8, L: 3, R: 1, FDBuffer: 2}, ""},
		{"fastfd auto lm-fd", Config{Framework: "lm-fd", Size: 100, D: 4, Eps: 0.2, FDBuffer: 4}, ""},
		{"bad fd buffer", Config{Framework: "lm-fd", Size: 10, D: 4, Ell: 4, FDBuffer: -1}, "buffer factor"},
		{"bad fd alpha", Config{Framework: "lm-fd", Size: 10, D: 4, Ell: 4, FDAlpha: 1.5}, "alpha in (0,1]"},
		{"fastfd ds-fd", Config{Framework: "ds-fd", Size: 64, D: 4, Ell: 8, FDBuffer: 2, FDAlpha: 0.5}, ""},
		{"fd knobs on swr", Config{Framework: "swr", Size: 10, D: 4, Ell: 4, FDBuffer: 2}, "FD and AMM frameworks only"},
		{"fd alpha on hash", Config{Framework: "lm-hash", Size: 10, D: 4, Ell: 4, FDAlpha: 0.5}, "FD and AMM frameworks only"},
		{"lm-amm ok", Config{Framework: "lm-amm", Size: 48, D: 6, DB: 2, Ell: 8, B: 4}, ""},
		{"auto lm-amm", Config{Framework: "lm-amm", Size: 100, D: 6, DB: 2, Eps: 0.2}, ""},
		{"lm-amm time", Config{Framework: "lm-amm", Window: "time", Size: 9.5, D: 6, DB: 2, Ell: 8}, ""},
		{"fastfd lm-amm", Config{Framework: "lm-amm", Size: 48, D: 6, DB: 2, Ell: 8, FDBuffer: 2, FDAlpha: 0.5}, ""},
		{"di-amm ok", Config{Framework: "di-amm", Size: 64, D: 6, DB: 3, Ell: 8, L: 3, R: 4}, ""},
		{"amm no db", Config{Framework: "lm-amm", Size: 48, D: 6, Ell: 8}, "d_b in (0,d)"},
		{"amm db too wide", Config{Framework: "lm-amm", Size: 48, D: 6, DB: 6, Ell: 8}, "dA ≥ 1"},
		{"amm negative db", Config{Framework: "di-amm", Size: 64, D: 6, DB: -1, Ell: 8, L: 3, R: 4}, "dB ≥ 1"},
		{"db on lm-fd", Config{Framework: "lm-fd", Size: 48, D: 6, DB: 2, Ell: 8}, "paired (amm) frameworks only"},
		{"db on swr", Config{Framework: "swr", Size: 48, D: 6, DB: 2, Ell: 8}, "paired (amm) frameworks only"},
		{"di-amm time", Config{Framework: "di-amm", Window: "time", Size: 10, D: 6, DB: 2, Ell: 8, L: 3, R: 4}, "sequence windows only"},
		{"di-amm no r", Config{Framework: "di-amm", Size: 64, D: 6, DB: 3, Ell: 8, L: 3}, "squared row norm"},
	}
	for _, tc := range cases {
		_, err := tc.cfg.Build()
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

// TestConfigDSFDFDOptsPassThrough asserts the fd_buffer/fd_alpha knobs
// reach the DS-FD frame sketches: the built sketch reports them via
// its Stats, and the default config reports the classic cadence.
func TestConfigDSFDFDOptsPassThrough(t *testing.T) {
	tuned, err := Config{Framework: "ds-fd", Size: 64, D: 4, Ell: 8, FDBuffer: 3, FDAlpha: 0.5}.Build()
	if err != nil {
		t.Fatal(err)
	}
	st := tuned.Stats()
	if st["fd_buffer"] != 3 || st["fd_alpha"] != 0.5 {
		t.Fatalf("FastFD knobs not passed through: buffer=%v alpha=%v", st["fd_buffer"], st["fd_alpha"])
	}
	classic, err := Config{Framework: "ds-fd", Size: 64, D: 4, Ell: 8}.Build()
	if err != nil {
		t.Fatal(err)
	}
	st = classic.Stats()
	if st["fd_buffer"] != 1 || st["fd_alpha"] != 1 {
		t.Fatalf("default config is not the classic cadence: buffer=%v alpha=%v", st["fd_buffer"], st["fd_alpha"])
	}
}

// TestConfigAutoLMAMMFDOpts: an lm-amm config sized from eps builds
// its block co-sketches with the config's fd_buffer, byte for byte the
// sketch NewLMAMMOpts builds at the auto size (ℓ 10, b 4 for ε 0.1).
func TestConfigAutoLMAMMFDOpts(t *testing.T) {
	sk, err := Config{Framework: "lm-amm", Size: 64, D: 8, DB: 4, Eps: 0.1, FDBuffer: 2}.Build()
	if err != nil {
		t.Fatal(err)
	}
	got, err := sk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.NewLMAMMOpts(window.Seq(64), 4, 4, 10, 4, stream.FDOpts{Buffer: 2}).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("auto-sized lm-amm snapshot (%d bytes) differs from NewLMAMMOpts with buffer 2 (%d bytes)", len(got), len(want))
	}
}

func TestConfigBuildNames(t *testing.T) {
	cases := []struct {
		cfg  Config
		name string
	}{
		{Config{Framework: "swr", Size: 16, D: 3, Ell: 4}, "SWR"},
		{Config{Framework: "swor", Size: 16, D: 3, Ell: 4}, "SWOR"},
		{Config{Framework: "swor-all", Size: 16, D: 3, Ell: 4}, "SWOR-ALL"},
		{Config{Framework: "lm-fd", Size: 16, D: 3, Ell: 4}, "LM-FD"},
		{Config{Framework: "lm-hash", Size: 16, D: 3, Ell: 4}, "LM-HASH"},
		{Config{Framework: "di-fd", Size: 16, D: 3, Ell: 4, L: 2, R: 1}, "DI-FD"},
		{Config{Framework: "ds-fd", Size: 16, D: 3, Ell: 4}, "DS-FD"},
		{Config{Framework: "lm-amm", Size: 16, D: 3, DB: 1, Ell: 4}, "LM-AMM"},
		{Config{Framework: "di-amm", Size: 16, D: 3, DB: 1, Ell: 4, L: 2, R: 4}, "DI-AMM"},
	}
	for _, tc := range cases {
		sk, err := tc.cfg.Build()
		if err != nil {
			t.Fatalf("Build(%s): %v", tc.cfg.Framework, err)
		}
		if sk.Name() != tc.name {
			t.Errorf("Build(%s).Name() = %q, want %q", tc.cfg.Framework, sk.Name(), tc.name)
		}
		if got := tc.cfg.algoName(); got != tc.name {
			t.Errorf("algoName(%s) = %q, want %q", tc.cfg.Framework, got, tc.name)
		}
	}
}

func TestCreateGetDelete(t *testing.T) {
	r := mustNew(t)
	tn, err := r.Create("alpha", lmCfg(4))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if tn.ID() != "alpha" || tn.Algorithm() != "LM-FD" || tn.D() != 4 {
		t.Fatalf("tenant = %q/%q/d=%d", tn.ID(), tn.Algorithm(), tn.D())
	}
	if _, err := r.Create("alpha", lmCfg(4)); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate Create error = %v, want ErrExists", err)
	}
	if _, err := r.Create("", lmCfg(4)); !errors.Is(err, ErrBadID) {
		t.Fatalf("empty-ID Create error = %v, want ErrBadID", err)
	}
	if _, err := r.Create(strings.Repeat("x", MaxIDLen+1), lmCfg(4)); !errors.Is(err, ErrBadID) {
		t.Fatalf("long-ID Create error = %v, want ErrBadID", err)
	}
	got, ok := r.Get("alpha")
	if !ok || got != tn {
		t.Fatalf("Get = %v,%v", got, ok)
	}
	if _, ok := r.Get("missing"); ok {
		t.Fatal("Get(missing) found a tenant")
	}
	ingestRows(t, tn, 4, 100, 0)
	if tn.Updates() != 100 {
		t.Fatalf("Updates = %d, want 100", tn.Updates())
	}
	if tn.Rows() == 0 {
		t.Fatal("Rows = 0 after ingest+release")
	}
	infos := r.List()
	if len(infos) != 1 || infos[0].ID != "alpha" || !infos[0].Resident || infos[0].Updates != 100 {
		t.Fatalf("List = %+v", infos)
	}
	if !r.Delete("alpha") {
		t.Fatal("Delete(alpha) = false")
	}
	if r.Delete("alpha") {
		t.Fatal("second Delete(alpha) = true")
	}
	if err := tn.Acquire(); !errors.Is(err, ErrDeleted) {
		t.Fatalf("Acquire after delete = %v, want ErrDeleted", err)
	}
	if r.Len() != 0 {
		t.Fatalf("Len = %d after delete", r.Len())
	}
}

// TestTenantClock checks that a tenant's clock is its sketch's: Commit
// only counts rows, and a restore sets the count and brings the
// snapshot's clock along.
func TestTenantClock(t *testing.T) {
	r := mustNew(t)
	tn, err := r.Create("c", lmCfg(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := tn.Acquire(); err != nil {
		t.Fatal(err)
	}
	defer tn.Release()
	if lastT, seen := tn.Sketch().Clock(); seen || lastT != 0 {
		t.Fatalf("fresh clock = %v,%v", lastT, seen)
	}
	tn.Sketch().Update([]float64{1, 2, 3}, 7)
	tn.Commit(1)
	if lastT, seen := tn.Sketch().Clock(); !seen || lastT != 7 || tn.Updates() != 1 {
		t.Fatalf("clock = %v,%v, updates %d after commit", lastT, seen, tn.Updates())
	}
	blob, err := tn.Sketch().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	tn.Sketch().Update([]float64{1, 2, 3}, 9)
	tn.Commit(1)
	sk, err := tn.Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	tn.Install(sk, 0)
	if lastT, seen := tn.Sketch().Clock(); !seen || lastT != 7 || tn.Updates() != 0 {
		t.Fatalf("clock = %v,%v, updates %d after restore", lastT, seen, tn.Updates())
	}
}

func TestSweepSpillsAndRestores(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	dir := t.TempDir()
	tr := trace.New(64)
	tr.Enable()
	reg := obs.NewRegistry()
	r := mustNew(t,
		WithSpillDir(dir),
		WithEvictTTL(time.Minute),
		WithClock(clk.Now),
		WithObs(reg),
		WithTrace(tr),
	)
	tn, err := r.Create("spillme", lmCfg(6))
	if err != nil {
		t.Fatal(err)
	}
	ingestRows(t, tn, 6, 200, 0)
	before := queryBits(t, tn, 199)
	wantUpdates := tn.Updates()

	if n := r.Sweep(); n != 0 {
		t.Fatalf("Sweep before TTL evicted %d", n)
	}
	clk.Advance(2 * time.Minute)
	if n := r.Sweep(); n != 1 {
		t.Fatalf("Sweep after TTL evicted %d, want 1", n)
	}
	if tn.Resident() {
		t.Fatal("tenant still resident after spill")
	}
	res, sp := r.counts()
	if res != 0 || sp != 1 {
		t.Fatalf("counts = %d resident, %d spilled", res, sp)
	}
	// The evicted tenant restores transparently and answers
	// bit-identically to the never-evicted state.
	after := queryBits(t, tn, 199)
	if !tn.Resident() {
		t.Fatal("tenant not resident after touch")
	}
	if !bitsEqual(before, after) {
		t.Fatal("restored approximation differs from pre-evict answer")
	}
	if tn.Updates() != wantUpdates {
		t.Fatalf("Updates = %d after restore, want %d", tn.Updates(), wantUpdates)
	}
	// The clock survives the round trip: next ingest continues at the
	// pre-evict position.
	ingestRows(t, tn, 6, 10, 200)

	counts := tr.Counts()
	if counts[trace.KindTenantEvict].Count != 1 || counts[trace.KindTenantRestore].Count != 1 {
		t.Fatalf("trace counts = %+v", counts)
	}
	exp := reg.Expose()
	for _, want := range []string{
		"swsketch_registry_tenants_created_total 1",
		`swsketch_registry_tenants_evicted_total{mode="spill"} 1`,
		"swsketch_registry_tenants_restored_total 1",
		`swsketch_registry_tenant_rows{tenant="spillme"}`,
	} {
		if !strings.Contains(exp, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

func TestSweepDropsWithoutSpillDir(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	r := mustNew(t, WithEvictTTL(time.Minute), WithClock(clk.Now))
	tn, err := r.Create("dropme", lmCfg(4))
	if err != nil {
		t.Fatal(err)
	}
	ingestRows(t, tn, 4, 50, 0)
	clk.Advance(time.Hour)
	if n := r.Sweep(); n != 1 {
		t.Fatalf("Sweep evicted %d, want 1", n)
	}
	if _, ok := r.Get("dropme"); ok {
		t.Fatal("dropped tenant still registered")
	}
	if err := tn.Acquire(); !errors.Is(err, ErrDeleted) {
		t.Fatalf("Acquire after drop = %v, want ErrDeleted", err)
	}
}

func TestSweepSkipsPinnedAndBusy(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	r := mustNew(t, WithEvictTTL(time.Minute), WithClock(clk.Now))
	cfg := lmCfg(4)
	if _, err := r.CreatePinned("default", cfg); err != nil {
		t.Fatal(err)
	}
	busy, err := r.Create("busy", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := busy.Acquire(); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Hour)
	if n := r.Sweep(); n != 0 {
		t.Fatalf("Sweep evicted %d pinned/busy tenants", n)
	}
	busy.Release()
	// Release re-stamps recency, so the former holder is fresh again.
	if n := r.Sweep(); n != 0 {
		t.Fatalf("Sweep evicted %d, want 0 (release touched)", n)
	}
	clk.Advance(time.Hour)
	if n := r.Sweep(); n != 1 {
		t.Fatalf("Sweep evicted %d, want 1 (busy tenant, now idle)", n)
	}
	if def, ok := r.Get("default"); !ok || !def.Resident() {
		t.Fatal("pinned default tenant was evicted")
	}
}

func TestMaxTenantsLRU(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	r := mustNew(t, WithShards(1), WithMaxTenants(2), WithClock(clk.Now))
	for _, id := range []string{"a", "b"} {
		if _, err := r.Create(id, lmCfg(4)); err != nil {
			t.Fatal(err)
		}
		clk.Advance(time.Second)
	}
	// Touch "a" so "b" is the LRU victim.
	if _, ok := r.Get("a"); !ok {
		t.Fatal("Get(a)")
	}
	clk.Advance(time.Second)
	if _, err := r.Create("c", lmCfg(4)); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Get("b"); ok {
		t.Fatal("LRU victim b still registered (no spill dir: drop)")
	}
	for _, id := range []string{"a", "c"} {
		if _, ok := r.Get(id); !ok {
			t.Fatalf("tenant %s missing after cap eviction", id)
		}
	}
}

func TestMaxTenantsSpillsWithDir(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	r := mustNew(t, WithShards(1), WithMaxTenants(2), WithClock(clk.Now), WithSpillDir(t.TempDir()))
	a, err := r.Create("a", lmCfg(4))
	if err != nil {
		t.Fatal(err)
	}
	ingestRows(t, a, 4, 30, 0)
	pre := queryBits(t, a, 29)
	clk.Advance(time.Second)
	if _, err := r.Create("b", lmCfg(4)); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	if _, err := r.Create("c", lmCfg(4)); err != nil {
		t.Fatal(err)
	}
	if a.Resident() {
		t.Fatal("LRU victim a still resident")
	}
	if got, ok := r.Get("a"); !ok || got != a {
		t.Fatal("spilled tenant a left the registry")
	}
	if post := queryBits(t, a, 29); !bitsEqual(pre, post) {
		t.Fatal("cap-evicted tenant restored to different state")
	}
}

// TestMaxTenantsSkipsUnspillableVictim pins that the cap moves past a
// victim it cannot spill: an lm-hash tenant refuses to snapshot, so
// its spill fails and it stays resident, and each later Create evicts
// the next-oldest tenant instead. Stopping at the failed spill let all
// 20 tenants stay resident.
func TestMaxTenantsSkipsUnspillableVictim(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	r := mustNew(t, WithShards(1), WithMaxTenants(4), WithClock(clk.Now), WithSpillDir(t.TempDir()))
	hash := Config{Framework: "lm-hash", Size: 64, D: 4, Ell: 8, B: 4}
	if _, err := r.Create("hash", hash); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 19; i++ {
		clk.Advance(time.Second)
		if _, err := r.Create(fmt.Sprintf("fd-%02d", i), lmCfg(4)); err != nil {
			t.Fatal(err)
		}
	}
	resident := 0
	for _, info := range r.List() {
		if info.Resident {
			resident++
		}
	}
	if resident > 4 {
		t.Fatalf("%d tenants resident under a cap of 4", resident)
	}
	if h, _ := r.Get("hash"); !h.Resident() {
		t.Fatal("the unspillable tenant left memory")
	}
	if r.Len() != 20 {
		t.Fatalf("registry holds %d tenants, want all 20", r.Len())
	}
}

// TestRestoreRejectsForeignSnapshot checks that Decode keeps a
// tenant's algorithm and row width: a snapshot of another d, or of
// another algorithm the sketch type can decode, is rejected and the
// tenant's state is unchanged. A pinned tenant is covered as well.
func TestRestoreRejectsForeignSnapshot(t *testing.T) {
	r := mustNew(t)
	snap := func(sk core.WindowSketch) []byte {
		b, err := sk.(encoding.BinaryMarshaler).MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	wide := core.NewLMFD(window.Seq(64), 9, 8, 4)
	fd4, _ := r.Create("fd4", lmCfg(4))
	hash, _ := r.Create("hash", Config{Framework: "lm-hash", Size: 64, D: 4, Ell: 8, B: 4})
	pinned, _ := r.CreatePinned("pinned", lmCfg(4))
	for _, c := range []struct {
		tn   *Tenant
		blob []byte
	}{
		{fd4, snap(wide)},
		{hash, snap(core.NewLMFD(window.Seq(64), 4, 8, 4))},
		{pinned, snap(wide)},
		{pinned, snap(core.NewSWR(window.Seq(64), 4, 4, 1))},
	} {
		t0 := float64(c.tn.Updates())
		ingestRows(t, c.tn, 4, 20, t0)
		want := queryBits(t, c.tn, t0+19)
		if _, err := c.tn.Decode(c.blob); err == nil {
			t.Fatalf("%s: restored a foreign snapshot", c.tn.ID())
		}
		if got := queryBits(t, c.tn, t0+19); !bitsEqual(want, got) {
			t.Fatalf("%s: a rejected restore changed the sketch", c.tn.ID())
		}
	}
}
