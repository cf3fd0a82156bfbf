package registry

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"swsketch/internal/binenc"
)

// TestSpillRestoreBitIdentical is the property behind the eviction
// design: for every snapshot-capable framework, an evicted-then-
// restored tenant answers Query bit-identically to the never-evicted
// sketch, across several ingest/evict/restore cycles.
func TestSpillRestoreBitIdentical(t *testing.T) {
	frameworks := []Config{
		{Framework: "lm-fd", Size: 48, D: 5, Ell: 8, B: 4},
		{Framework: "swr", Size: 48, D: 5, Ell: 6, Seed: 3},
		{Framework: "swor", Size: 48, D: 5, Ell: 6, Seed: 3},
		{Framework: "swor-all", Size: 48, D: 5, Ell: 6, Seed: 3},
		{Framework: "lm-fd", Window: "time", Size: 32.5, D: 5, Ell: 8, B: 4},
		{Framework: "ds-fd", Size: 48, D: 5, Ell: 8},
		{Framework: "ds-fd", Size: 48, D: 8, Ell: 4, FDBuffer: 2, FDAlpha: 0.5},
		{Framework: "lm-amm", Size: 48, D: 6, DB: 2, Ell: 8, B: 4},
		{Framework: "lm-amm", Window: "time", Size: 32.5, D: 5, DB: 2, Ell: 8, B: 4, FDBuffer: 2},
		{Framework: "di-amm", Size: 48, D: 6, DB: 3, Ell: 16, L: 3, R: 16},
		{Framework: "di-fd", Size: 48, D: 5, Ell: 16, L: 3, R: 16},
		{Framework: "di-fd", Size: 48, D: 5, Ell: 16, L: 3, R: 16, FDBuffer: 2, FDAlpha: 0.5},
	}
	for _, cfg := range frameworks {
		cfg := cfg
		name := cfg.Framework + "/" + cfg.normalize().Window
		t.Run(name, func(t *testing.T) {
			clk := &fakeClock{t: time.Unix(1000, 0)}
			r := mustNew(t, WithSpillDir(t.TempDir()), WithEvictTTL(time.Minute), WithClock(clk.Now))
			tn, err := r.Create("p", cfg)
			if err != nil {
				t.Fatal(err)
			}
			t0 := 0.0
			for cycle := 0; cycle < 3; cycle++ {
				ingestRows(t, tn, cfg.D, 60, t0)
				t0 += 60
				want := queryBits(t, tn, t0-1)
				clk.Advance(2 * time.Minute)
				if n := r.Sweep(); n != 1 {
					t.Fatalf("cycle %d: Sweep evicted %d, want 1", cycle, n)
				}
				if tn.Resident() {
					t.Fatalf("cycle %d: still resident", cycle)
				}
				got := queryBits(t, tn, t0-1) // Acquire restores
				if !bitsEqual(want, got) {
					t.Fatalf("cycle %d: restored answer differs from pre-evict answer", cycle)
				}
			}
		})
	}
}

// TestSpillScanOnRestart builds a registry over a spill directory left
// by a previous registry and checks the fleet resumes lazily with
// identical answers.
func TestSpillScanOnRestart(t *testing.T) {
	dir := t.TempDir()
	clk := &fakeClock{t: time.Unix(1000, 0)}
	r1 := mustNew(t, WithSpillDir(dir), WithEvictTTL(time.Minute), WithClock(clk.Now))
	want := make(map[string][][]uint64)
	for i := 0; i < 5; i++ {
		id := fmt.Sprintf("restart-%d", i)
		tn, err := r1.Create(id, lmCfg(4))
		if err != nil {
			t.Fatal(err)
		}
		ingestRows(t, tn, 4, 40+10*i, 0)
		want[id] = queryBits(t, tn, float64(40+10*i-1))
	}
	clk.Advance(time.Hour)
	if n := r1.Sweep(); n != 5 {
		t.Fatalf("Sweep spilled %d, want 5", n)
	}

	// "Restart": a fresh registry over the same directory. A restore
	// keeps the spill file as the tenant's checkpoint, so a third
	// registry over the directory resumes the same fleet again.
	for _, restart := range []string{"second", "third"} {
		r := mustNew(t, WithSpillDir(dir))
		if r.Len() != 5 {
			t.Fatalf("%s registry: Len = %d, want 5", restart, r.Len())
		}
		for id, bits := range want {
			tn, ok := r.Get(id)
			if !ok {
				t.Fatalf("%s registry: tenant %s missing", restart, id)
			}
			if tn.Resident() {
				t.Fatalf("%s registry: tenant %s eagerly resident (restore should be lazy)", restart, id)
			}
			if tn.Algorithm() != "LM-FD" {
				t.Fatalf("%s registry: tenant %s algorithm = %q", restart, id, tn.Algorithm())
			}
			at := float64(tn.Updates() - 1)
			if got := queryBits(t, tn, at); !bitsEqual(bits, got) {
				t.Fatalf("%s registry: tenant %s restarted answer differs", restart, id)
			}
		}
	}
}

// TestRestoreCorruptSpill verifies a damaged spill file surfaces as an
// Acquire error, not a panic, and leaves the tenant spilled.
func TestRestoreCorruptSpill(t *testing.T) {
	dir := t.TempDir()
	clk := &fakeClock{t: time.Unix(1000, 0)}
	r := mustNew(t, WithSpillDir(dir), WithEvictTTL(time.Minute), WithClock(clk.Now))
	tn, err := r.Create("corrupt", lmCfg(4))
	if err != nil {
		t.Fatal(err)
	}
	ingestRows(t, tn, 4, 30, 0)
	clk.Advance(time.Hour)
	if n := r.Sweep(); n != 1 {
		t.Fatalf("Sweep = %d", n)
	}
	path := r.spillPath("corrupt")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := tn.Acquire(); err == nil {
		tn.Release()
		t.Fatal("Acquire succeeded on a truncated spill file")
	} else if !strings.Contains(err.Error(), "corrupt") && !strings.Contains(err.Error(), "truncated") {
		t.Logf("acquire error: %v", err)
	}
	if tn.Resident() {
		t.Fatal("tenant marked resident after failed restore")
	}
}

// TestSpillWithTrailingByteIsCorrupt: a checkpoint with one byte past
// its sketch fails the spill restore, like any corrupt file, and the
// startup scan skips it. The file is FuzzSpillDecode's trailing-byte
// corpus entry.
func TestSpillWithTrailingByteIsCorrupt(t *testing.T) {
	dir := t.TempDir()
	clk := &fakeClock{t: time.Unix(1000, 0)}
	r := mustNew(t, WithSpillDir(dir), WithEvictTTL(time.Minute), WithClock(clk.Now))
	tn, err := r.Create("tail", lmCfg(4))
	if err != nil {
		t.Fatal(err)
	}
	ingestRows(t, tn, 4, 30, 0)
	clk.Advance(time.Hour)
	if n := r.Sweep(); n != 1 {
		t.Fatalf("Sweep = %d", n)
	}
	path := r.spillPath("tail")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, 0), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := tn.Acquire(); err == nil {
		tn.Release()
		t.Fatal("Acquire restored a spill file with a trailing byte")
	} else if !strings.Contains(err.Error(), "1 trailing bytes") {
		t.Fatalf("acquire error: %v", err)
	}
	if tn.Resident() {
		t.Fatal("tenant marked resident after failed restore")
	}
	if _, ok := mustNew(t, WithSpillDir(dir)).Get("tail"); ok {
		t.Fatal("the startup scan registered a spill file with a trailing byte")
	}
}

// TestSpillPathSanitises checks hostile IDs map to flat filenames.
func TestSpillPathSanitises(t *testing.T) {
	r := mustNew(t, WithSpillDir(t.TempDir()))
	for _, id := range []string{"../../etc/passwd", "a/b/c", strings.Repeat("z", MaxIDLen)} {
		p := r.spillPath(id)
		if filepath.Dir(p) != filepath.Clean(r.spillDir) {
			t.Fatalf("spillPath(%q) = %q escapes the spill dir", id, p)
		}
		if !strings.HasSuffix(p, spillExt) {
			t.Fatalf("spillPath(%q) = %q lacks the %s suffix", id, p, spillExt)
		}
	}
}

// TestSpillKeepsWholeConfig checks that a spill file carries the whole
// config: the FastFD knobs survive a spill and restore, and a restart
// that registers the tenant from its file. The v1 and v2 headers
// dropped fd_buffer and fd_alpha.
func TestSpillKeepsWholeConfig(t *testing.T) {
	for _, cfg := range []Config{
		{Framework: "lm-fd", Size: 48, D: 5, Ell: 8, B: 4, FDBuffer: 2, FDAlpha: 0.5},
		{Framework: "ds-fd", Size: 48, D: 5, Ell: 8, FDBuffer: 2, FDAlpha: 0.5},
		{Framework: "lm-amm", Size: 48, D: 6, DB: 2, Ell: 8, B: 4, FDBuffer: 2, FDAlpha: 0.5},
		{Framework: "di-fd", Size: 48, D: 5, Ell: 16, L: 3, R: 16},
		{Framework: "di-fd", Size: 48, D: 5, Ell: 16, L: 3, R: 16, FDBuffer: 2, FDAlpha: 0.5},
	} {
		dir := t.TempDir()
		clk := &fakeClock{t: time.Unix(1000, 0)}
		r := mustNew(t, WithSpillDir(dir), WithEvictTTL(time.Minute), WithClock(clk.Now))
		tn, err := r.Create("p", cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := tn.Config()
		ingestRows(t, tn, cfg.D, 30, 0)
		clk.Advance(time.Hour)
		if n := r.Sweep(); n != 1 {
			t.Fatalf("%s: Sweep = %d", cfg.Framework, n)
		}
		data, err := os.ReadFile(r.spillPath("p"))
		if err != nil {
			t.Fatal(err)
		}
		copyDir := t.TempDir()
		if err := os.WriteFile(filepath.Join(copyDir, filepath.Base(r.spillPath("p"))), data, 0o644); err != nil {
			t.Fatal(err)
		}
		restarted := mustNew(t, WithSpillDir(copyDir))
		stub, ok := restarted.Get("p")
		if !ok {
			t.Fatalf("%s: restart lost the tenant", cfg.Framework)
		}
		for _, got := range []*Tenant{tn, stub} {
			if err := got.Acquire(); err != nil {
				t.Fatal(err)
			}
			got.Release()
			if got.Config() != want {
				t.Fatalf("%s: config %+v after a spill, want %+v", cfg.Framework, got.Config(), want)
			}
		}
	}
}

// legacySpill encodes a tenant in the v1 (or, with DB set, v2) spill
// layout: the config field by field, without the FastFD knobs.
func legacySpill(id string, c Config, updates uint64, lastT float64, blob []byte) []byte {
	w := binenc.NewWriter()
	if c.DB != 0 {
		w.U64(spillMagicV2)
	} else {
		w.U64(spillMagic)
	}
	w.Blob([]byte(id))
	w.Blob([]byte(c.Framework))
	w.Blob([]byte(c.Window))
	w.F64(c.Size)
	w.Int(c.D)
	w.Int(c.Ell)
	w.Int(c.B)
	w.F64(c.Eps)
	w.Int(int(c.Seed))
	w.Int(c.L)
	w.F64(c.R)
	if c.DB != 0 {
		w.Int(c.DB)
	}
	w.U64(updates)
	w.F64(lastT)
	w.Bool(true)
	w.Blob(blob)
	return w.Bytes()
}

// TestLegacySpillFilesRestore checks that v1 and v2 spill files, as
// earlier versions wrote them, still register and restore.
func TestLegacySpillFilesRestore(t *testing.T) {
	dir := t.TempDir()
	src := mustNew(t, WithSpillDir(dir))
	want := map[string][][]uint64{}
	for id, cfg := range map[string]Config{
		"v1": lmCfg(4),
		"v2": {Framework: "lm-amm", Window: "sequence", Size: 48, D: 6, DB: 2, Ell: 8, B: 4},
	} {
		tn, err := src.Create(id, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ingestRows(t, tn, cfg.D, 40, 0)
		want[id] = queryBits(t, tn, 39)
		if err := tn.Acquire(); err != nil {
			t.Fatal(err)
		}
		blob, err := tn.Sketch().MarshalBinary()
		tn.Release()
		if err != nil {
			t.Fatal(err)
		}
		data := legacySpill(id, tn.Config(), 40, 39, blob)
		if err := os.WriteFile(src.spillPath(id), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	r := mustNew(t, WithSpillDir(dir))
	for id, bits := range want {
		tn, ok := r.Get(id)
		if !ok {
			t.Fatalf("%s spill file not registered", id)
		}
		if got := queryBits(t, tn, 39); !bitsEqual(bits, got) {
			t.Fatalf("%s spill file restored to different state", id)
		}
		if tn.Updates() != 40 {
			t.Fatalf("%s: updates %d, want 40", id, tn.Updates())
		}
	}
}
