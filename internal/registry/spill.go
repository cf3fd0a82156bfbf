package registry

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"swsketch/internal/binenc"
	"swsketch/internal/core"
	"swsketch/internal/trace"
)

// A spill file is the tenant's checkpoint, which the WAL journals too:
// everything needed to resurrect the tenant in a fresh process, namely
// its ID, declarative config, update count and sketch snapshot. The
// header's clock fields are written from the sketch's clock and
// ignored on restore: the snapshot carries the clock. The format is
// versioned with a magic number like the core snapshot formats. v1 and
// v2 wrote the config field by field, without the FastFD knobs; v3,
// the only one written, carries it as the WAL's create-record JSON.
const (
	spillMagic   = uint64(0x544E4E54_00000001) // "TNNT" v1
	spillMagicV2 = uint64(0x544E4E54_00000002) // "TNNT" v2: v1 + DB
	spillMagicV3 = uint64(0x544E4E54_00000003) // "TNNT" v3: JSON config
)

// spillExt is the spill-file suffix scanned at startup.
const spillExt = ".tenant"

// spillPath maps a tenant ID to its spill file. IDs are hex-encoded
// (they may contain path separators); very long IDs fall back to a
// SHA-256 digest so filenames stay bounded. The mapping needs no
// inverse — the ID is read back from the file header.
func (r *Registry) spillPath(id string) string {
	name := hex.EncodeToString([]byte(id))
	if len(name) > 128 {
		sum := sha256.Sum256([]byte(id))
		name = "x" + hex.EncodeToString(sum[:])
	}
	return filepath.Join(r.spillDir, name+spillExt)
}

// encodeSpill serialises a tenant header plus its sketch snapshot in
// the v3 layout.
func encodeSpill(h spillHeader, blob []byte) ([]byte, error) {
	cfg, err := json.Marshal(h.cfg)
	if err != nil {
		return nil, err
	}
	w := binenc.NewWriter()
	w.U64(spillMagicV3)
	w.Blob([]byte(h.id))
	w.Blob(cfg)
	w.U64(h.updates)
	w.F64(h.lastT)
	w.Bool(h.seen)
	w.Blob(blob)
	return w.Bytes(), nil
}

// spillHeader is the decoded prefix of a spill file.
type spillHeader struct {
	id      string
	cfg     Config
	updates uint64
	lastT   float64
	seen    bool
}

// decodeSpill parses a spill file, returning the header and the
// sketch snapshot blob. Bytes past the blob make the file corrupt.
func decodeSpill(data []byte) (spillHeader, []byte, error) {
	var h spillHeader
	r := binenc.NewReader(data)
	magic := r.Magic(spillMagic, spillMagicV2, spillMagicV3)
	h.id = string(r.Blob())
	if magic == spillMagicV3 {
		if cfg := r.Blob(); r.Err() == nil {
			if err := json.Unmarshal(cfg, &h.cfg); err != nil {
				return h, nil, fmt.Errorf("registry: corrupt spill file: config: %w", err)
			}
		}
	} else {
		h.cfg = Config{
			Framework: string(r.Blob()),
			Window:    string(r.Blob()),
			Size:      r.F64(),
			D:         r.Int(),
			Ell:       r.Int(),
			B:         r.Int(),
			Eps:       r.F64(),
			Seed:      int64(r.Int()),
			L:         r.Int(),
			R:         r.F64(),
		}
		if magic == spillMagicV2 {
			h.cfg.DB = r.Int()
		}
	}
	h.updates = r.U64()
	h.lastT = r.F64()
	h.seen = r.Bool()
	blob := r.Blob()
	if err := r.End(); err != nil {
		return h, nil, fmt.Errorf("registry: corrupt spill file: %w", err)
	}
	return h, blob, nil
}

// Checkpoint encodes the tenant's state as sk, a sketch built from the
// tenant's config, with updates rows committed: the bytes of the
// tenant's spill file, which the WAL's checkpoint record carries too.
func (t *Tenant) Checkpoint(sk core.TenantSketch, updates uint64) ([]byte, error) {
	blob, err := sk.MarshalBinary()
	if err != nil {
		return nil, err
	}
	lastT, seen := sk.Clock()
	return encodeSpill(spillHeader{id: t.id, cfg: t.cfg, updates: updates, lastT: lastT, seen: seen}, blob)
}

// OpenCheckpoint decodes tenant id's checkpoint and returns the tenant,
// created from the checkpoint's config when missing, with the sketch
// snapshot and update count to Decode and Install. A tenant built from
// another config fails, as Decode fails another algorithm or width.
func (r *Registry) OpenCheckpoint(id string, data []byte) (*Tenant, []byte, uint64, error) {
	h, blob, err := decodeSpill(data)
	t, ok := r.Get(id)
	switch {
	case err != nil:
	case h.id != id:
		err = fmt.Errorf("registry: the checkpoint of %q belongs to %q", id, h.id)
	case !ok:
		t, err = r.Create(id, h.cfg)
	case t.cfg != h.cfg:
		err = fmt.Errorf("registry: tenant %q was built from another config than its checkpoint", id)
	}
	return t, blob, h.updates, err
}

// spill writes the tenant's checkpoint to disk and releases its
// in-memory sketch. Caller holds t.mu. On a failure (a write, or a
// sketch that refuses to marshal) the tenant stays resident and the
// failure is counted.
func (r *Registry) spill(t *Tenant) bool {
	data, err := t.Checkpoint(t.sk, t.updates.Load())
	if err == nil {
		err = writeFileAtomic(r.spillPath(t.id), data)
	}
	if err != nil {
		if r.spillErrors != nil {
			r.spillErrors.Inc()
		}
		return false
	}
	rows := t.sk.RowsStored()
	lastT, _ := t.sk.Clock()
	t.lastRows.Store(int64(rows))
	t.sk = nil
	t.spilled.Store(true)
	if r.evictSpilled != nil {
		r.evictSpilled.Inc()
	}
	if r.evictHook != nil {
		r.evictHook(t.id, true)
	}
	if r.tr.Enabled() {
		r.tr.EmitNote("registry", trace.KindTenantEvict, lastT, float64(rows), 1, t.id)
	}
	return true
}

// restore rebuilds a spilled tenant from its spill file and reinstates
// its update count. Caller holds t.mu. The file stays as the tenant's
// checkpoint until a later spill replaces it or a Delete removes it:
// the spill released the tenant's WAL records, so after a restart
// replay rebuilds the tenant from this file plus the rows logged since
// the restore.
func (r *Registry) restore(t *Tenant) error {
	path := r.spillPath(t.id)
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("registry: restore %q: %w", t.id, err)
	}
	h, blob, err := decodeSpill(data)
	if err != nil {
		return fmt.Errorf("registry: restore %q: %w", t.id, err)
	}
	if h.id != t.id {
		return fmt.Errorf("registry: restore %q: spill file belongs to %q", t.id, h.id)
	}
	sk, err := t.Decode(blob)
	if err != nil {
		return fmt.Errorf("registry: restore %q: %w", t.id, err)
	}
	t.Install(sk, h.updates)
	t.spilled.Store(false)
	if r.restored != nil {
		r.restored.Inc()
	}
	if r.tr.Enabled() {
		lastT, _ := t.sk.Clock()
		r.tr.EmitNote("registry", trace.KindTenantRestore, lastT, float64(len(data)), 0, t.id)
	}
	return nil
}

// scanSpillDir registers every valid spill file as a spilled tenant,
// so a restarted process resumes its fleet lazily. Unreadable or
// foreign files are skipped (a shared directory may hold other
// artifacts); a corrupt file surfaces on the tenant's first Acquire
// instead of blocking startup.
func (r *Registry) scanSpillDir() error {
	entries, err := os.ReadDir(r.spillDir)
	if err != nil {
		return fmt.Errorf("registry: scan spill dir: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != spillExt {
			continue
		}
		data, err := os.ReadFile(filepath.Join(r.spillDir, e.Name()))
		if err != nil {
			continue
		}
		h, _, err := decodeSpill(data)
		if err != nil || h.id == "" || len(h.id) > MaxIDLen {
			continue
		}
		t := &Tenant{id: h.id, cfg: h.cfg, reg: r}
		t.updates.Store(h.updates)
		t.spilled.Store(true)
		t.touch()
		sh := r.shardFor(h.id)
		sh.mu.Lock()
		if _, ok := sh.tenants[h.id]; !ok {
			sh.tenants[h.id] = t
		}
		sh.mu.Unlock()
	}
	return nil
}

// writeFileAtomic writes data via a temp file + rename so a crashed
// spill never leaves a truncated file behind. The temp file is synced
// before the rename and the directory after it: a spill releases the
// tenant's WAL records, so the file must be durable before it counts.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".spill-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(name, path)
	}
	if err != nil {
		os.Remove(name)
		return err
	}
	return syncDir(dir)
}

// syncDir makes a rename in dir durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
