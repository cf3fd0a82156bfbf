package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"

	"swsketch/internal/binenc"
	"swsketch/internal/mat"
	"swsketch/internal/stream"
)

// feedDI streams n random rows of squared norm sq into s at times i/2.
func feedDI(s *DI, rng *rand.Rand, n int, sq float64) {
	for i := 0; i < n; i++ {
		row := randRow(rng, s.d)
		scale := math.Sqrt(sq / mat.SqNorm(row))
		for j := range row {
			row[j] *= scale
		}
		s.Update(row, float64(i/2))
	}
}

// TestDIFDMarshalRoundTrip checks a DI-FD snapshot, classic and
// FastFD-tuned: the restored sketch answers Query and QueryRange
// bit-identically, re-marshals as a fixed point, and continues
// bit-exactly under the same further rows.
func TestDIFDMarshalRoundTrip(t *testing.T) {
	for _, o := range []stream.FDOpts{{}, {Buffer: 2, Alpha: 0.5}} {
		mk := func() *DI { return NewDIFDOpts(DIConfig{N: 200, R: 40, L: 4, Ell: 32, RSlack: 2}, 6, o) }
		rng := rand.New(rand.NewSource(9))
		src := mk()
		feedDI(src, rng, 500, 3)
		blob, err := src.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		restored := mk()
		if err := restored.UnmarshalBinary(blob); err != nil {
			t.Fatal(err)
		}
		if !sameMatrixBits(src.Query(249), restored.Query(249)) ||
			!sameMatrixBits(src.QueryRange(150, 249), restored.QueryRange(150, 249)) {
			t.Fatalf("%+v: restored sketch answers differently", o)
		}
		if again, err := restored.MarshalBinary(); err != nil || !bytes.Equal(blob, again) {
			t.Fatalf("%+v: re-marshal is not a fixed point (err %v)", o, err)
		}
		next := rand.New(rand.NewSource(10))
		cont := rand.New(rand.NewSource(10))
		for i := 0; i < 300; i++ {
			src.Update(unitRow(next, 6), float64(250+i))
			restored.Update(unitRow(cont, 6), float64(250+i))
		}
		if !sameMatrixBits(src.Query(549), restored.Query(549)) {
			t.Fatalf("%+v: restored sketch diverged under continuation", o)
		}
	}
}

// TestDISnapshotRefusesOtherBackings pins that only DI-FD snapshots:
// the per-level RP, hash and iSVD sketches have no codec.
func TestDISnapshotRefusesOtherBackings(t *testing.T) {
	cfg := DIConfig{N: 40, R: 4, L: 3, Ell: 16, RSlack: 2}
	for _, s := range []*DI{NewDIRP(cfg, 3, 1), NewDIHash(cfg, 3, 1), NewDIISVD(cfg, 3)} {
		if _, err := s.MarshalBinary(); err == nil {
			t.Errorf("%s marshalled", s.Name())
		}
	}
}

// diPatchedSeed is a snapshot of 200 rows of squared norm 2.25 through
// a DI over N = 64, R = 8, L = 3, ℓ = 8 whose completed-block count m,
// at offset off, is patched to 2²⁶.
func diPatchedSeed(tb testing.TB, s interface {
	WindowSketch
	MarshalBinary() ([]byte, error)
}, off int) []byte {
	rng := rand.New(rand.NewSource(61))
	for i := 0; i < 200; i++ {
		row := randRow(rng, 4)
		scale := 1.5 / math.Sqrt(mat.SqNorm(row))
		for j := range row {
			row[j] *= scale
		}
		s.Update(row, float64(i/2+1))
	}
	b, err := s.MarshalBinary()
	if err != nil {
		tb.Fatal(err)
	}
	if m := binary.LittleEndian.Uint64(b[off:]); m != 6 {
		tb.Fatalf("m field reads %d, want 6", m)
	}
	binary.LittleEndian.PutUint64(b[off:], 1<<26)
	return b
}

// diPatchedCfg is the config of the patched-m seeds.
var diPatchedCfg = DIConfig{N: 64, R: 8, L: 3, Ell: 8, RSlack: 2}

// diAMMPatchedM is the 2,290-byte DI-AMM (dA = dB = 2) patched-m seed:
// m sits after AMM's 48-byte header and DI's 48-byte config.
func diAMMPatchedM(tb testing.TB) []byte {
	return diPatchedSeed(tb, NewDIAMM(diPatchedCfg, 2, 2), 96)
}

// diFDPatchedM is the DI-FD (d = 4) patched-m seed: m sits after the
// magic, d, the FD tuning and the config.
func diFDPatchedM(tb testing.TB) []byte {
	return diPatchedSeed(tb, NewDIFD(diPatchedCfg, 4), 80)
}

// TestDISnapshotRejectsPatchedBlockCount replays a DI-AMM snapshot
// whose completed-block count m was patched from 6 to 2²⁶, and its DI-FD
// twin. The DI-AMM one used to decode, and its first query then walked
// every level-1 index from the oldest live block to m: 1.9 s on a
// 2-vCPU VM, with the tenant's lock held. The decoder now checks the
// dyadic structure (see DI.readBody) and rejects both.
func TestDISnapshotRejectsPatchedBlockCount(t *testing.T) {
	amm := diAMMPatchedM(t)
	if len(amm) != 2290 {
		t.Fatalf("built a %d-byte DI-AMM snapshot, want 2290", len(amm))
	}
	var a AMM
	if err := a.UnmarshalBinary(amm); err == nil {
		t.Error("accepted a DI-AMM snapshot with m patched to 2²⁶")
	}
	var s DI
	if err := s.UnmarshalBinary(diFDPatchedM(t)); err == nil {
		t.Error("accepted a DI-FD snapshot with m patched to 2²⁶")
	}
}

// TestDISnapshotRejectsBrokenDyadicStructure patches one block index of
// a valid DI-FD snapshot at a time: each result breaks an invariant
// closeBlocks and expire keep, and must be rejected.
func TestDISnapshotRejectsBrokenDyadicStructure(t *testing.T) {
	s := NewDIFD(DIConfig{N: 64, R: 8, L: 3, Ell: 8, RSlack: 2}, 2)
	feedDI(s, rand.New(rand.NewSource(5)), 240, 2.25)
	if len(s.levels[0]) < 2 || len(s.levels[1]) < 3 {
		t.Fatalf("want blocks on levels 1 and 2, have %d and %d", len(s.levels[0]), len(s.levels[1]))
	}
	for _, c := range []struct {
		name  string
		patch func(*DI)
	}{
		{"level-1 gap", func(s *DI) { s.levels[0][0].startIdx--; s.levels[0][0].endIdx-- }},
		{"level 1 ends before m", func(s *DI) { s.m++ }},
		{"level-2 block misaligned", func(s *DI) { s.levels[1][0].startIdx++; s.levels[1][0].endIdx++ }},
		{"level-2 gap", func(s *DI) { s.levels[1] = append(s.levels[1][:1], s.levels[1][2:]...) }},
		{"level-2 block of span 1", func(s *DI) { s.levels[1][0].startIdx = s.levels[1][0].endIdx }},
		{"level-2 block past m", func(s *DI) {
			last := &s.levels[1][len(s.levels[1])-1]
			last.startIdx, last.endIdx = last.startIdx+2, last.endIdx+2
		}},
	} {
		var bad DI
		cp := *s
		cp.levels = [][]diBlock{append([]diBlock(nil), s.levels[0]...), append([]diBlock(nil), s.levels[1]...), s.levels[2]}
		c.patch(&cp)
		blob, err := cp.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if err := bad.UnmarshalBinary(blob); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// diFDHeader starts a classic DI-FD snapshot of row width d over L
// levels (N = 64, R = 4, ℓ = 8), up to and including the clock and
// norm fields: completed blocks m = 0, an empty open block.
func diFDHeader(d, levels int) *binenc.Writer {
	w := binenc.NewWriter()
	w.U64(difdMagic)
	w.Int(d)
	w.Int(1) // FD buffer factor
	w.F64(1) // α
	w.Int(64)
	w.F64(4)
	w.Int(levels)
	w.Int(8) // Ell
	w.Int(4) // MinEll
	w.F64(1) // RSlack
	w.Int(0) // m
	for i := 0; i < 3; i++ {
		w.F64(0) // curSize, curStart, lastT
	}
	w.Bool(false) // seen
	w.F64(0)      // normMin
	w.F64(0)      // normMax
	w.Bool(false) // rawOverflow
	return w
}

// diBombBlocks is a DI-FD snapshot claiming 2³¹−1 level-1 blocks.
func diBombBlocks() []byte {
	w := diFDHeader(4, 1)
	w.Int(math.MaxInt32)
	return w.Bytes()
}

// diBombRawRow is a one-level DI-FD snapshot whose open block holds a
// raw row claiming 2²⁵ non-zeros.
func diBombRawRow() []byte {
	fd, err := stream.NewFD(4, 1<<24).MarshalBinary()
	if err != nil {
		panic(err)
	}
	w := diFDHeader(1<<24, 1)
	w.Int(0) // no level-1 blocks
	w.Blob(fd)
	w.F64(0)       // activeStartT
	w.Int(0)       // activeRows
	w.Int(1)       // one raw row
	w.Int(1 << 25) // its non-zero count
	w.Int(0)       // and the bytes of one non-zero
	w.F64(0)
	return w.Bytes()
}

// diBombFDShape is a one-level DI-FD snapshot whose active carries a
// zero-row FD blob claiming ℓ = d = 2¹³.
func diBombFDShape() []byte {
	const n = 1 << 13
	valid, err := stream.NewFD(2, 1).MarshalBinary()
	if err != nil {
		panic(err)
	}
	blob := binenc.NewWriter()
	blob.Int(n) // ℓ
	blob.Int(n) // d
	blob.Int(0) // rows
	w := diFDHeader(n, 1)
	w.Int(0) // no level-1 blocks
	w.Blob(append(valid[:8:8], blob.Bytes()...))
	return w.Bytes()
}

// TestDISnapshotAllocationBombs replays three short DI-FD snapshots
// that claim far more than their bytes carry: 2³¹−1 level-1 blocks, a
// raw row of 2²⁵ non-zeros, and an FD blob of ℓ = d = 2¹³. Each must fail
// cleanly, allocating in proportion to its input.
func TestDISnapshotAllocationBombs(t *testing.T) {
	for name, data := range map[string][]byte{
		"blocks":   diBombBlocks(),
		"raw row":  diBombRawRow(),
		"fd shape": diBombFDShape(),
	} {
		var s DI
		var err error
		_, n := heapDelta(func() { err = s.UnmarshalBinary(data) })
		if err == nil {
			t.Errorf("%s: %d-byte snapshot accepted", name, len(data))
		}
		if n > decodeBudget(len(data)) {
			t.Errorf("%s: decoding %d bytes allocated %d", name, len(data), n)
		}
	}
}

// diFuzzSeeds returns valid DI-FD snapshots: empty, with completed
// blocks on all three levels, with its open block in raw overflow, and
// FastFD-tuned.
func diFuzzSeeds(tb testing.TB) [][]byte {
	rng := rand.New(rand.NewSource(53))
	cfg := DIConfig{N: 40, R: 8, L: 3, Ell: 8, RSlack: 2}
	var out [][]byte
	for _, c := range []struct {
		fd   stream.FDOpts
		rows int
		sq   float64 // every row's squared norm
	}{
		{stream.FDOpts{}, 0, 1},
		{stream.FDOpts{}, 150, 2.25},
		{stream.FDOpts{}, 150, 1}, // 41 rows a block, more than ℓ = 8 raw
		{stream.FDOpts{Buffer: 2, Alpha: 0.5}, 150, 2.25},
	} {
		s := NewDIFDOpts(cfg, 3, c.fd)
		feedDI(s, rng, c.rows, c.sq)
		b, err := s.MarshalBinary()
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

// FuzzDIUnmarshal hardens the DI-FD snapshot decoder, which
// POST /v2/tenants/{id}/snapshot feeds untrusted bytes for di-fd
// tenants and the registry runs on every spill file. Decoding must never
// panic and must allocate only in proportion to its input, and an
// accepted snapshot must re-marshal as a fixed point. Two copies
// restored from that re-marshal, fed the same rows within the norm
// bound, must answer and re-marshal byte-identically. The committed
// corpus (testdata/fuzz/FuzzDIUnmarshal) holds this version's
// diFuzzSeeds snapshots whole and torn, the patched-m input of
// TestDISnapshotRejectsPatchedBlockCount, and the three inputs of
// TestDISnapshotAllocationBombs.
func FuzzDIUnmarshal(f *testing.F) {
	for _, seed := range diFuzzSeeds(f) {
		f.Add(seed)
		f.Add(seed[:len(seed)/2]) // torn mid-payload
	}
	f.Add(diFDPatchedM(f))
	f.Add(diBombBlocks())
	f.Add(diBombRawRow())
	f.Add(diBombFDShape())

	f.Fuzz(func(t *testing.T, data []byte) {
		var first DI
		var err error
		if _, n := heapDelta(func() { err = first.UnmarshalBinary(data) }); n > decodeBudget(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), n)
		}
		if err != nil {
			return
		}
		re, err := first.MarshalBinary()
		if err != nil {
			t.Fatalf("re-marshal of an accepted snapshot failed: %v", err)
		}
		var a, b DI
		if err := errors.Join(a.UnmarshalBinary(re), b.UnmarshalBinary(re)); err != nil {
			t.Fatalf("decode of the re-marshal failed: %v", err)
		}
		if re2, _ := a.MarshalBinary(); !bytes.Equal(re, re2) {
			t.Fatal("marshal is not a fixed point of a decode cycle")
		}
		c := a.cfg
		if a.d > 16 || c.L > 8 || c.fdLevelEll(c.L) > 64 || c.R > 1<<20 {
			return // keep the continuation cheap and its arithmetic finite
		}
		rng := rand.New(rand.NewSource(int64(len(data))))
		t0 := 0.0
		if a.seen {
			t0 = a.lastT
		}
		for i := 0; i < 96; i++ {
			row := randRow(rng, a.d)
			scale := math.Sqrt([]float64{0.05, 0.4, 0.999}[rng.Intn(3)] * c.R / mat.SqNorm(row))
			for j := range row {
				row[j] *= scale
			}
			tt := t0 + float64(i/2)
			a.Update(row, tt)
			b.Update(row, tt)
			if i%16 == 15 && !sameMatrixBits(a.Query(tt), b.Query(tt)) {
				t.Fatalf("restored copies answer differently after %d rows", i+1)
			}
		}
		ra, _ := a.MarshalBinary()
		rb, _ := b.MarshalBinary()
		if !bytes.Equal(ra, rb) {
			t.Fatal("restored copies re-marshal differently after the same rows")
		}
	})
}
