package registry

import (
	"bytes"
	"math"
	"reflect"
	"runtime"
	"testing"
	"unicode/utf8"

	"swsketch/internal/binenc"
)

// heapDelta reports the bytes fn allocated on the heap.
func heapDelta(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// spillFuzzSeeds returns valid spill files in each layout — v1 (lm-fd),
// v2 (lm-amm, with d_b) and v3 (lm-fd with FastFD knobs) — and files
// whose id, config or sketch blob claims 2³¹−1 bytes.
func spillFuzzSeeds(tb testing.TB) [][]byte {
	r, err := New()
	if err != nil {
		tb.Fatal(err)
	}
	var out [][]byte
	for i, cfg := range []Config{
		lmCfg(3),
		{Framework: "lm-amm", Window: "sequence", Size: 48, D: 5, DB: 2, Ell: 4, B: 2},
		{Framework: "lm-fd", Window: "time", Size: 12.5, D: 3, Ell: 4, B: 2, FDBuffer: 2, FDAlpha: 0.5},
	} {
		tn, err := r.Create(cfg.Framework+string(rune('a'+i)), cfg)
		if err != nil {
			tb.Fatal(err)
		}
		if err := tn.Acquire(); err != nil {
			tb.Fatal(err)
		}
		for j := 0; j < 30; j++ {
			row := make([]float64, cfg.D)
			row[j%cfg.D] = float64(j%4) + 0.5
			tn.Sketch().Update(row, float64(j))
		}
		blob, err := tn.Sketch().MarshalBinary()
		tn.Release()
		if err != nil {
			tb.Fatal(err)
		}
		if i < 2 {
			out = append(out, legacySpill(tn.ID(), tn.Config(), 30, 29, blob))
			continue
		}
		v3, err := encodeSpill(spillHeader{id: tn.ID(), cfg: tn.Config(), updates: 30, lastT: 29, seen: true}, blob)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, v3)
	}
	for field := 0; field < 3; field++ {
		w := binenc.NewWriter()
		w.U64(spillMagicV3)
		if field > 0 {
			w.Blob([]byte("x"))
		}
		if field > 1 {
			w.Blob([]byte(`{"framework":"lm-fd"}`))
			w.U64(0)
			w.F64(0)
			w.Bool(false)
		}
		w.Int(math.MaxInt32) // the blob's claimed length
		out = append(out, w.Bytes())
	}
	return out
}

// FuzzSpillDecode hardens the spill-file decoder, which reads every
// file of the spill directory at startup and again on each restore.
// Decoding must never panic and must allocate at most 64·len + 64 KiB.
// An accepted file must be refused with a byte appended, and must
// re-encode, in the v3 layout, to one that decodes to the same header
// and sketch blob (unless it is a legacy header holding what JSON
// cannot: invalid UTF-8, NaN or ±Inf). The committed corpus
// (testdata/fuzz/FuzzSpillDecode) holds spillFuzzSeeds' valid v1, v2
// and v3 files, a creation checkpoint (a v3 file with no sketch
// bytes), the hostile blob lengths and a v3 file with a trailing byte;
// the seeds below add each valid file truncated.
func FuzzSpillDecode(f *testing.F) {
	for _, seed := range spillFuzzSeeds(f) {
		f.Add(seed)
		f.Add(seed[:len(seed)/2])
		f.Add(seed[:9])
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var h spillHeader
		var blob []byte
		var err error
		if n := heapDelta(func() { h, blob, err = decodeSpill(data) }); n > 64*uint64(len(data))+1<<16 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), n)
		}
		if err != nil {
			return
		}
		if _, _, err := decodeSpill(append(data[:len(data):len(data)], 0)); err == nil {
			t.Fatal("a trailing byte was accepted")
		}
		if !utf8.ValidString(h.cfg.Framework) || !utf8.ValidString(h.cfg.Window) {
			return // a legacy header JSON cannot carry verbatim
		}
		re, err := encodeSpill(h, blob)
		if err != nil {
			return // a legacy header whose floats JSON cannot carry (NaN, ±Inf)
		}
		h2, blob2, err := decodeSpill(re)
		if err != nil {
			t.Fatalf("decode of the v3 re-encoding failed: %v", err)
		}
		if !reflect.DeepEqual(h, h2) || !bytes.Equal(blob, blob2) {
			t.Fatalf("v3 re-encoding decodes to %+v, want %+v", h2, h)
		}
	})
}
