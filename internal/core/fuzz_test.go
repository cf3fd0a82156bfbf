package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"swsketch/internal/mat"
	"swsketch/internal/stream"
	"swsketch/internal/window"
)

// rowsFromBytes decodes a fuzz payload into a row stream with values
// in a sane range (no NaN/Inf) and dimension 3.
func rowsFromBytes(data []byte) [][]float64 {
	var rows [][]float64
	for i := 0; i+2 < len(data); i += 3 {
		rows = append(rows, []float64{
			float64(int(data[i])-128) / 16,
			float64(int(data[i+1])-128) / 16,
			float64(int(data[i+2])-128) / 16,
		})
	}
	return rows
}

// FuzzLMFD feeds arbitrary streams through LM-FD and checks what LM
// guarantees for any stream, whatever the rows' norms: the query never
// panics or answers NaN, no non-empty live block ends at or before the
// cutoff, and the answer holds at most the mass of the rows from the
// oldest live block's start on. LM keeps a straddling block whole, so
// the answer may hold more mass than the window, but FD shrinks and
// merges never add mass. The committed corpus holds a stream whose
// straddling block carries six times the window's mass.
func FuzzLMFD(f *testing.F) {
	f.Add([]byte{1, 2, 3, 100, 200, 50, 0, 0, 0, 9, 9, 9})
	f.Add([]byte{255, 255, 255, 128, 128, 128})
	f.Fuzz(func(t *testing.T, data []byte) {
		rows := rowsFromBytes(data)
		if len(rows) == 0 {
			return
		}
		spec := window.Seq(8)
		lm := NewLMFD(spec, 3, 6, 3)
		now := float64(len(rows) - 1)
		for i, r := range rows {
			lm.Update(r, float64(i))
		}
		mass := lm.Query(now).FrobeniusSq()
		if math.IsNaN(mass) || math.IsInf(mass, 0) {
			t.Fatalf("non-finite sketch mass %v", mass)
		}
		cutoff, oldest := spec.Cutoff(now), math.Inf(1)
		live := func(blk *lmBlock) {
			if blk.end <= cutoff {
				t.Fatalf("a live block [%v, %v] ends at or before the cutoff %v", blk.start, blk.end, cutoff)
			}
			oldest = math.Min(oldest, blk.start)
		}
		for i := range lm.levels {
			for j := range lm.levels[i] {
				live(&lm.levels[i][j])
			}
		}
		if len(lm.active.raw) > 0 {
			live(&lm.active)
		}
		fed := 0.0
		for i, r := range rows {
			if float64(i) >= oldest {
				fed += mat.SqNorm(r)
			}
		}
		if mass > fed*(1+1e-9) {
			t.Fatalf("sketch mass %v exceeds the mass %v of the rows from the oldest live block's start %v on", mass, fed, oldest)
		}
	})
}

// FuzzUpdateBatch splits arbitrary streams into arbitrary-sized
// batches and asserts the bulk ingest path is bit-identical to
// row-at-a-time feeding: LM-FD is deterministic, and the samplers
// consume their rng in the same order on both paths, so the query
// answers must match exactly (tolerance 0).
func FuzzUpdateBatch(f *testing.F) {
	f.Add([]byte{1, 2, 3, 100, 200, 50, 0, 0, 0, 9, 9, 9}, uint8(3))
	f.Add([]byte{255, 255, 255, 128, 128, 128, 7, 7, 7}, uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, chunk uint8) {
		rows := rowsFromBytes(data)
		if len(rows) == 0 {
			return
		}
		size := int(chunk%7) + 1
		times := make([]float64, len(rows))
		for i := range times {
			times[i] = float64(i)
		}
		spec := window.Seq(8)
		byRow := []WindowSketch{NewLMFD(spec, 3, 6, 3), NewSWR(spec, 3, 3, 7), NewSWOR(spec, 3, 3, 7)}
		byBatch := []WindowSketch{NewLMFD(spec, 3, 6, 3), NewSWR(spec, 3, 3, 7), NewSWOR(spec, 3, 3, 7)}
		for i, r := range rows {
			for _, sk := range byRow {
				sk.Update(r, times[i])
			}
		}
		for i := 0; i < len(rows); i += size {
			j := i + size
			if j > len(rows) {
				j = len(rows)
			}
			for _, sk := range byBatch {
				sk.UpdateBatch(rows[i:j], times[i:j])
			}
		}
		tEnd := times[len(times)-1]
		for k := range byRow {
			a, b := byRow[k].Query(tEnd), byBatch[k].Query(tEnd)
			if !a.Equal(b, 0) {
				t.Fatalf("%s: batch ingest (chunk %d) diverges from row-at-a-time", byRow[k].Name(), size)
			}
		}
	})
}

// dsfdHeader builds a DSFD snapshot prefix: the magic followed by
// little-endian int64 fields, for hostile-shape seeds.
func dsfdHeader(magic uint64, fields ...int) []byte {
	var b bytes.Buffer
	binary.Write(&b, binary.LittleEndian, magic)
	for _, f := range fields {
		binary.Write(&b, binary.LittleEndian, int64(f))
	}
	return b.Bytes()
}

// FuzzDSFDUnmarshal hardens the DS-FD snapshot decoder, mirroring
// stream.FuzzFDUnmarshal: the seed corpus carries real snapshots
// (empty, single-frame, and multi-frame states with live prefix
// snapshots), torn and truncated mutants, and an allocation-bomb
// header claiming astronomically large shapes. Decoding must never
// panic, and any accepted blob must re-marshal as a byte-level fixed
// point.
func FuzzDSFDUnmarshal(f *testing.F) {
	rng := rand.New(rand.NewSource(17))
	snap := func(cfg DSFDConfig, d, rows int) []byte {
		s := NewDSFD(cfg, d)
		for i := 0; i < rows; i++ {
			s.Update(randRow(rng, d), float64(i))
		}
		b, err := s.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	empty := snap(DSFDConfig{N: 20, Ell: 4}, 3, 0)
	single := snap(DSFDConfig{N: 20, Ell: 4}, 3, 15)
	// ℓ < d with several windows of data: frozen frames, prefix
	// snapshots, and a tuned FastFD buffer all appear in the blob.
	deep := snap(DSFDConfig{N: 60, Ell: 4, FD: stream.FDOpts{Buffer: 2, Alpha: 0.5}}, 8, 400)
	for _, seed := range [][]byte{empty, single, deep} {
		f.Add(seed)
		f.Add(seed[:len(seed)/2]) // torn mid-payload
		f.Add(seed[:9])           // truncated just past the magic
	}
	corrupt := append([]byte(nil), single...)
	corrupt[0] ^= 0xFF // unrecognised magic
	f.Add(corrupt)
	f.Add([]byte{})
	// Allocation bomb: a header claiming a ~8e8-dimensional sketch;
	// the decoder must reject the shape before allocating for it (see
	// also testdata/fuzz/FuzzDSFDUnmarshal).
	f.Add(dsfdHeader(dsfdMagic, 808464432, 808464432, 808464432))

	f.Fuzz(func(t *testing.T, data []byte) {
		var s DSFD
		if err := s.UnmarshalBinary(data); err != nil {
			return // rejected blobs only need to fail cleanly
		}
		re, err := s.MarshalBinary()
		if err != nil {
			t.Fatalf("re-marshal of accepted blob failed: %v", err)
		}
		var s2 DSFD
		if err := s2.UnmarshalBinary(re); err != nil {
			t.Fatalf("decode of re-marshal failed: %v", err)
		}
		re2, err := s2.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(re, re2) {
			t.Fatal("marshal is not stable across a decode cycle")
		}
		// An accepted sketch must remain usable: it takes a row that fits
		// its declared R (ones when R is adaptive) one step after its
		// clock.
		v := 1.0
		if s2.cfg.R > 0 {
			v = math.Sqrt(s2.cfg.R / float64(2*s2.d))
		}
		row := make([]float64, s2.d)
		for i := range row {
			row[i] = v
		}
		next := s2.lastT + 1
		if err := s2.CheckBatch([][]float64{row}, []float64{next}); err != nil {
			t.Fatalf("the sketch refuses a row that fits its declared R=%v: %v", s2.cfg.R, err)
		}
		s2.Update(row, next)
	})
}

// FuzzSWOR drives the without-replacement sampler with arbitrary
// streams, asserting the structural invariants hold at every step.
func FuzzSWOR(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{0, 0, 0, 1, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		rows := rowsFromBytes(data)
		s := NewSWOR(window.Seq(5), 3, 3, 42)
		for i, r := range rows {
			s.Update(r, float64(i))
			for j, c := range s.queue {
				if c.rank > 3 {
					t.Fatalf("candidate %d rank %d > ℓ", j, c.rank)
				}
				if c.t <= float64(i)-5 {
					t.Fatalf("expired candidate retained: t=%v now=%d", c.t, i)
				}
			}
			b := s.Query(float64(i))
			if v := b.FrobeniusSq(); math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("non-finite query mass")
			}
		}
	})
}
