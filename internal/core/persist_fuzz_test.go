package core

import (
	"bytes"
	"encoding"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"swsketch/internal/binenc"
	"swsketch/internal/mat"
	"swsketch/internal/stream"
	"swsketch/internal/window"
)

// decodeBudget bounds what decoding an n-byte snapshot may allocate:
// a constant for the fixed parts (an SWR's random source, an FD's
// solver state) plus a small multiple of the input.
func decodeBudget(n int) uint64 { return 64*uint64(n) + 1<<16 }

// lmHeader starts a classic LM-FD snapshot over a sequence window of
// 100 with ℓ = 8 and b = 4, up to and including the level count.
func lmHeader(d, levels int) *binenc.Writer {
	w := binenc.NewWriter()
	w.U64(lmfdMagic)
	writeSpec(w, window.Seq(100))
	w.Int(d)
	w.F64(8) // ℓ
	w.Int(4) // b
	w.F64(0) // lastT
	w.Bool(false)
	w.Int(levels)
	return w
}

// writeBlockHeader writes a block's four F64 fields and its sketched
// flag.
func writeBlockHeader(w *binenc.Writer, sketched bool) {
	for i := 0; i < 4; i++ {
		w.F64(0)
	}
	w.Bool(sketched)
}

// lmBombRawRow is an LM-FD snapshot whose active block holds one raw
// row claiming 2³¹−1 non-zeros.
func lmBombRawRow() []byte {
	w := lmHeader(4, 0)
	writeBlockHeader(w, false)
	w.Int(1)             // one raw row
	w.Int(math.MaxInt32) // its non-zero count
	return w.Bytes()
}

// lmBombDim is an LM-FD snapshot claiming d = 2³¹−1 ahead of one
// sketched block (whose blob is empty).
func lmBombDim() []byte {
	w := lmHeader(math.MaxInt32, 1)
	w.Int(1) // one block in level 1
	writeBlockHeader(w, true)
	w.Blob(nil)
	return w.Bytes()
}

// swrBombQueues is an SWR snapshot claiming 2³¹−1 queues.
func swrBombQueues() []byte {
	w := binenc.NewWriter()
	w.U64(swrMagic)
	writeSpec(w, window.Seq(100))
	w.Int(4)             // d
	w.Int(math.MaxInt32) // ℓ
	w.F64(0)             // lastT
	w.Bool(false)
	return w.Bytes()
}

// TestSnapshotAllocationBombs replays three ~100-byte snapshots that
// each made UnmarshalBinary die with "runtime: out of memory": an
// LM-FD raw row claiming 2³¹−1 non-zeros, an LM-FD header claiming
// d = 2³¹−1 ahead of a sketched block, and an SWR header claiming
// 2³¹−1 queues. Each must fail cleanly, allocating in proportion to
// its input.
func TestSnapshotAllocationBombs(t *testing.T) {
	for _, c := range []struct {
		name string
		data []byte
		into encoding.BinaryUnmarshaler
	}{
		{"lm-fd raw row nnz", lmBombRawRow(), new(LM)},
		{"lm-fd header d", lmBombDim(), new(LM)},
		{"swr header ell", swrBombQueues(), new(SWR)},
	} {
		var err error
		_, n := heapDelta(func() { err = c.into.UnmarshalBinary(c.data) })
		if err == nil {
			t.Errorf("%s: %d-byte snapshot accepted", c.name, len(c.data))
		}
		if n > decodeBudget(len(c.data)) {
			t.Errorf("%s: decoding %d bytes allocated %d", c.name, len(c.data), n)
		}
	}
}

// TestLMSnapshotRejectsForeignBlockDim checks that a sketched block
// must have the shape the header's factory builds: a block of another d
// would make every later merge panic, and one of another ℓ (a fuzzer
// found ℓ = 16,768,516 at d = 3, committed as oom-block-fd-ell) would
// allocate its ℓ×d buffer on its first merge. No valid snapshot holds a
// block of another ℓ, d, buffer factor or α.
func TestLMSnapshotRejectsForeignBlockDim(t *testing.T) {
	for _, fd := range []*stream.FD{
		stream.NewFD(8, 3),
		stream.NewFD(64, 4),
		stream.NewFDOpts(8, 4, stream.FDOpts{Buffer: 2}),
		stream.NewFDOpts(8, 4, stream.FDOpts{Alpha: 0.5}),
	} {
		fd.Update(make([]float64, fd.Dim()))
		blob, err := fd.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		w := lmHeader(4, 1)
		w.Int(1)
		writeBlockHeader(w, true)
		w.Blob(blob)
		writeBlockHeader(w, false) // empty active block
		w.Int(0)
		var l LM
		if err := l.UnmarshalBinary(w.Bytes()); err == nil {
			t.Errorf("accepted an ℓ=%d d=%d b=%d α=%v block in an ℓ=8 d=4 classic snapshot",
				fd.Ell(), fd.Dim(), fd.BufferFactor(), fd.Alpha())
		}
	}
}

// lmFuzzSeeds returns valid LM-FD snapshots: empty, a classic
// sequence window with raw, sketched and singleton blocks and a
// non-empty active block, and a FastFD time window (v2 header).
func lmFuzzSeeds(tb testing.TB) [][]byte {
	rng := rand.New(rand.NewSource(41))
	var out [][]byte
	for _, c := range []struct {
		spec window.Spec
		fd   stream.FDOpts
		rows int
	}{
		{window.Seq(40), stream.FDOpts{}, 0},
		{window.Seq(40), stream.FDOpts{}, 150},
		{window.TimeSpan(12), stream.FDOpts{Buffer: 2, Alpha: 0.5}, 150},
	} {
		l := NewLMFDOpts(c.spec, 3, 4, 2, c.fd)
		for i := 0; i < c.rows; i++ {
			row := randRow(rng, 3)
			for j := range row {
				row[j] *= []float64{0.2, 1, 3}[i%3] // sub-ℓ rows and singletons
			}
			l.Update(row, float64(i/2))
		}
		b, err := l.MarshalBinary()
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

// FuzzLMUnmarshal hardens the LM-FD snapshot decoder, which
// POST /v2/tenants/{id}/snapshot feeds untrusted bytes. Decoding must
// never panic and must allocate only in proportion to its input. An
// accepted snapshot must re-marshal as a fixed point, and a copy
// restored from that re-marshal, fed the same rows as the first, must
// answer and re-marshal byte-identically — which also runs the
// recycled block sketches and kept level storage after a restore.
// The committed corpus (testdata/fuzz/FuzzLMUnmarshal) holds this
// version's lmFuzzSeeds snapshots, the two LM-FD crash inputs of
// TestSnapshotAllocationBombs, and oom-block-fd-ell (see
// TestLMSnapshotRejectsForeignBlockDim).
func FuzzLMUnmarshal(f *testing.F) {
	for _, seed := range lmFuzzSeeds(f) {
		f.Add(seed)
		f.Add(seed[:len(seed)/2]) // torn mid-payload
		f.Add(seed[:9])           // truncated just past the magic
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var first LM
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
		var second LM
		if err := second.UnmarshalBinary(re); err != nil {
			t.Fatalf("decode of the re-marshal failed: %v", err)
		}
		if re2, _ := second.MarshalBinary(); !bytes.Equal(re, re2) {
			t.Fatal("marshal is not a fixed point of a decode cycle")
		}
		if first.d > 16 || first.ell > 64 {
			return // keep the continuation cheap
		}
		rng := rand.New(rand.NewSource(int64(len(data))))
		t0 := 0.0
		if first.seen {
			t0 = first.lastT
		}
		for i := 0; i < 96; i++ {
			row := make([]float64, first.d)
			scale := math.Sqrt([]float64{0, 0.25, 2}[rng.Intn(3)] * first.ell / float64(first.d))
			for j := range row {
				row[j] = scale * rng.NormFloat64()
			}
			tt := t0 + float64(i/2)
			first.Update(row, tt)
			second.Update(row, tt)
			if i%16 == 15 && !sameMatrixBits(first.Query(tt), second.Query(tt)) {
				t.Fatalf("restored copies answer differently after %d rows", i+1)
			}
		}
		a, _ := first.MarshalBinary()
		b, _ := second.MarshalBinary()
		if !bytes.Equal(a, b) {
			t.Fatal("restored copies re-marshal differently after the same rows")
		}
	})
}

// FuzzSWRUnmarshal hardens the SWR snapshot decoder the same way:
// never panic, allocate only in proportion to the input, re-marshal as
// a fixed point, and keep working. (A restore reseeds the sampler, so
// continuations are not compared.) The committed corpus
// (testdata/fuzz/FuzzSWRUnmarshal) holds the seeds below as of this
// version and the SWR crash input of TestSnapshotAllocationBombs.
func FuzzSWRUnmarshal(f *testing.F) {
	rng := rand.New(rand.NewSource(43))
	for _, rows := range []int{0, 120} {
		s := NewSWR(window.Seq(40), 4, 3, 7)
		for i := 0; i < rows; i++ {
			s.Update(randRow(rng, 3), float64(i))
		}
		seed, err := s.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
		f.Add(seed[:len(seed)/2])
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var s SWR
		var err error
		if _, n := heapDelta(func() { err = s.UnmarshalBinary(data) }); n > decodeBudget(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), n)
		}
		if err != nil {
			return
		}
		re, err := s.MarshalBinary()
		if err != nil {
			t.Fatalf("re-marshal of an accepted snapshot failed: %v", err)
		}
		var s2 SWR
		if err := s2.UnmarshalBinary(re); err != nil {
			t.Fatalf("decode of the re-marshal failed: %v", err)
		}
		if re2, _ := s2.MarshalBinary(); !bytes.Equal(re, re2) {
			t.Fatal("marshal is not a fixed point of a decode cycle")
		}
		if s2.d > 16 {
			return
		}
		t0 := 0.0
		if s2.seen {
			t0 = s2.lastT
		}
		row := make([]float64, s2.d)
		for i := range row {
			row[i] = 1
		}
		s2.Update(row, t0)
		s2.Query(t0)
	})
}

// FuzzSWORUnmarshal hardens the SWOR (and SWOR-ALL) snapshot decoder
// like FuzzSWRUnmarshal: never panic, allocate only in proportion to
// the input, re-marshal as a fixed point, and keep working. (A restore
// reseeds the sampler, so continuations are not compared.) The
// committed corpus (testdata/fuzz/FuzzSWORUnmarshal) holds the
// untruncated seeds below as of this version and a header claiming
// 2³¹−1 candidates.
func FuzzSWORUnmarshal(f *testing.F) {
	rng := rand.New(rand.NewSource(47))
	for _, rows := range []int{0, 120} {
		for _, s := range []*SWOR{NewSWOR(window.Seq(40), 4, 3, 7), NewSWORAll(window.TimeSpan(12), 4, 3, 7)} {
			for i := 0; i < rows; i++ {
				s.Update(randRow(rng, 3), float64(i/3))
			}
			seed, err := s.MarshalBinary()
			if err != nil {
				f.Fatal(err)
			}
			f.Add(seed)
			f.Add(seed[:len(seed)/2])
		}
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var s SWOR
		var err error
		if _, n := heapDelta(func() { err = s.UnmarshalBinary(data) }); n > decodeBudget(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), n)
		}
		if err != nil {
			return
		}
		re, err := s.MarshalBinary()
		if err != nil {
			t.Fatalf("re-marshal of an accepted snapshot failed: %v", err)
		}
		var s2 SWOR
		if err := s2.UnmarshalBinary(re); err != nil {
			t.Fatalf("decode of the re-marshal failed: %v", err)
		}
		if re2, _ := s2.MarshalBinary(); !bytes.Equal(re, re2) {
			t.Fatal("marshal is not a fixed point of a decode cycle")
		}
		if s2.d > 16 {
			return
		}
		t0 := 0.0
		if s2.seen {
			t0 = s2.lastT
		}
		row := make([]float64, s2.d)
		for i := range row {
			row[i] = 1
		}
		s2.Update(row, t0)
		s2.Query(t0)
	})
}

// TestLMSnapshotRejectsBadWindow pins that an LM-FD snapshot must hold
// a window Spec.Check accepts: a size patched to NaN or +Inf decoded
// into a sketch that never expired a row, and a sequence size of 10.5
// decoded although no config can build one.
func TestLMSnapshotRejectsBadWindow(t *testing.T) {
	l := NewLMFD(window.Seq(100), 3, 4, 2)
	for i := 0; i < 50; i++ {
		l.Update([]float64{1, float64(i % 3), 0.5}, float64(i))
	}
	good, err := l.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	const sizeOff = 8 + 8 // the magic, then the window kind
	if got := math.Float64frombits(binary.LittleEndian.Uint64(good[sizeOff:])); got != 100 {
		t.Fatalf("window size field reads %v, want 100", got)
	}
	for _, size := range []float64{math.NaN(), math.Inf(1), 10.5} {
		bad := append([]byte(nil), good...)
		binary.LittleEndian.PutUint64(bad[sizeOff:], math.Float64bits(size))
		var r LM
		if err := r.UnmarshalBinary(bad); err == nil {
			t.Errorf("decoded an LM-FD snapshot with window size %v", size)
		}
	}
}

// sameMatrixBits reports whether two matrices have the same shape and
// bit-identical entries (NaNs included).
func sameMatrixBits(a, b *mat.Dense) bool {
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() {
		return false
	}
	for i, v := range a.Data() {
		if math.Float64bits(v) != math.Float64bits(b.Data()[i]) {
			return false
		}
	}
	return true
}
