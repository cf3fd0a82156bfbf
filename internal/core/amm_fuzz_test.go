package core

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"swsketch/internal/binenc"
	"swsketch/internal/mat"
	"swsketch/internal/stream"
	"swsketch/internal/window"
)

// ammHeader starts an AMM snapshot: magic, kind, side dimensions and
// the classic COD tuning.
func ammHeader(kind, dA, dB int) *binenc.Writer {
	w := binenc.NewWriter()
	w.U64(ammMagic)
	w.Int(kind)
	w.Int(dA)
	w.Int(dB)
	w.Int(1) // COD buffer factor
	w.F64(1) // α
	return w
}

// lmAMMHeader continues ammHeader into an LM-AMM snapshot over a
// sequence window of 100 with ℓ = 8 and b = 4, up to and including the
// level count.
func lmAMMHeader(dA, dB, levels int) *binenc.Writer {
	w := ammHeader(ammKindLM, dA, dB)
	writeSpec(w, window.Seq(100))
	w.Int(8) // ℓ
	w.Int(4) // b
	w.F64(0) // lastT
	w.Bool(false)
	w.Int(levels)
	return w
}

// emptyCODBlob is a COD snapshot claiming an ℓ×(dA, dB) co-sketch that
// holds no row pairs.
func emptyCODBlob(ell, dA, dB int) []byte {
	valid, err := stream.NewCOD(2, 1, 1).MarshalBinary()
	if err != nil {
		panic(err)
	}
	w := binenc.NewWriter()
	w.Int(ell)
	w.Int(dA)
	w.Int(dB)
	w.Int(1) // buffer factor
	w.F64(1) // α
	w.Int(0) // row pairs
	// A valid blob's magic, then the claim.
	return append(valid[:8:8], w.Bytes()...)
}

// ammBombDIHeader is a 96-byte DI-AMM snapshot that ends after its DI
// config, claiming dA = dB = 2²⁴ over 26 levels.
func ammBombDIHeader() []byte {
	w := ammHeader(ammKindDI, 1<<24, 1<<24)
	w.Int(64) // N
	w.F64(1)  // R
	w.Int(26) // L
	w.Int(8)  // Ell
	w.Int(4)  // MinEll
	w.F64(1)  // RSlack
	return w.Bytes()
}

// ammBombCODShape is a 396-byte LM-AMM snapshot whose two level-1
// blocks and active block carry zero-row COD blobs claiming
// ℓ = dA = dB = 2¹³.
func ammBombCODShape() []byte {
	const n = 1 << 13
	w := lmAMMHeader(n, n, 1)
	w.Int(2) // blocks in level 1
	for i := 0; i < 3; i++ {
		writeBlockHeader(w, true)
		w.Blob(emptyCODBlob(n, n, n))
	}
	return w.Bytes()
}

// ammBombRawRow is a 146-byte LM-AMM snapshot whose active block holds
// one raw row claiming 2²⁵ non-zeros.
func ammBombRawRow() []byte {
	w := lmAMMHeader(1<<24, 1<<24, 0)
	writeBlockHeader(w, false)
	w.Int(1)       // one raw row
	w.Int(1 << 25) // its non-zero count
	return w.Bytes()
}

// TestAMMSnapshotAllocationBombs replays three short AMM snapshots
// that each made UnmarshalBinary die with "fatal error: out of
// memory": a DI-AMM header whose 26 active co-sketches were built from
// its claimed dimensions, zero-row COD blobs whose buffers were sized
// from their claimed shape, and a raw row claiming 2²⁵ non-zeros. Each
// must fail cleanly, allocating in proportion to its input.
func TestAMMSnapshotAllocationBombs(t *testing.T) {
	for _, c := range []struct {
		name string
		data []byte
		size int
	}{
		{"di-amm header", ammBombDIHeader(), 96},
		{"lm-amm cod shape", ammBombCODShape(), 396},
		{"lm-amm raw row nnz", ammBombRawRow(), 146},
	} {
		if len(c.data) != c.size {
			t.Fatalf("%s: built %d bytes, want %d", c.name, len(c.data), c.size)
		}
		var a AMM
		var err error
		_, n := heapDelta(func() { err = a.UnmarshalBinary(c.data) })
		if err == nil {
			t.Errorf("%s: %d-byte snapshot accepted", c.name, len(c.data))
		}
		if n > decodeBudget(len(c.data)) {
			t.Errorf("%s: decoding %d bytes allocated %d", c.name, len(c.data), n)
		}
	}
}

// ammFuzzSeeds returns valid AMM snapshots: an empty LM-AMM, a classic
// LM-AMM over a sequence window and a FastFD-tuned one over a time
// window (both with raw, sketched and singleton blocks), and a DI-AMM.
func ammFuzzSeeds(tb testing.TB) [][]byte {
	rng := rand.New(rand.NewSource(47))
	var out [][]byte
	for _, c := range []struct {
		a    *AMM
		rows int
	}{
		{NewLMAMM(window.Seq(40), 2, 2, 4, 2), 0},
		{NewLMAMM(window.Seq(40), 2, 2, 4, 2), 150},
		{NewLMAMMOpts(window.TimeSpan(12), 2, 1, 4, 2, stream.FDOpts{Buffer: 2, Alpha: 0.5}), 150},
		{NewDIAMM(DIConfig{N: 40, R: 8, L: 3, Ell: 8, RSlack: 2}, 2, 2), 150},
	} {
		dA, dB := c.a.AmmDims()
		_, isLM := c.a.inner.(*LM)
		for i := 0; i < c.rows; i++ {
			row := randRow(rng, dA+dB)
			scale := []float64{0.2, 0.6, 1}[i%3] // sub-ℓ rows and, under LM, singletons
			if isLM {
				scale *= 3
			}
			for j := range row {
				row[j] *= scale
			}
			if !isLM { // DI needs 1 ≤ ‖row‖² ≤ R
				norm := math.Sqrt(mat.SqNorm(row))
				for j := range row {
					row[j] *= 1.5 / norm
				}
			}
			c.a.Update(row, float64(i/2+1))
		}
		b, err := c.a.MarshalBinary()
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

// FuzzAMMUnmarshal hardens the AMM snapshot decoder, which
// POST /v2/tenants/{id}/snapshot feeds untrusted bytes for lm-amm and
// di-amm tenants. Decoding must never panic and must allocate only in
// proportion to its input, and an accepted snapshot must re-marshal as
// a fixed point. For LM-AMM, a copy restored from that re-marshal, fed
// the same rows as the first, must answer and re-marshal
// byte-identically; the second repeats every query, so its memo serves
// answers after a restore too. DI-AMM skips the continuation (its rows
// must keep DI's norm bound); FuzzDIUnmarshal runs it on the DI body
// that DI-FD shares. The committed corpus
// (testdata/fuzz/FuzzAMMUnmarshal) holds this version's ammFuzzSeeds
// snapshots, the three crash inputs of TestAMMSnapshotAllocationBombs,
// and the DI-AMM patched-m input of
// TestDISnapshotRejectsPatchedBlockCount.
func FuzzAMMUnmarshal(f *testing.F) {
	for _, seed := range ammFuzzSeeds(f) {
		f.Add(seed)
		f.Add(seed[:len(seed)/2]) // torn mid-payload
	}
	f.Add(ammBombDIHeader())
	f.Add(ammBombCODShape())
	f.Add(ammBombRawRow())
	f.Add(diAMMPatchedM(f))

	f.Fuzz(func(t *testing.T, data []byte) {
		var first AMM
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
		var second AMM
		if err := second.UnmarshalBinary(re); err != nil {
			t.Fatalf("decode of the re-marshal failed: %v", err)
		}
		if re2, _ := second.MarshalBinary(); !bytes.Equal(re, re2) {
			t.Fatal("marshal is not a fixed point of a decode cycle")
		}
		l, ok := first.inner.(*LM)
		if !ok || l.d > 16 || l.ell > 64 {
			return // DI needs rows within its norm bound; keep the continuation cheap
		}
		rng := rand.New(rand.NewSource(int64(len(data))))
		t0 := 0.0
		if l.seen {
			t0 = l.lastT
		}
		for i := 0; i < 96; i++ {
			row := make([]float64, l.d)
			scale := math.Sqrt([]float64{0, 0.25, 2}[rng.Intn(3)] * l.ell / float64(l.d))
			for j := range row {
				row[j] = scale * rng.NormFloat64()
			}
			tt := t0 + float64(i/2)
			first.Update(row, tt)
			second.Update(row, tt)
			if i%16 == 15 {
				a := first.Query(tt)
				if !sameMatrixBits(a, second.Query(tt)) || !sameMatrixBits(a, second.Query(tt)) {
					t.Fatalf("restored copies answer differently after %d rows", i+1)
				}
			}
		}
		a, _ := first.MarshalBinary()
		b, _ := second.MarshalBinary()
		if !bytes.Equal(a, b) {
			t.Fatal("restored copies re-marshal differently after the same rows")
		}
	})
}
