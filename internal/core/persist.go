package core

import (
	"encoding"
	"fmt"
	"time"

	"swsketch/internal/binenc"
	"swsketch/internal/mat"
	"swsketch/internal/stream"
	"swsketch/internal/trace"
	"swsketch/internal/window"
)

// Snapshot/restore support for the sketches a long-lived process would
// run: SWR, SWOR (and SWOR-ALL), and LM-FD. Snapshots capture the full
// deterministic state; the samplers' random source is reseeded on
// restore (future priority draws only need independence from each
// other, not continuity with the pre-snapshot stream, so the sampling
// guarantees are unaffected).
//
// Formats are versioned with magic numbers; restoring rejects foreign
// or truncated data.

const (
	swrMagic  = uint64(0x53575253_00000001) // "SWRS" v1
	sworMagic = uint64(0x53574F52_00000001) // "SWOR" v1
	lmfdMagic = uint64(0x4C4D4644_00000001) // "LMFD" v1
	// lmfdMagicV2 adds the FastFD factory tuning (buffer factor, alpha)
	// after the b field; classic-tuned LMs keep writing v1 so their
	// snapshot bytes stay identical across versions.
	lmfdMagicV2 = uint64(0x4C4D4644_00000002) // "LMFD" v2
)

func writeSpec(w *binenc.Writer, spec window.Spec) {
	w.Int(int(spec.Kind))
	w.F64(spec.Size)
}

// readSpec reads what writeSpec wrote; the sketch's check judges it.
func readSpec(r *binenc.Reader) window.Spec {
	return window.Spec{Kind: window.Kind(r.Int()), Size: r.F64()}
}

func writeCandidate(w *binenc.Writer, c candidate) {
	w.F64s(c.row)
	w.F64(c.t)
	w.F64(c.w)
	w.F64(c.key)
}

// candidateMinBytes is the encoded size of a candidate with a d-long
// row: the row's length prefix and values, then t, w and key.
func candidateMinBytes(d int) int { return 8 + 8*d + 3*8 }

func readCandidate(r *binenc.Reader, d int) (candidate, error) {
	c := candidate{row: r.F64s(), t: r.F64(), w: r.F64(), key: r.F64()}
	if r.Err() != nil {
		return c, r.Err()
	}
	if len(c.row) != d {
		return c, fmt.Errorf("core: snapshot candidate row length %d, want %d", len(c.row), d)
	}
	return c, nil
}

// exactNormsOrErr extracts the ExactNorms tracker; snapshots do not
// cover custom trackers (the EH tracker is cheap to rebuild and
// approximate anyway).
func exactNormsOrErr(nt window.NormTracker, algo string) (*window.ExactNorms, error) {
	x, ok := nt.(*window.ExactNorms)
	if !ok {
		return nil, fmt.Errorf("core: %s snapshot requires the exact norm tracker, have %T", algo, nt)
	}
	return x, nil
}

// MarshalBinary snapshots the SWR sampler.
func (s *SWR) MarshalBinary() ([]byte, error) {
	norms, err := exactNormsOrErr(s.norms, "SWR")
	if err != nil {
		return nil, err
	}
	w := binenc.NewWriter()
	w.U64(swrMagic)
	writeSpec(w, s.spec)
	w.Int(s.d)
	w.Int(s.ell)
	w.F64(s.lastT)
	w.Bool(s.seen)
	for q := range s.queues {
		w.Int(len(s.queues[q].items))
		for _, c := range s.queues[q].items {
			writeCandidate(w, c)
		}
	}
	nb, err := norms.MarshalBinary()
	if err != nil {
		return nil, err
	}
	w.Blob(nb)
	out := w.Bytes()
	s.tr.Emit("SWR", trace.KindSnapshot, s.lastT, float64(len(out)), 0)
	return out, nil
}

// UnmarshalBinary restores an SWR snapshot into the receiver.
func (s *SWR) UnmarshalBinary(data []byte) error {
	r := binenc.NewReader(data)
	r.Magic(swrMagic)
	spec := readSpec(r)
	d := r.Int()
	ell := r.Count(r.Int(), 8) // every queue encodes at least its length
	lastT, seen := r.Clock()
	if err := r.Err(); err != nil {
		return fmt.Errorf("core: SWR snapshot: %w", err)
	}
	if err := checkSampler("SWR", spec, ell, d); err != nil {
		return fmt.Errorf("core: SWR snapshot: %w", err)
	}
	restored := NewSWR(spec, ell, d, time.Now().UnixNano())
	restored.lastT, restored.seen = lastT, seen
	for q := 0; q < ell; q++ {
		n := r.Count(r.Int(), candidateMinBytes(d))
		items := make([]candidate, 0, n)
		for i := 0; i < n; i++ {
			c, err := readCandidate(r, d)
			if err != nil {
				return fmt.Errorf("core: SWR snapshot: %w", err)
			}
			items = append(items, c)
		}
		restored.queues[q].items = items
	}
	nb := r.Blob()
	if err := r.End(); err != nil {
		return fmt.Errorf("core: SWR snapshot: %w", err)
	}
	norms := window.NewExactNorms(spec)
	if err := norms.UnmarshalBinary(nb); err != nil {
		return fmt.Errorf("core: SWR snapshot: %w", err)
	}
	restored.norms = norms
	restored.tr = s.tr // the tracer survives restore
	*s = *restored
	s.tr.Emit("SWR", trace.KindRestore, s.lastT, float64(len(data)), 0)
	return nil
}

// MarshalBinary snapshots the SWOR sampler (including the SWOR-ALL and
// uniform-scale flags).
func (s *SWOR) MarshalBinary() ([]byte, error) {
	norms, err := exactNormsOrErr(s.norms, "SWOR")
	if err != nil {
		return nil, err
	}
	w := binenc.NewWriter()
	w.U64(sworMagic)
	writeSpec(w, s.spec)
	w.Int(s.d)
	w.Int(s.ell)
	w.Bool(s.UniformScale)
	w.Bool(s.All)
	w.F64(s.lastT)
	w.Bool(s.seen)
	w.Int(len(s.queue))
	for _, c := range s.queue {
		writeCandidate(w, c.candidate)
		w.Int(c.rank)
	}
	nb, err := norms.MarshalBinary()
	if err != nil {
		return nil, err
	}
	w.Blob(nb)
	out := w.Bytes()
	s.tr.Emit(s.Name(), trace.KindSnapshot, s.lastT, float64(len(out)), 0)
	return out, nil
}

// UnmarshalBinary restores a SWOR snapshot into the receiver.
func (s *SWOR) UnmarshalBinary(data []byte) error {
	r := binenc.NewReader(data)
	r.Magic(sworMagic)
	spec := readSpec(r)
	d := r.Int()
	ell := r.Int()
	uniform := r.Bool()
	all := r.Bool()
	lastT, seen := r.Clock()
	n := r.Count(r.Int(), candidateMinBytes(d)+8) // each candidate carries its rank
	if err := r.Err(); err != nil {
		return fmt.Errorf("core: SWOR snapshot: %w", err)
	}
	if err := checkSampler("SWOR", spec, ell, d); err != nil {
		return fmt.Errorf("core: SWOR snapshot: %w", err)
	}
	restored := NewSWOR(spec, ell, d, time.Now().UnixNano())
	restored.UniformScale, restored.All = uniform, all
	restored.lastT, restored.seen = lastT, seen
	for i := 0; i < n; i++ {
		c, err := readCandidate(r, d)
		if err != nil {
			return fmt.Errorf("core: SWOR snapshot: %w", err)
		}
		rank := r.Int()
		if rank < 1 || rank > ell {
			return fmt.Errorf("core: SWOR snapshot rank %d outside [1,%d]", rank, ell)
		}
		restored.queue = append(restored.queue, sworCandidate{candidate: c, rank: rank})
	}
	nb := r.Blob()
	if err := r.End(); err != nil {
		return fmt.Errorf("core: SWOR snapshot: %w", err)
	}
	norms := window.NewExactNorms(spec)
	if err := norms.UnmarshalBinary(nb); err != nil {
		return fmt.Errorf("core: SWOR snapshot: %w", err)
	}
	restored.norms = norms
	restored.tr = s.tr // the tracer survives restore
	*s = *restored
	s.tr.Emit(s.Name(), trace.KindRestore, s.lastT, float64(len(data)), 0)
	return nil
}

// MarshalBinary snapshots an LM-FD sketch. Only the FrequentDirections
// backing is supported: restoring must rebuild the block factory, and
// FD's is fully determined by (ℓ, d).
func (l *LM) MarshalBinary() ([]byte, error) {
	if l.name != "LM-FD" {
		return nil, fmt.Errorf("core: LM snapshots support LM-FD only, have %s", l.name)
	}
	l.snapshots++
	w := binenc.NewWriter()
	classic := l.fdOpts.Buffer <= 1 && (l.fdOpts.Alpha == 0 || l.fdOpts.Alpha == 1)
	if classic {
		w.U64(lmfdMagic)
	} else {
		w.U64(lmfdMagicV2)
	}
	writeSpec(w, l.spec)
	w.Int(l.d)
	w.F64(l.ell)
	w.Int(l.b)
	if !classic {
		w.Int(l.fdOpts.Buffer)
		w.F64(l.fdOpts.Alpha)
	}
	if err := l.writeBody(w); err != nil {
		return nil, err
	}
	out := w.Bytes()
	l.tr.Emit(l.name, trace.KindSnapshot, l.lastT, float64(len(out)), 0)
	return out, nil
}

// writeBody writes what every LM snapshot (LM-FD and LM-AMM) carries
// after its header: the clock, the levels and the active block.
func (l *LM) writeBody(w *binenc.Writer) error {
	w.F64(l.lastT)
	w.Bool(l.seen)
	w.Int(len(l.levels))
	for _, lv := range l.levels {
		w.Int(len(lv))
		for i := range lv {
			if err := writeLMBlock(w, &lv[i]); err != nil {
				return err
			}
		}
	}
	return writeLMBlock(w, &l.active)
}

// readBody restores what writeBody wrote into l, a freshly built LM,
// decoding block sketches with readSketch. Every count is guarded by
// binenc.Reader.Count before anything is allocated for it.
func (l *LM) readBody(r *binenc.Reader, readSketch func(*binenc.Reader) (stream.Mergeable, error)) error {
	l.lastT, l.seen = r.Clock()
	nLevels := r.Count(r.Int(), 8) // every level encodes at least its block count
	for i := 0; i < nLevels; i++ {
		n := r.Count(r.Int(), lmBlockMinBytes)
		lv := make([]lmBlock, 0, n)
		for j := 0; j < n; j++ {
			blk, err := readLMBlock(r, l.d, readSketch)
			if err != nil {
				return err
			}
			lv = append(lv, blk)
		}
		l.levels = append(l.levels, lv)
	}
	active, err := readLMBlock(r, l.d, readSketch)
	if err != nil {
		return err
	}
	if active.sk != nil {
		return fmt.Errorf("sketched active block")
	}
	l.active = active
	return r.Err()
}

func writeLMBlock(w *binenc.Writer, blk *lmBlock) error {
	w.F64(blk.start)
	w.F64(blk.end)
	w.F64(blk.size)
	w.F64(blk.singletonCap)
	if blk.sk == nil {
		w.Bool(false)
		w.Int(len(blk.raw))
		for i, row := range blk.raw {
			writeSparseRow(w, row, blk.rawTimes[i])
		}
		return nil
	}
	w.Bool(true)
	return writeBlob(w, blk.sk)
}

// Minimum encoded sizes of LM snapshot elements, for the count guards:
// a block is four F64 fields, the sketched flag, and a row count or
// blob length; a raw row is its index count, value-slice length and
// time; each of its non-zeros is an index and a value.
const (
	lmBlockMinBytes  = 4*8 + 1 + 8
	lmRawRowMinBytes = 3 * 8
	lmNonzeroBytes   = 2 * 8
)

func readLMBlock(r *binenc.Reader, d int, readSketch func(*binenc.Reader) (stream.Mergeable, error)) (lmBlock, error) {
	blk := lmBlock{
		start:        r.F64(),
		end:          r.F64(),
		size:         r.F64(),
		singletonCap: r.F64(),
	}
	if r.Bool() {
		sk, err := readSketch(r)
		blk.sk = sk
		return blk, err
	}
	n := r.Count(r.Int(), lmRawRowMinBytes)
	for i := 0; i < n; i++ {
		row, t, err := readSparseRow(r, d)
		if err != nil {
			return blk, err
		}
		blk.raw = append(blk.raw, row)
		blk.rawTimes = append(blk.rawTimes, t)
	}
	return blk, r.Err()
}

// writeSparseRow writes a raw row (its non-zero count, indices and
// values) and its arrival time.
func writeSparseRow(w *binenc.Writer, row mat.SparseRow, t float64) {
	w.Int(len(row.Idx))
	for _, ix := range row.Idx {
		w.Int(ix)
	}
	w.F64s(row.Val)
	w.F64(t)
}

// readSparseRow reads what writeSparseRow wrote; the indices must
// increase and stay below d.
func readSparseRow(r *binenc.Reader, d int) (mat.SparseRow, float64, error) {
	nnz := r.Count(r.Int(), lmNonzeroBytes)
	idx := make([]int, nnz)
	prev := -1
	for k := range idx {
		idx[k] = r.Int()
		if r.Err() == nil && (idx[k] <= prev || idx[k] >= d) {
			return mat.SparseRow{}, 0, fmt.Errorf("sparse index %d invalid for d=%d", idx[k], d)
		}
		prev = idx[k]
	}
	val := r.F64s()
	t := r.F64()
	if r.Err() != nil {
		return mat.SparseRow{}, 0, r.Err()
	}
	if len(val) != nnz {
		return mat.SparseRow{}, 0, fmt.Errorf("raw row has %d indices, %d values", nnz, len(val))
	}
	return mat.SparseRow{Idx: idx, Val: val}, t, nil
}

// writeBlob writes a block sketch of LM or DI, FD or COD, as the blob
// its own codec makes.
func writeBlob(w *binenc.Writer, sk stream.Sketch) error {
	m, ok := sk.(encoding.BinaryMarshaler)
	if !ok {
		return fmt.Errorf("core: snapshot found block sketch %T, which has no codec", sk)
	}
	b, err := m.MarshalBinary()
	if err != nil {
		return err
	}
	w.Blob(b)
	return nil
}

// readFDBlob decodes a block FD, which must have the shape the LM's
// factory builds, (ℓ, d) with tuning o: a valid snapshot holds no other.
// A block of another d would make every later merge panic, and one of
// another ℓ — up to 2²⁶/d — would allocate its ℓ×d buffer on its first
// merge.
func readFDBlob(r *binenc.Reader, ell, d int, o stream.FDOpts) (stream.Mergeable, error) {
	fd := new(stream.FD)
	if err := fd.UnmarshalBinary(r.Blob()); err != nil {
		return nil, err
	}
	if fd.Ell() != ell || fd.Dim() != d || fd.BufferFactor() != o.Buffer || fd.Alpha() != o.Alpha {
		return nil, fmt.Errorf("block FD has ℓ=%d d=%d buffer=%d alpha=%v, want ℓ=%d d=%d buffer=%d alpha=%v",
			fd.Ell(), fd.Dim(), fd.BufferFactor(), fd.Alpha(), ell, d, o.Buffer, o.Alpha)
	}
	return fd, nil
}

// UnmarshalBinary restores an LM-FD snapshot into the receiver.
func (l *LM) UnmarshalBinary(data []byte) error {
	r := binenc.NewReader(data)
	magic := r.Magic(lmfdMagic, lmfdMagicV2)
	spec := readSpec(r)
	d := r.Int()
	ell := r.F64()
	b := r.Int()
	fdo := stream.FDOpts{Buffer: 1, Alpha: 1}
	if magic == lmfdMagicV2 {
		fdo = stream.FDOpts{Buffer: r.Int(), Alpha: r.F64()}
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("core: LM snapshot: %w", err)
	}
	if err := checkLMFD(spec, d, ell, b, fdo); err != nil {
		return fmt.Errorf("core: LM snapshot: %w", err)
	}
	restored := NewLMFDOpts(spec, d, int(ell), b, fdo)
	if err := restored.readBody(r, func(r *binenc.Reader) (stream.Mergeable, error) {
		return readFDBlob(r, int(ell), d, restored.fdOpts)
	}); err != nil {
		return fmt.Errorf("core: LM snapshot: %w", err)
	}
	if err := r.End(); err != nil {
		return fmt.Errorf("core: LM snapshot: %w", err)
	}
	restored.SetTracer(l.tr) // the tracer survives restore
	*l = *restored
	l.tr.Emit(l.name, trace.KindRestore, l.lastT, float64(len(data)), 0)
	return nil
}
