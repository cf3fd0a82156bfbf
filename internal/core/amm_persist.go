package core

import (
	"fmt"

	"swsketch/internal/binenc"
	"swsketch/internal/stream"
	"swsketch/internal/trace"
)

// AMM snapshot format: one outer header (kind, side dimensions, COD
// buffer tuning) followed by a kind-specific body that serialises the
// inner framework's full deterministic state with COD blobs per block.
// The LM body is LM-FD's (LM.writeBody/readBody) with COD blobs in
// place of FD blobs; the DI body is the first persisted DI state —
// deliberately scoped to AMM (a MarshalBinary on *DI itself would
// silently flip di-fd tenants from "snapshot unsupported" to
// supported, changing the serving API's behaviour).
const ammMagic = uint64(0x414D4D53_00000001) // "AMMS" v1

// MarshalBinary snapshots the co-sketch: outer geometry plus the full
// inner-framework state. AMM is deterministic end to end (COD shrinks
// are QR/SVD of fixed inputs), so a restored sketch continues
// bit-exactly — the property the registry's spill/restore and the
// conformance suite's continuation check rely on.
func (a *AMM) MarshalBinary() ([]byte, error) {
	w := binenc.NewWriter()
	w.U64(ammMagic)
	w.Int(a.kind)
	w.Int(a.dA)
	w.Int(a.dB)
	w.Int(a.opts.Buffer)
	w.F64(a.opts.Alpha)
	switch a.kind {
	case ammKindLM:
		if err := a.marshalLM(w); err != nil {
			return nil, err
		}
	case ammKindDI:
		if err := a.marshalDI(w); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("core: AMM snapshot of unknown kind %d", a.kind)
	}
	out := w.Bytes()
	a.tr.Emit(a.Name(), trace.KindSnapshot, 0, float64(len(out)), 0)
	return out, nil
}

func (a *AMM) marshalLM(w *binenc.Writer) error {
	l, ok := a.inner.(*LM)
	if !ok {
		return fmt.Errorf("core: AMM kind LM wraps %T", a.inner)
	}
	l.snapshots++
	writeSpec(w, a.spec)
	w.Int(a.ell)
	w.Int(a.b)
	return l.writeBody(w, writeCODBlob)
}

func (a *AMM) marshalDI(w *binenc.Writer) error {
	s, ok := a.inner.(*DI)
	if !ok {
		return fmt.Errorf("core: AMM kind DI wraps %T", a.inner)
	}
	c := s.cfg
	w.Int(c.N)
	w.F64(c.R)
	w.Int(c.L)
	w.Int(c.Ell)
	w.Int(c.MinEll)
	w.F64(c.RSlack)

	w.Int(s.m)
	w.F64(s.curSize)
	w.F64(s.curStart)
	w.F64(s.lastT)
	w.Bool(s.seen)
	w.F64(s.normMin)
	w.F64(s.normMax)
	w.Bool(s.rawOverflow)
	for _, lv := range s.levels {
		w.Int(len(lv))
		for i := range lv {
			blk := &lv[i]
			w.Int(blk.startIdx)
			w.Int(blk.endIdx)
			w.F64(blk.startT)
			w.F64(blk.endT)
			if err := writeCODBlob(w, blk.sk); err != nil {
				return err
			}
		}
	}
	for i := range s.actives {
		if err := writeCODBlob(w, s.actives[i]); err != nil {
			return err
		}
		w.F64(s.activeStartT[i])
		w.Int(s.activeRows[i])
	}
	w.Int(len(s.raw))
	for i, row := range s.raw {
		writeSparseRow(w, row, s.rawTimes[i])
	}
	return nil
}

func writeCODBlob(w *binenc.Writer, sk stream.Sketch) error {
	cod, ok := sk.(*stream.COD)
	if !ok {
		return fmt.Errorf("core: AMM snapshot found non-COD sketch %T", sk)
	}
	b, err := cod.MarshalBinary()
	if err != nil {
		return err
	}
	w.Blob(b)
	return nil
}

// readCODBlob decodes a co-sketch, which must have the shape the
// framework's factory builds, ℓ×(dA, dB) with tuning o, for the reasons
// readFDBlob gives.
func readCODBlob(r *binenc.Reader, ell, dA, dB int, o stream.FDOpts) (*stream.COD, error) {
	cod := new(stream.COD)
	if err := cod.UnmarshalBinary(r.Blob()); err != nil {
		return nil, err
	}
	if cod.Ell() != ell || cod.DimA() != dA || cod.DimB() != dB || cod.BufferFactor() != o.Buffer || cod.Alpha() != o.Alpha {
		return nil, fmt.Errorf("COD has ℓ=%d dims (%d,%d) buffer=%d alpha=%v, want ℓ=%d dims (%d,%d) buffer=%d alpha=%v",
			cod.Ell(), cod.DimA(), cod.DimB(), cod.BufferFactor(), cod.Alpha(), ell, dA, dB, o.Buffer, o.Alpha)
	}
	return cod, nil
}

// UnmarshalBinary restores an AMM snapshot into the receiver,
// rebuilding the inner framework (factory closures included) from the
// snapshot's geometry. The tracer survives restore.
func (a *AMM) UnmarshalBinary(data []byte) error {
	r := binenc.NewReader(data)
	if magic := r.U64(); magic != ammMagic && r.Err() == nil {
		return fmt.Errorf("core: AMM snapshot magic %#x unrecognised", magic)
	}
	kind := r.Int()
	dA := r.Int()
	dB := r.Int()
	opts := stream.FDOpts{Buffer: r.Int(), Alpha: r.F64()}
	if err := r.Err(); err != nil {
		return fmt.Errorf("core: AMM snapshot: %w", err)
	}
	var restored *AMM
	var err error
	switch kind {
	case ammKindLM:
		restored, err = unmarshalLMAMM(r, dA, dB, opts)
	case ammKindDI:
		restored, err = unmarshalDIAMM(r, dA, dB, opts)
	default:
		return fmt.Errorf("core: AMM snapshot kind %d unrecognised", kind)
	}
	if err != nil {
		return fmt.Errorf("core: AMM snapshot: %w", err)
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("core: AMM snapshot: %w", err)
	}
	if r.Rest() != 0 {
		return fmt.Errorf("core: AMM snapshot has %d trailing bytes", r.Rest())
	}
	tr := a.tr
	*a = *restored
	a.SetTracer(tr)
	a.tr.Emit(a.Name(), trace.KindRestore, 0, float64(len(data)), 0)
	return nil
}

func unmarshalLMAMM(r *binenc.Reader, dA, dB int, opts stream.FDOpts) (*AMM, error) {
	spec := readSpec(r)
	ell := r.Int()
	b := r.Int()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if err := checkLMAMM(spec, dA, dB, ell, b, opts); err != nil {
		return nil, err
	}
	restored := NewLMAMMOpts(spec, dA, dB, ell, b, opts)
	err := restored.inner.(*LM).readBody(r, func(r *binenc.Reader) (stream.Mergeable, error) {
		return readCODBlob(r, ell, dA, dB, opts)
	})
	return restored, err
}

// diBlockMinBytes is the encoded size of a DI block without its blob's
// bytes: two indices, two times and the blob length.
const diBlockMinBytes = 5 * 8

// unmarshalDIAMM rebuilds a DI-AMM from its snapshot body. The
// per-level active co-sketches come from their decoded blobs, so
// nothing is allocated for them ahead of the bytes that carry them.
func unmarshalDIAMM(r *binenc.Reader, dA, dB int, opts stream.FDOpts) (*AMM, error) {
	cfg := DIConfig{N: r.Int(), R: r.F64(), L: r.Int(), Ell: r.Int(), MinEll: r.Int(), RSlack: r.F64()}
	if err := r.Err(); err != nil {
		return nil, err
	}
	if err := checkDIAMM(cfg, dA, dB, opts); err != nil {
		return nil, err
	}
	restored := newDIAMM(cfg, dA, dB, opts)
	s := restored.inner.(*DI)
	s.m = r.Int()
	s.curSize = r.F64()
	s.curStart = r.F64()
	s.lastT = r.F64()
	s.seen = r.Bool()
	s.normMin = r.F64()
	s.normMax = r.F64()
	s.rawOverflow = r.Bool()
	if err := r.Err(); err != nil {
		return nil, err
	}
	for i := 0; i < cfg.L; i++ {
		n := r.Count(r.Int(), diBlockMinBytes)
		for j := 0; j < n; j++ {
			blk := diBlock{startIdx: r.Int(), endIdx: r.Int(), startT: r.F64(), endT: r.F64()}
			if r.Err() != nil {
				return nil, r.Err()
			}
			if blk.startIdx < 1 || blk.endIdx < blk.startIdx {
				return nil, fmt.Errorf("level %d block spans [%d,%d]", i+1, blk.startIdx, blk.endIdx)
			}
			cod, err := readCODBlob(r, cfg.fdLevelEll(i+1), dA, dB, opts)
			if err != nil {
				return nil, err
			}
			blk.sk = cod
			s.levels[i] = append(s.levels[i], blk)
		}
	}
	for i := 0; i < cfg.L; i++ {
		cod, err := readCODBlob(r, cfg.fdLevelEll(i+1), dA, dB, opts)
		if err != nil {
			return nil, err
		}
		s.actives[i] = cod
		s.activeStartT[i] = r.F64()
		s.activeRows[i] = r.Int()
	}
	n := r.Count(r.Int(), lmRawRowMinBytes)
	for i := 0; i < n; i++ {
		row, t, err := readSparseRow(r, dA+dB)
		if err != nil {
			return nil, err
		}
		s.raw = append(s.raw, row)
		s.rawTimes = append(s.rawTimes, t)
	}
	return restored, r.Err()
}
