package core

import (
	"fmt"

	"swsketch/internal/binenc"
	"swsketch/internal/stream"
	"swsketch/internal/trace"
)

// AMM snapshot format: one outer header (kind, side dimensions, COD
// buffer tuning) followed by the inner framework's body with COD blobs
// per block: LM's (LM.writeBody/readBody, as LM-FD writes it after the
// window, ℓ and b) or DI's (DI.writeBody/readBody, as DI-FD writes it).
const ammMagic = uint64(0x414D4D53_00000001) // "AMMS" v1

// MarshalBinary snapshots the co-sketch: outer geometry plus the full
// inner-framework state. AMM is deterministic end to end (COD shrinks
// are QR/SVD of fixed inputs), so a restored sketch continues
// bit-exactly — the property the registry's spill/restore and the
// conformance suite's continuation check rely on.
func (a *AMM) MarshalBinary() ([]byte, error) {
	var kind int
	var body func(*binenc.Writer) error
	switch in := a.inner.(type) {
	case *LM:
		kind, body = ammKindLM, func(w *binenc.Writer) error {
			in.snapshots++
			writeSpec(w, in.spec)
			w.Int(int(in.ell))
			w.Int(in.b)
			return in.writeBody(w)
		}
	case *DI:
		kind, body = ammKindDI, in.writeBody
	default:
		return nil, fmt.Errorf("core: AMM snapshot of %T", a.inner)
	}
	w := binenc.NewWriter()
	w.U64(ammMagic)
	w.Int(kind)
	w.Int(a.dA)
	w.Int(a.dB)
	w.Int(a.opts.Buffer)
	w.F64(a.opts.Alpha)
	if err := body(w); err != nil {
		return nil, err
	}
	out := w.Bytes()
	a.tr.Emit(a.Name(), trace.KindSnapshot, 0, float64(len(out)), 0)
	return out, nil
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
	r.Magic(ammMagic)
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
	if err := r.End(); err != nil {
		return fmt.Errorf("core: AMM snapshot: %w", err)
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

// unmarshalDIAMM rebuilds a DI-AMM from its DI config and body.
func unmarshalDIAMM(r *binenc.Reader, dA, dB int, opts stream.FDOpts) (*AMM, error) {
	cfg := readDIConfig(r)
	if err := r.Err(); err != nil {
		return nil, err
	}
	if err := checkDIAMM(cfg, dA, dB, opts); err != nil {
		return nil, err
	}
	restored := newDIAMM(cfg, dA, dB, opts)
	err := restored.inner.(*DI).readBody(r, func(r *binenc.Reader, level int) (stream.Sketch, error) {
		return readCODBlob(r, cfg.fdLevelEll(level), dA, dB, opts)
	})
	return restored, err
}
