package core

import (
	"fmt"
	"math"

	"swsketch/internal/binenc"
	"swsketch/internal/mat"
	"swsketch/internal/stream"
	"swsketch/internal/trace"
)

// dsfdMagic versions the DS-FD snapshot format.
const dsfdMagic = uint64(0x44534644_00000001) // "DSFD" v1

// Minimum encoded sizes for the count guards: a prefix snapshot's time
// and row count; a frozen frame's four F64s and two counts.
const (
	dsSnapMinBytes  = 2 * 8
	dsFrameMinBytes = 4*8 + 8 + 8
)

func writeDSDense(w *binenc.Writer, m *mat.Dense) {
	if m == nil {
		w.Int(0)
		return
	}
	w.Int(m.Rows())
	if m.Rows() > 0 {
		w.F64s(m.Data())
	}
}

// readDSDense reads what writeDSDense wrote, for rows of dimension d.
func readDSDense(r *binenc.Reader, d int) (*mat.Dense, error) {
	rows := r.Count(r.Int(), 8*d)
	if rows == 0 {
		return nil, r.Err()
	}
	data := r.F64s()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if len(data) != rows*d {
		return nil, fmt.Errorf("matrix payload has %d values, want %d×%d", len(data), rows, d)
	}
	return mat.NewDenseData(rows, d, data), nil
}

func writeDSFrame(w *binenc.Writer, fr *dsFrame) {
	w.F64(fr.start)
	w.F64(fr.end)
	w.F64(fr.mass)
	w.F64(fr.delta)
	w.Int(len(fr.snaps))
	for _, sn := range fr.snaps {
		w.F64(sn.t)
		writeDSDense(w, sn.rows)
	}
}

func readDSFrame(r *binenc.Reader, d int) (dsFrame, error) {
	fr := dsFrame{
		start: r.F64(),
		end:   r.F64(),
		mass:  r.F64(),
		delta: r.F64(),
	}
	nSnaps := r.Count(r.Int(), dsSnapMinBytes)
	if !(fr.mass >= 0) || !(fr.delta >= 0) || math.IsInf(fr.mass, 0) || math.IsInf(fr.delta, 0) {
		return fr, fmt.Errorf("frame has invalid mass %v or delta %v", fr.mass, fr.delta)
	}
	for i := 0; i < nSnaps; i++ {
		t := r.F64()
		rows, err := readDSDense(r, d)
		if err != nil {
			return fr, err
		}
		fr.snaps = append(fr.snaps, dsSnap{t: t, rows: rows})
	}
	return fr, r.Err()
}

// MarshalBinary snapshots the full DS-FD state: configuration, the
// frozen frames with their final states and prefix snapshots, the
// active frame, and the active FD sketch (as a nested FD snapshot).
// DS-FD is deterministic, so a restored sketch continues bit-exactly.
func (s *DSFD) MarshalBinary() ([]byte, error) {
	w := binenc.NewWriter()
	w.U64(dsfdMagic)
	w.Int(s.d)
	w.Int(s.cfg.N)
	w.Int(s.cfg.Ell)
	w.F64(s.cfg.R)
	w.F64(s.cfg.RSlack)
	w.Int(s.cfg.FD.Buffer)
	w.F64(s.cfg.FD.Alpha)
	w.F64(s.rSeen)
	w.F64(s.lastT)
	w.Bool(s.seen)
	w.F64(s.sinceSnap)
	w.U64(s.dumps)
	w.U64(s.snapsTaken)
	w.U64(s.shrinksFrozen)
	w.Int(len(s.frames))
	for i := range s.frames {
		writeDSFrame(w, &s.frames[i])
		writeDSDense(w, s.frames[i].final)
	}
	writeDSFrame(w, &s.cur)
	fb, err := s.fd.MarshalBinary()
	if err != nil {
		return nil, err
	}
	w.Blob(fb)
	out := w.Bytes()
	s.tr.Emit("DS-FD", trace.KindSnapshot, s.lastT, float64(len(out)), 0)
	return out, nil
}

// UnmarshalBinary restores a DS-FD snapshot into the receiver.
func (s *DSFD) UnmarshalBinary(data []byte) error {
	r := binenc.NewReader(data)
	r.Magic(dsfdMagic)
	d := r.Int()
	n := r.Int()
	ell := r.Int()
	rBound := r.F64()
	rSlack := r.F64()
	fdBuffer := r.Int()
	fdAlpha := r.F64()
	rSeen := r.F64()
	lastT, seen := r.Clock()
	sinceSnap := r.F64()
	dumps := r.U64()
	snapsTaken := r.U64()
	shrinksFrozen := r.U64()
	if err := r.Err(); err != nil {
		return fmt.Errorf("core: DSFD snapshot: %w", err)
	}
	cfg := DSFDConfig{
		N: n, Ell: ell, R: rBound, RSlack: rSlack,
		FD: stream.FDOpts{Buffer: fdBuffer, Alpha: fdAlpha},
	}
	if err := cfg.check(d); err != nil {
		return fmt.Errorf("core: DSFD snapshot: %w", err)
	}
	if !(rSeen >= 0) || !(sinceSnap >= 0) || math.IsInf(rSeen, 0) || math.IsInf(sinceSnap, 0) {
		return fmt.Errorf("core: DSFD snapshot has invalid state r_seen=%v since_snap=%v", rSeen, sinceSnap)
	}
	nFrames := r.Count(r.Int(), dsFrameMinBytes)
	if err := r.Err(); err != nil {
		return fmt.Errorf("core: DSFD snapshot: %w", err)
	}
	restored := NewDSFD(cfg, d)
	restored.rSeen = rSeen
	restored.lastT, restored.seen = lastT, seen
	restored.sinceSnap = sinceSnap
	restored.dumps, restored.snapsTaken, restored.shrinksFrozen = dumps, snapsTaken, shrinksFrozen
	for i := 0; i < nFrames; i++ {
		fr, err := readDSFrame(r, d)
		if err != nil {
			return fmt.Errorf("core: DSFD snapshot frame %d: %w", i, err)
		}
		final, err := readDSDense(r, d)
		if err != nil {
			return fmt.Errorf("core: DSFD snapshot frame %d: %w", i, err)
		}
		if final == nil {
			return fmt.Errorf("core: DSFD snapshot frame %d has no final state", i)
		}
		fr.final = final
		restored.frames = append(restored.frames, fr)
	}
	cur, err := readDSFrame(r, d)
	if err != nil {
		return fmt.Errorf("core: DSFD snapshot active frame: %w", err)
	}
	restored.cur = cur
	fd := stream.NewFD(2, d) // shape overwritten by the nested snapshot
	if err := fd.UnmarshalBinary(r.Blob()); err != nil {
		return fmt.Errorf("core: DSFD snapshot: %w", err)
	}
	if err := r.End(); err != nil {
		return fmt.Errorf("core: DSFD snapshot: %w", err)
	}
	if fd.Ell() != ell {
		return fmt.Errorf("core: DSFD snapshot active sketch has ell=%d, want %d", fd.Ell(), ell)
	}
	if cols := fd.Matrix().Cols(); cols != d {
		return fmt.Errorf("core: DSFD snapshot active sketch has d=%d, want %d", cols, d)
	}
	restored.fd = fd
	// The nested FD's Delta accumulator restarts at zero; the frame's
	// own Σλ was persisted, so re-anchor the watermark.
	restored.deltaMark = fd.Delta()
	restored.tr = s.tr // the tracer survives restore
	restored.fd.SetTracer(s.tr)
	*s = *restored
	s.tr.Emit("DS-FD", trace.KindRestore, s.lastT, float64(len(data)), 0)
	return nil
}
