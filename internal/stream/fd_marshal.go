package stream

import (
	"fmt"

	"swsketch/internal/binenc"
	"swsketch/internal/mat"
)

// FD snapshot format versions. Classic sketches (b=1, α=1) write v1 —
// byte-identical to every blob ever produced before the FastFD buffer
// existed — so persisted default-config state round-trips across
// versions unchanged. Non-classic sketches write v2, which carries the
// buffer geometry after the shape header. Decode accepts both.
const (
	fdMagic   = uint64(0x46445348_00000001) // "FDSH" v1: fixed ℓ×d buffer
	fdMagicV2 = uint64(0x46445348_00000002) // "FDSH" v2: v1 + (b, α) geometry
)

// MarshalBinary snapshots the sketch state (configuration plus the
// occupied buffer rows). FD is deterministic, so a restored sketch
// continues exactly where the original left off. Classic-cadence
// sketches emit the v1 format bit-for-bit; widened or α-tuned
// sketches emit v2.
func (f *FD) MarshalBinary() ([]byte, error) {
	w := binenc.NewWriter()
	if f.bfac == 1 && f.alpha == 1 {
		w.U64(fdMagic)
		w.Int(f.ell)
		w.Int(f.d)
	} else {
		w.U64(fdMagicV2)
		w.Int(f.ell)
		w.Int(f.d)
		w.Int(f.bfac)
		w.F64(f.alpha)
	}
	w.Int(f.used)
	for i := 0; i < f.used; i++ {
		w.F64s(f.buf.Row(i))
	}
	return w.Bytes(), nil
}

// UnmarshalBinary restores a snapshot produced by MarshalBinary into
// the receiver, replacing its state. The receiver's configuration is
// overwritten by the snapshot's; v1 snapshots restore to the classic
// cadence (b=1, α=1) that produced them.
func (f *FD) UnmarshalBinary(data []byte) error {
	r := binenc.NewReader(data)
	magic := r.Magic(fdMagic, fdMagicV2)
	ell := r.Int()
	d := r.Int()
	bfac, alpha := 1, 1.0
	if magic == fdMagicV2 {
		bfac = r.Int()
		alpha = r.F64()
	}
	used := r.Int()
	if err := r.Err(); err != nil {
		return fmt.Errorf("stream: FD snapshot: %w", err)
	}
	if err := CheckFD(ell, d, FDOpts{Buffer: bfac, Alpha: alpha}); err != nil {
		return fmt.Errorf("stream: FD snapshot: %w", err)
	}
	if used > bfac*ell {
		return fmt.Errorf("stream: FD snapshot has invalid shape ell=%d d=%d buffer=%d used=%d", ell, d, bfac, used)
	}
	// Each row is a length prefix and d float64s. The buffer holds just
	// the restored rows, so the decode allocates in proportion to its
	// input; the first update grows it.
	used = r.Count(used, 8+8*d)
	restored := &FD{ell: ell, d: d, bfac: bfac, alpha: alpha, m: bfac * ell, buf: mat.NewDense(used, d)}
	if err := readRows(r, restored.buf); err != nil {
		return fmt.Errorf("stream: FD snapshot: %w", err)
	}
	if err := r.End(); err != nil {
		return fmt.Errorf("stream: FD snapshot: %w", err)
	}
	restored.used = used
	*f = *restored
	return nil
}

// readRows fills buf's rows, each encoded as F64s of buf.Cols() values.
func readRows(r *binenc.Reader, buf *mat.Dense) error {
	for i := 0; i < buf.Rows(); i++ {
		row := r.F64s()
		if r.Err() == nil && len(row) != buf.Cols() {
			return fmt.Errorf("row %d has length %d, want %d", i, len(row), buf.Cols())
		}
		copy(buf.Row(i), row)
	}
	return nil
}
