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
	magic := r.U64()
	if magic != fdMagic && magic != fdMagicV2 && r.Err() == nil {
		return fmt.Errorf("stream: FD snapshot magic %#x unrecognised", magic)
	}
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
	if used < 0 || used > bfac*ell {
		return fmt.Errorf("stream: FD snapshot has invalid shape ell=%d d=%d buffer=%d used=%d", ell, d, bfac, used)
	}
	// Each row costs a length prefix plus d float64s; the payload must
	// hold exactly the declared rows before anything is allocated for
	// them (the division keeps the size arithmetic overflow-free).
	rowBytes := 8 + 8*d
	if used > r.Rest()/rowBytes || r.Rest() != used*rowBytes {
		return fmt.Errorf("stream: FD snapshot payload is %d bytes, want %d for %d rows", r.Rest(), used*rowBytes, used)
	}
	// The buffer holds just the restored rows, so the decode allocates
	// in proportion to its input; the first update grows it.
	restored := &FD{ell: ell, d: d, bfac: bfac, alpha: alpha, m: bfac * ell, buf: mat.NewDense(used, d)}
	for i := 0; i < used; i++ {
		row := r.F64s()
		if r.Err() != nil {
			break
		}
		if len(row) != d {
			return fmt.Errorf("stream: FD snapshot row %d has length %d, want %d", i, len(row), d)
		}
		copy(restored.buf.Row(i), row)
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("stream: FD snapshot: %w", err)
	}
	if r.Rest() != 0 {
		return fmt.Errorf("stream: FD snapshot has %d trailing bytes", r.Rest())
	}
	restored.used = used
	*f = *restored
	return nil
}
