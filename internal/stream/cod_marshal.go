package stream

import (
	"fmt"

	"swsketch/internal/binenc"
	"swsketch/internal/mat"
)

// COD snapshot format. A single version carries the full geometry
// (ℓ, dA, dB, buffer factor, α) followed by the aligned occupied row
// pairs — X rows then Y rows. COD is deterministic, so a restored
// co-sketch continues bit-exactly where the original left off.
const codMagic = uint64(0x434F4453_00000001) // "CODS" v1

// MarshalBinary snapshots the co-sketch state (configuration plus the
// occupied rows of both aligned buffers).
func (c *COD) MarshalBinary() ([]byte, error) {
	w := binenc.NewWriter()
	w.U64(codMagic)
	w.Int(c.ell)
	w.Int(c.dA)
	w.Int(c.dB)
	w.Int(c.bfac)
	w.F64(c.alpha)
	w.Int(c.used)
	for i := 0; i < c.used; i++ {
		w.F64s(c.bufX.Row(i))
	}
	for i := 0; i < c.used; i++ {
		w.F64s(c.bufY.Row(i))
	}
	return w.Bytes(), nil
}

// UnmarshalBinary restores a snapshot produced by MarshalBinary into
// the receiver, replacing its state (configuration included). The
// header must pass CheckCOD, and the declared row payload is validated
// against the remaining bytes before anything is allocated for it.
func (c *COD) UnmarshalBinary(data []byte) error {
	r := binenc.NewReader(data)
	r.Magic(codMagic)
	ell := r.Int()
	dA := r.Int()
	dB := r.Int()
	bfac := r.Int()
	alpha := r.F64()
	used := r.Int()
	if err := r.Err(); err != nil {
		return fmt.Errorf("stream: COD snapshot: %w", err)
	}
	if err := CheckCOD(ell, dA, dB, FDOpts{Buffer: bfac, Alpha: alpha}); err != nil {
		return fmt.Errorf("stream: COD snapshot: %w", err)
	}
	if used > bfac*ell {
		return fmt.Errorf("stream: COD snapshot has invalid shape ell=%d buffer=%d used=%d", ell, bfac, used)
	}
	// A row pair is an X row of dA float64s and a Y row of dB, each
	// with a length prefix. The buffers hold just the restored pairs,
	// so the decode allocates in proportion to its input; the first
	// update grows them.
	used = r.Count(used, (8+8*dA)+(8+8*dB))
	restored := &COD{ell: ell, dA: dA, dB: dB, bfac: bfac, alpha: alpha, m: bfac * ell,
		bufX: mat.NewDense(used, dA), bufY: mat.NewDense(used, dB)}
	if err := readRows(r, restored.bufX); err != nil {
		return fmt.Errorf("stream: COD snapshot X: %w", err)
	}
	if err := readRows(r, restored.bufY); err != nil {
		return fmt.Errorf("stream: COD snapshot Y: %w", err)
	}
	if err := r.End(); err != nil {
		return fmt.Errorf("stream: COD snapshot: %w", err)
	}
	restored.used = used
	*c = *restored
	return nil
}
