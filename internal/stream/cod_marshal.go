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
	if magic := r.U64(); magic != codMagic && r.Err() == nil {
		return fmt.Errorf("stream: COD snapshot magic %#x unrecognised", magic)
	}
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
	if used < 0 || used > bfac*ell {
		return fmt.Errorf("stream: COD snapshot has invalid shape ell=%d buffer=%d used=%d", ell, bfac, used)
	}
	// Each X row costs a length prefix plus dA float64s, each Y row the
	// same with dB; the payload must hold exactly the declared pairs
	// before anything is allocated for them.
	pairBytes := (8 + 8*dA) + (8 + 8*dB)
	if used > r.Rest()/pairBytes || r.Rest() != used*pairBytes {
		return fmt.Errorf("stream: COD snapshot payload is %d bytes, want %d for %d row pairs", r.Rest(), used*pairBytes, used)
	}
	// The buffers hold just the restored row pairs, so the decode
	// allocates in proportion to its input; the first update grows them.
	restored := &COD{ell: ell, dA: dA, dB: dB, bfac: bfac, alpha: alpha, m: bfac * ell,
		bufX: mat.NewDense(used, dA), bufY: mat.NewDense(used, dB)}
	for i := 0; i < used; i++ {
		row := r.F64s()
		if r.Err() != nil {
			break
		}
		if len(row) != dA {
			return fmt.Errorf("stream: COD snapshot X row %d has length %d, want %d", i, len(row), dA)
		}
		copy(restored.bufX.Row(i), row)
	}
	for i := 0; i < used; i++ {
		row := r.F64s()
		if r.Err() != nil {
			break
		}
		if len(row) != dB {
			return fmt.Errorf("stream: COD snapshot Y row %d has length %d, want %d", i, len(row), dB)
		}
		copy(restored.bufY.Row(i), row)
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("stream: COD snapshot: %w", err)
	}
	if r.Rest() != 0 {
		return fmt.Errorf("stream: COD snapshot has %d trailing bytes", r.Rest())
	}
	restored.used = used
	*c = *restored
	return nil
}
