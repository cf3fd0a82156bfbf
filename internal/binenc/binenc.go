// Package binenc provides the little-endian binary encoding helpers
// behind the sketches' MarshalBinary/UnmarshalBinary implementations:
// a Writer that appends primitives to a buffer and a Reader that
// consumes them with explicit error state, so codec code reads as a
// flat sequence of field writes/reads with one error check at the end.
package binenc

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Writer accumulates an encoded byte stream.
type Writer struct {
	buf []byte
}

// NewWriter returns an empty writer.
func NewWriter() *Writer { return &Writer{} }

// Bytes returns the accumulated encoding.
func (w *Writer) Bytes() []byte { return w.buf }

// U64 appends an unsigned 64-bit integer.
func (w *Writer) U64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	w.buf = append(w.buf, b[:]...)
}

// U32 appends an unsigned 32-bit integer (frame magics, checksums).
func (w *Writer) U32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	w.buf = append(w.buf, b[:]...)
}

// Int appends an int (as u64; negative values are rejected by reads).
func (w *Writer) Int(v int) { w.U64(uint64(v)) }

// Bool appends a boolean.
func (w *Writer) Bool(v bool) {
	if v {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

// F64 appends a float64.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// F64s appends a length-prefixed slice of float64.
func (w *Writer) F64s(v []float64) {
	w.Int(len(v))
	for _, x := range v {
		w.F64(x)
	}
}

// Blob appends a length-prefixed byte slice.
func (w *Writer) Blob(v []byte) {
	w.Int(len(v))
	w.buf = append(w.buf, v...)
}

// Reader consumes an encoded byte stream. The first decoding error
// sticks; Err reports it and all subsequent reads return zero values.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader wraps data for reading.
func NewReader(data []byte) *Reader { return &Reader{buf: data} }

// Err returns the first error encountered (nil if none).
func (r *Reader) Err() error { return r.err }

// Rest reports the number of unread bytes.
func (r *Reader) Rest() int { return len(r.buf) - r.off }

// Off reports the current read offset, so framed formats (the WAL)
// can checksum the exact byte span a record decoded from.
func (r *Reader) Off() int { return r.off }

func (r *Reader) fail(format string, args ...interface{}) {
	if r.err == nil {
		r.err = fmt.Errorf("binenc: "+format, args...)
	}
}

// U32 reads an unsigned 32-bit integer.
func (r *Reader) U32() uint32 {
	if r.err != nil {
		return 0
	}
	if r.off+4 > len(r.buf) {
		r.fail("truncated at offset %d", r.off)
		return 0
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

// U64 reads an unsigned 64-bit integer.
func (r *Reader) U64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.buf) {
		r.fail("truncated at offset %d", r.off)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

// Int reads an int, rejecting values that overflow.
func (r *Reader) Int() int {
	v := r.U64()
	if v > math.MaxInt32 { // sketch sizes never approach this
		r.fail("implausible length %d", v)
		return 0
	}
	return int(v)
}

// Bool reads a boolean.
func (r *Reader) Bool() bool {
	if r.err != nil {
		return false
	}
	if r.off >= len(r.buf) {
		r.fail("truncated at offset %d", r.off)
		return false
	}
	v := r.buf[r.off]
	r.off++
	if v > 1 {
		r.fail("bad bool %d", v)
		return false
	}
	return v == 1
}

// F64 reads a float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Count is the decoders' one shape guard for claimed element counts:
// it fails the reader unless n elements of at least minSize encoded
// bytes each (minSize ≥ 1) fit in the unread input, so a short hostile
// input cannot make a decoder allocate for billions of elements. Route
// a count through Count before allocating anything sized by it. It
// returns n, or 0 once the reader has failed. The division form keeps
// the comparison overflow-proof.
func (r *Reader) Count(n, minSize int) int {
	if r.err != nil {
		return 0
	}
	if n < 0 || n > r.Rest()/minSize {
		r.fail("count %d of %d-byte elements exceeds remaining %d bytes", n, minSize, r.Rest())
		return 0
	}
	return n
}

// F64s reads a length-prefixed float64 slice, its length guarded by
// Count before the allocation.
func (r *Reader) F64s() []float64 {
	n := r.Count(r.Int(), 8)
	if r.err != nil {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = r.F64()
	}
	return out
}

// Blob reads a length-prefixed byte slice (copied), its length guarded
// by Count before the allocation.
func (r *Reader) Blob() []byte {
	n := r.Count(r.Int(), 1)
	if r.err != nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, r.buf[r.off:r.off+n])
	r.off += n
	return out
}
