// Package binenc is the little-endian binary encoding behind every
// snapshot codec, the WAL's records and the binary stream frames: a
// Writer that appends primitives and a Reader that consumes them with
// a sticky error, so a codec reads as a flat sequence of fields with
// one check at the end. The Reader guards what every decoder of
// network or disk bytes needs: Magic rejects a foreign format, Count
// a claimed count the unread bytes cannot hold (before anything is
// allocated for it), Block reads the ingest paths' n×d row block under
// that guard, Clock rejects a sketch clock that is not finite, and End
// returns the first error or rejects trailing bytes.
package binenc

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
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

// Block appends a row block: Int n, Int d, the n timestamps, then the
// n·d values row-major, d being len(rows[0]) (0 for no rows). The
// stream frames and the WAL's rows records carry this layout.
func (w *Writer) Block(rows [][]float64, times []float64) {
	d := 0
	if len(rows) > 0 {
		d = len(rows[0])
	}
	w.Int(len(rows))
	w.Int(d)
	for _, t := range times {
		w.F64(t)
	}
	for _, row := range rows {
		for _, v := range row {
			w.F64(v)
		}
	}
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

// End is a decoder's final check: it returns the first error, or an
// error if unread bytes remain.
func (r *Reader) End() error {
	if r.err == nil && r.rest() != 0 {
		r.fail("%d trailing bytes", r.rest())
	}
	return r.err
}

// rest reports the number of unread bytes.
func (r *Reader) rest() int { return len(r.buf) - r.off }

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

// Clock reads a sketch's stream clock, an F64 last timestamp then a
// Bool that says whether any row was seen, and fails on a timestamp
// that is not finite: a sketch refuses a row at such a time, and a
// clock decoded at one would refuse every later row.
func (r *Reader) Clock() (t float64, seen bool) {
	t, seen = r.F64(), r.Bool()
	if math.IsNaN(t) || math.IsInf(t, 0) {
		r.fail("clock %v is not finite", t)
	}
	return t, seen
}

// Magic reads a U64 format magic and returns it when it is one of
// want; otherwise the reader fails and Magic returns 0.
func (r *Reader) Magic(want ...uint64) uint64 {
	m := r.U64()
	if r.err == nil && slices.Contains(want, m) {
		return m
	}
	r.fail("magic %#x unrecognised", m)
	return 0
}

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
	if n < 0 || n > r.rest()/minSize {
		r.err = countError{n, minSize, r.rest()}
		return 0
	}
	return n
}

// countError is a failed Count. It is formatted only when read, so a
// hostile count costs one allocation to reject.
type countError struct{ n, size, rest int }

func (e countError) Error() string {
	return fmt.Sprintf("binenc: count %d of %d-byte elements exceeds remaining %d bytes", e.n, e.size, e.rest)
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

// Block is a decoded row block: n timestamps and n rows of d values,
// the rows viewing one row-major slice. Reading into the same Block
// again reuses its storage.
type Block struct {
	Times []float64
	Rows  [][]float64
	vals  []float64
}

// BlockHeader reads a row block's shape, Int n then Int d, for the
// caller to judge before Block reads the rest.
func (r *Reader) BlockHeader() (n, d int) { return r.Int(), r.Int() }

// Block reads the timestamps and values of an n×d row block into b.
// Count guards the n rows of 8·(d+1) bytes each before b grows.
func (r *Reader) Block(n, d int, b *Block) {
	if r.Count(n, 8*(d+1)); r.err != nil {
		return
	}
	if cap(b.Times) < n {
		b.Times, b.Rows = make([]float64, n), make([][]float64, n)
	}
	if cap(b.vals) < n*d {
		b.vals = make([]float64, n*d)
	}
	b.Times, b.Rows, b.vals = b.Times[:n], b.Rows[:n], b.vals[:n*d]
	for i := range b.Times {
		b.Times[i] = r.F64()
	}
	for i := range b.vals {
		b.vals[i] = r.F64()
	}
	for i := range b.Rows {
		b.Rows[i] = b.vals[i*d : (i+1)*d : (i+1)*d]
	}
}
