package wal

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"math"
	"testing"

	"swsketch/internal/binenc"
)

// rowsFrame builds a rows record whose header claims an n×d block but
// carries only vals, and no CRC.
func rowsFrame(n, d int, vals ...float64) []byte {
	w := binenc.NewWriter()
	w.U32(recMagic)
	w.U64(1)
	w.U32(KindRows)
	w.Blob([]byte("t"))
	w.U64(0)
	w.Int(n)
	w.Int(d)
	for _, v := range vals {
		w.F64(v)
	}
	return w.Bytes()
}

// validRows is a well-formed 2×2 rows record.
func validRows() []byte {
	rec := record{seq: 1, kind: KindRows, tenant: "t", start: 3,
		rows: [][]float64{{1, 2}, {3, 4}}, times: []float64{5, 6}}
	return rec.encodedBytes()
}

// TestDecodeRecordFailureClasses pins which failures are damage and
// which are a torn tail. A header claiming more than 2²⁴ rows or
// columns is ErrCorrupt (health reports the log as damaged); a header
// whose block runs past the bytes is ErrTorn, which replay forgives at
// the end of the last segment.
func TestDecodeRecordFailureClasses(t *testing.T) {
	flip := func(data []byte, at int) []byte {
		out := append([]byte(nil), data...)
		out[at] ^= 0x01
		return out
	}
	valid := validRows()
	tests := []struct {
		name string
		data []byte
		want error
	}{
		{"over-cap n", rowsFrame(maxBlockRows+1, 1, 1, 2), ErrCorrupt},
		{"over-cap d", rowsFrame(1, maxBlockDim+1, 1, 2), ErrCorrupt},
		{"short payload", valid[:len(valid)-12], ErrTorn},
		{"flipped crc", flip(valid, len(valid)-1), ErrCorrupt},
		{"bad magic", flip(valid, 0), ErrCorrupt},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, next, err := decodeRecord(tc.data, 0)
			if !errors.Is(err, tc.want) {
				t.Fatalf("err %v, want %v", err, tc.want)
			}
			if next != 0 {
				t.Fatalf("a failed decode advanced to %d", next)
			}
		})
	}
	if _, next, err := decodeRecord(valid, 0); err != nil || next != len(valid) {
		t.Fatalf("valid record: next %d of %d, err %v", next, len(valid), err)
	}
}

// TestRowsRecordBytesPinned pins the rows record of one fixed block: a
// change to the record or row-block layout changes these bytes.
func TestRowsRecordBytesPinned(t *testing.T) {
	rec := record{seq: 7, kind: KindRows, tenant: "pinned", start: 40,
		rows:  [][]float64{{1, -2, 0.5, 3}, {math.Copysign(0, -1), 1e-300, -7.25, 1e300}, {4, 5, 6, 7}},
		times: []float64{10, 11.5, 13}}
	sum := sha256.Sum256(rec.encodedBytes())
	const want = "8add3c90d6d7fbb9b01c679bb42da58e4afebf2f061a058a34b2ed34d1e9970c"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("rows record bytes hash %s, want %s", got, want)
	}
}
