package wal

// Fuzzing the record decoder. The WAL reads back bytes it wrote, but
// after a crash those bytes are arbitrary — the decoder must never
// panic or allocate proportionally to a hostile length prefix.

import (
	"errors"
	"testing"
)

// hostileRowsFrame is a rows record whose header claims a block
// vastly larger than the bytes that follow — the allocation-bomb
// shape a flipped length byte produces: a million rows of a million
// dims, backed by 16 bytes.
func hostileRowsFrame() []byte { return rowsFrame(1<<20, 1<<20, 1, 2) }

// FuzzWALRecord decodes arbitrary bytes as a run of records. Every
// failure must be ErrTorn or ErrCorrupt, and a record that decodes
// must re-encode to the bytes it spans. The committed corpus holds one
// record of each kind (its checkpoint carries a real tenant's), a
// kind-4 snapshot record of older logs, the hostile rows header, an
// over-cap header, a torn record and noise; the seeds below repeat all
// of it but the old snapshot record and the over-cap header.
func FuzzWALRecord(f *testing.F) {
	// Well-formed records of every kind.
	for _, rec := range []*record{
		{seq: 1, kind: KindRows, tenant: "alpha", start: 3,
			rows: [][]float64{{1, 2}, {3, 4}}, times: []float64{5, 6}},
		{seq: 2, kind: KindCreate, tenant: "alpha", blob: []byte(`{"d":2}`)},
		{seq: 3, kind: KindCheckpoint, tenant: "alpha", blob: []byte("checkpoint-bytes")},
		{seq: 4, kind: KindDelete, tenant: "alpha"},
	} {
		f.Add(rec.encodedBytes())
	}
	// A plausible frame with a length prefix far beyond the payload.
	f.Add(hostileRowsFrame())
	// A torn frame and pure noise.
	f.Add(hostileRowsFrame()[:9])
	f.Add([]byte{0x53, 0x57, 0x41, 0x4C, 0xFF, 0xFF})

	f.Fuzz(func(t *testing.T, data []byte) {
		off := 0
		for off < len(data) {
			rec, next, err := decodeRecord(data, off)
			if err != nil {
				if !errors.Is(err, ErrTorn) && !errors.Is(err, ErrCorrupt) {
					t.Fatalf("decode error outside the taxonomy: %v", err)
				}
				return
			}
			if next <= off || next > len(data) {
				t.Fatalf("decode advanced %d -> %d of %d", off, next, len(data))
			}
			if len(rec.rows) != len(rec.times) {
				t.Fatalf("decoded %d rows with %d times", len(rec.rows), len(rec.times))
			}
			// A record that decodes must re-encode to the same bytes.
			if rec.kind == KindRows || rec.kind == KindCreate ||
				rec.kind == KindCheckpoint || rec.kind == KindDelete {
				enc := rec.encodedBytes()
				if len(enc) != next-off {
					t.Fatalf("re-encode length %d, decoded span %d", len(enc), next-off)
				}
			}
			off = next
		}
	})
}

// TestHostileLengthPrefixBounded pins the allocation bound directly:
// decoding the hostile frame fails as torn without allocating the
// claimed terabyte block.
func TestHostileLengthPrefixBounded(t *testing.T) {
	data := hostileRowsFrame()
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, err := decodeRecord(data, 0); !errors.Is(err, ErrTorn) {
			t.Fatalf("hostile frame decoded: %v", err)
		}
	})
	if allocs > 8 { // reader, tenant, error wrapping; never the claimed block
		t.Fatalf("hostile frame cost %v allocations per decode", allocs)
	}
}
