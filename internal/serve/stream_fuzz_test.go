package serve

import (
	"math"
	"testing"
)

// FuzzDecodeFrame feeds arbitrary payloads to the binary stream frame
// decoder, which parses untrusted bytes off the wire. The decoder must
// never panic, and a block it accepts must be exactly what the payload
// carries: a 16-byte header, then n timestamps and n rows of d values,
// 8 bytes each. Decoding into a frame that already holds an earlier,
// larger block (a connection's reused storage) must give the same
// rows and times as decoding into a fresh one. The committed corpus
// covers a valid frame, n = 0, a dimension mismatch, a huge claimed n,
// and trailing bytes.
func FuzzDecodeFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload []byte, dim uint8) {
		d := int(dim)
		if d < 1 || d > 64 {
			return // tenant dimensions are positive; keep n·(d+1) small
		}
		var fresh frame
		if err := decodeFrame(payload, d, &fresh); err != nil {
			return
		}
		n := len(fresh.rows)
		if n == 0 || len(fresh.times) != n {
			t.Fatalf("accepted %d rows with %d times", n, len(fresh.times))
		}
		if want := 8 * (2 + n*(d+1)); want != len(payload) {
			t.Fatalf("accepted %d rows of dimension %d from %d bytes, want %d bytes",
				n, d, len(payload), want)
		}
		reused := frame{block: make([]float64, (n+3)*d), rows: make([][]float64, n+3), times: make([]float64, n+3)}
		for i := range reused.block {
			reused.block[i] = math.NaN()
		}
		if err := decodeFrame(payload, d, &reused); err != nil {
			t.Fatalf("reused frame rejects a payload a fresh one accepts: %v", err)
		}
		if len(reused.rows) != n || len(reused.times) != n {
			t.Fatalf("reused frame decoded %d rows, %d times; want %d", len(reused.rows), len(reused.times), n)
		}
		for i, row := range fresh.rows {
			if len(row) != d || len(reused.rows[i]) != d {
				t.Fatalf("row %d: lengths %d and %d, want %d", i, len(row), len(reused.rows[i]), d)
			}
			if math.Float64bits(fresh.times[i]) != math.Float64bits(reused.times[i]) {
				t.Fatalf("row %d: time differs in the reused frame", i)
			}
			for j := range row {
				if math.Float64bits(row[j]) != math.Float64bits(reused.rows[i][j]) {
					t.Fatalf("row %d: value %d differs in the reused frame", i, j)
				}
			}
		}
	})
}
