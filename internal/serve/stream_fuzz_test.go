package serve

import (
	"math"
	"testing"

	"swsketch/internal/binenc"
)

// FuzzDecodeFrame feeds arbitrary payloads to the binary stream frame
// decoder, which parses untrusted bytes off the wire. The decoder must
// never panic, and a block it accepts must be exactly what the payload
// carries: a 16-byte header, then n timestamps and n rows of d values,
// 8 bytes each. Decoding into a frame that already holds an earlier,
// larger block (a connection's reused storage) must reuse that storage
// and give the same rows and times as decoding into a fresh one. The committed corpus
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
		got := fresh.block
		n := len(got.Rows)
		if n == 0 || len(got.Times) != n {
			t.Fatalf("accepted %d rows with %d times", n, len(got.Times))
		}
		if want := 8 * (2 + n*(d+1)); want != len(payload) {
			t.Fatalf("accepted %d rows of dimension %d from %d bytes, want %d bytes",
				n, d, len(payload), want)
		}
		var reused frame
		if err := decodeFrame(nanFrame(n+3, d), d, &reused); err != nil {
			t.Fatalf("the larger earlier block: %v", err)
		}
		first := &reused.block.Rows[0][0]
		if err := decodeFrame(payload, d, &reused); err != nil {
			t.Fatalf("reused frame rejects a payload a fresh one accepts: %v", err)
		}
		again := reused.block
		if &again.Rows[0][0] != first {
			t.Fatal("the frame decoder did not reuse the block's storage")
		}
		if len(again.Rows) != n || len(again.Times) != n {
			t.Fatalf("reused frame decoded %d rows, %d times; want %d", len(again.Rows), len(again.Times), n)
		}
		for i, row := range got.Rows {
			if len(row) != d || len(again.Rows[i]) != d {
				t.Fatalf("row %d: lengths %d and %d, want %d", i, len(row), len(again.Rows[i]), d)
			}
			if math.Float64bits(got.Times[i]) != math.Float64bits(again.Times[i]) {
				t.Fatalf("row %d: time differs in the reused frame", i)
			}
			for j := range row {
				if math.Float64bits(row[j]) != math.Float64bits(again.Rows[i][j]) {
					t.Fatalf("row %d: value %d differs in the reused frame", i, j)
				}
			}
		}
	})
}

// nanFrame is the payload of an n×d block of NaN times and values.
func nanFrame(n, d int) []byte {
	rows, times := make([][]float64, n), make([]float64, n)
	for i := range rows {
		rows[i] = make([]float64, d)
		for j := range rows[i] {
			rows[i][j] = math.NaN()
		}
		times[i] = math.NaN()
	}
	w := binenc.NewWriter()
	w.Block(rows, times)
	return w.Bytes()
}
