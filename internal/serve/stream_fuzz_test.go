package serve

import "testing"

// FuzzDecodeFrame feeds arbitrary payloads to the binary stream frame
// decoder, which parses untrusted bytes off the wire. The decoder must
// never panic, and a block it accepts must be exactly what the payload
// carries: a 16-byte header, then n timestamps and n rows of d values,
// 8 bytes each. The committed corpus covers a valid frame, n = 0, a
// dimension mismatch, a huge claimed n, and trailing bytes.
func FuzzDecodeFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload []byte, dim uint8) {
		d := int(dim)
		if d < 1 || d > 64 {
			return // tenant dimensions are positive; keep n·(d+1) small
		}
		updates, err := decodeFrame(payload, d)
		if err != nil {
			if updates != nil {
				t.Fatalf("error %v with %d updates", err, len(updates))
			}
			return
		}
		if len(updates) == 0 {
			t.Fatal("accepted an empty block")
		}
		if want := 8 * (2 + len(updates)*(d+1)); want != len(payload) {
			t.Fatalf("accepted %d rows of dimension %d from %d bytes, want %d bytes",
				len(updates), d, len(payload), want)
		}
		for i, u := range updates {
			if len(u.Row) != d || len(u.Idx) != 0 || len(u.Val) != 0 {
				t.Fatalf("update %d: %d dense, %d sparse values", i, len(u.Row), len(u.Idx))
			}
		}
	})
}
