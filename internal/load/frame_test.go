package load

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"testing"
)

// TestFrameBytesPinned pins the binary stream framing of one fixed
// block: a change to the row-block layout changes these bytes.
func TestFrameBytesPinned(t *testing.T) {
	rows := [][]float64{{1, -2, 0.5, 3}, {math.Copysign(0, -1), 1e-300, -7.25, 1e300}, {4, 5, 6, 7}}
	times := []float64{10, 11.5, 13}
	sum := sha256.Sum256(encodeFrame(rows, times))
	const want = "c9071930c376cd8f05267b65f167cf915e51d0427ef5e5f4a9d162e1deda5085"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("frame bytes hash %s, want %s", got, want)
	}
}
