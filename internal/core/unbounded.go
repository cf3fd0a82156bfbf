package core

import (
	"fmt"

	"swsketch/internal/mat"
	"swsketch/internal/stream"
)

// Unbounded adapts a streaming (whole-history) matrix sketch to the
// WindowSketch interface, ignoring the window entirely. It is the
// "what if we just used FrequentDirections" baseline for the paper's
// motivating argument: on drifting streams its answers keep averaging
// over stale regimes, while the true sliding-window sketches track the
// recent distribution. Used by `swbench drift`.
type Unbounded struct {
	sk   stream.Sketch
	d    int
	name string
}

// NewUnbounded wraps sk (of dimension d) under the given display name.
func NewUnbounded(name string, d int, sk stream.Sketch) *Unbounded {
	if d < 1 {
		panic(fmt.Sprintf("core: Unbounded needs d ≥ 1, got %d", d))
	}
	return &Unbounded{sk: sk, d: d, name: name}
}

// NewUnboundedFD wraps a FrequentDirections sketch of ℓ rows.
func NewUnboundedFD(ell, d int) *Unbounded {
	return NewUnboundedFDOpts(ell, d, stream.FDOpts{})
}

// NewUnboundedFDOpts wraps a FrequentDirections sketch with FastFD
// ingest tuning (see stream.FDOpts); the zero FDOpts reproduces
// NewUnboundedFD exactly.
func NewUnboundedFDOpts(ell, d int, o stream.FDOpts) *Unbounded {
	return NewUnbounded("STREAM-FD", d, stream.NewFDOpts(ell, d, o))
}

// Update feeds the row to the streaming sketch; the timestamp is
// ignored.
func (u *Unbounded) Update(row []float64, _ float64) {
	u.check(row)
	u.sk.Update(row)
}

// UpdateBatch feeds the rows to the streaming sketch's bulk path; the
// timestamps are ignored.
func (u *Unbounded) UpdateBatch(rows [][]float64, times []float64) {
	if len(rows) != len(times) {
		panic(fmt.Sprintf("core: Unbounded batch has %d rows but %d timestamps", len(rows), len(times)))
	}
	for _, r := range rows {
		u.check(r)
	}
	u.sk.UpdateBatch(rows)
}

// check panics on a row that is not d wide or whose squared norm is
// not finite; Unbounded has no clock.
func (u *Unbounded) check(row []float64) {
	checkWidth("Unbounded", row, u.d)
	must(checkRow("Unbounded", mat.SqNorm(row), 0, 0, false, 0, 0))
}

// Query returns the whole-history approximation.
func (u *Unbounded) Query(_ float64) *mat.Dense { return u.sk.Matrix() }

// RowsStored reports the streaming sketch's size.
func (u *Unbounded) RowsStored() int { return u.sk.RowsStored() }

// Name implements WindowSketch.
func (u *Unbounded) Name() string { return u.name }

// Stats implements Introspector, forwarding the streaming sketch's own
// stats (FD exposes shrink count and headroom) when it has any.
func (u *Unbounded) Stats() map[string]float64 {
	if in, ok := u.sk.(Introspector); ok {
		return in.Stats()
	}
	return map[string]float64{"rows_stored": float64(u.sk.RowsStored())}
}

var (
	_ WindowSketch = (*Unbounded)(nil)
	_ Introspector = (*Unbounded)(nil)
)
