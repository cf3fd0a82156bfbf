// Package core implements the paper's sliding-window matrix sketches:
//
//   - SWR and SWOR (Section 5): norm-proportional row sampling with and
//     without replacement via priority-sampling candidate queues, plus
//     the SWOR-ALL variant that answers with every candidate row.
//   - LM (Section 6): the Logarithmic Method, which converts any
//     mergeable streaming sketch (FrequentDirections, Hashing) into a
//     sketch for both time- and sequence-based sliding windows.
//   - DI (Section 7): the Dyadic Interval framework, which converts an
//     arbitrary streaming sketch (FD, random projection, Hashing) into
//     a sequence-window sketch with a better space profile when the
//     norm ratio R is small.
//   - Best (Section 8): the offline best rank-k baseline.
//
// Every sketch implements WindowSketch: feed timestamped rows with
// Update and materialise an approximation B for the current window
// with Query. For sequence-based windows, use the row's stream index
// as its timestamp.
package core

import (
	"encoding"
	"fmt"
	"math"

	"swsketch/internal/mat"
	"swsketch/internal/trace"
)

// WindowSketch is a continuously maintained matrix sketch over a
// sliding window. Implementations are not safe for concurrent use;
// wrap them in Concurrent for a one-writer/many-reader regime.
type WindowSketch interface {
	// Update feeds one row arriving at timestamp t. Timestamps must be
	// non-decreasing; for sequence windows use the stream index. The
	// row is copied, never retained.
	Update(row []float64, t float64)
	// UpdateBatch feeds rows arriving at the corresponding timestamps,
	// in order. The visible state afterwards matches calling Update on
	// each row in turn (including any internal randomness), but the
	// sketch validates once and amortises per-row bookkeeping across
	// the batch. Rows and times must have equal length; neither slice
	// is retained. A batch that breaks a rule Update enforces panics
	// before any of its rows is applied.
	UpdateBatch(rows [][]float64, times []float64)
	// Query returns the approximation B ∈ R^{ℓ×d} for the window
	// ending at time t (which must be ≥ the latest Update timestamp).
	Query(t float64) *mat.Dense
	// RowsStored reports the sketch's current space usage in rows, the
	// measure used throughout the paper's evaluation.
	RowsStored() int
	// Name identifies the algorithm (e.g. "SWR", "LM-FD") in harness
	// output.
	Name() string
}

// must panics with a constructor's non-nil check error.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

// TenantSketch is a window sketch a served tenant can hold; every
// registry framework builds one (SWR, SWOR, LM, DI, DS-FD and AMM
// implement it). Beyond WindowSketch it owns the stream clock, checks
// a batch without applying it, snapshots itself, reports its
// internals and takes a tracer.
type TenantSketch interface {
	WindowSketch
	Introspector
	trace.Traceable
	encoding.BinaryMarshaler
	encoding.BinaryUnmarshaler
	// CheckBatch returns the error UpdateBatch(rows, times) would panic
	// with, or nil when UpdateBatch would accept the batch. It changes
	// nothing.
	CheckBatch(rows [][]float64, times []float64) error
	// Clock returns the last accepted timestamp and whether any row has
	// been accepted. A snapshot carries it.
	Clock() (lastT float64, seen bool)
	// Dim returns the row dimension d.
	Dim() int
}

// checkRow states the rules every sketch holds one row to, given its
// squared norm w and timestamp t: w is finite, within r·slack when a
// bound r > 0 is declared, and t is finite and does not precede the
// sketch's clock (lastT, once seen). One sum catches NaN and ±Inf
// values and overflow alike, any of which would otherwise poison Gram
// accumulations, FD shrinks and priority draws silently; a clock at
// +Inf would refuse every later row, and one at NaN every read. Every
// update path checks a row before it changes anything.
func checkRow(algo string, w, t, lastT float64, seen bool, r, slack float64) error {
	switch {
	case math.IsNaN(w) || math.IsInf(w, 0):
		return fmt.Errorf("core: %s row has squared norm %v", algo, w)
	case r > 0 && w > r*slack:
		return fmt.Errorf("core: %s row squared norm %v exceeds declared R=%v", algo, w, r)
	case math.IsNaN(t) || math.IsInf(t, 0):
		return fmt.Errorf("core: %s timestamp %v is not finite", algo, t)
	case seen && t < lastT:
		return fmt.Errorf("core: %s timestamp %v precedes %v", algo, t, lastT)
	}
	return nil
}

// checkBatch is the batch form of checkRow behind every CheckBatch:
// matching slice lengths, rows of width d, and each row checked
// against the clock its predecessors in the batch advanced.
func checkBatch(algo string, rows [][]float64, times []float64, d int, lastT float64, seen bool, r, slack float64) error {
	if len(rows) != len(times) {
		return fmt.Errorf("core: %s batch has %d rows but %d timestamps", algo, len(rows), len(times))
	}
	for i, row := range rows {
		if len(row) != d {
			return fmt.Errorf("core: %s batch row %d length %d, want %d", algo, i, len(row), d)
		}
		if err := checkRow(algo, mat.SqNorm(row), times[i], lastT, seen, r, slack); err != nil {
			return fmt.Errorf("%w (batch row %d)", err, i)
		}
		lastT, seen = times[i], true
	}
	return nil
}

// checkWidth panics when a dense row is not d wide.
func checkWidth(algo string, row []float64, d int) {
	if len(row) != d {
		panic(fmt.Sprintf("core: %s row length %d, want %d", algo, len(row), d))
	}
}

// checkSparseWidth panics when a sparse row indexes past dimension d.
func checkSparseWidth(algo string, row mat.SparseRow, d int) {
	if m := row.MaxIdx(); m >= d {
		panic(fmt.Sprintf("core: %s sparse row index %d, dimension %d", algo, m, d))
	}
}

// Introspector is implemented by sketches that expose their internal
// state as a flat name → value map for operational monitoring: queue
// depths, level occupancy, shrink counts, tracker sizes. Keys are
// stable lower_snake_case identifiers; values are gauges sampled at
// call time. Stats must return a fresh map (callers may mutate it) and
// must not modify sketch state beyond what a read does. All of the
// paper's sketches (SWR, SWOR, LM, DI) implement it, as does the
// Concurrent wrapper by delegation.
type Introspector interface {
	Stats() map[string]float64
}

// trackerStats merges a norm tracker's own Stats() (when it has one,
// e.g. the EH-backed tracker) into dst under "norm_tracker_<key>".
func trackerStats(dst map[string]float64, nt interface{ Size() int }) {
	dst["norm_tracker_items"] = float64(nt.Size())
	if in, ok := nt.(Introspector); ok {
		for k, v := range in.Stats() {
			dst["norm_tracker_"+k] = v
		}
	}
}

// SparseUpdater is implemented by window sketches with a sparse ingest
// path; UpdateSparse(row, t) is equivalent to Update(row.Dense(d), t).
// LM, DI and AMM exploit sparsity end-to-end, in O(nnz); the samplers
// and DS-FD densify the row first (their candidates and frame sketches
// hold rows dense) and then run the O(d) dense update, norm included.
type SparseUpdater interface {
	WindowSketch
	UpdateSparse(row mat.SparseRow, t float64)
}
