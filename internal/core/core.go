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
	"fmt"
	"math"

	"swsketch/internal/mat"
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

// checkRowFinite panics when a row contains NaN or ±Inf. Every sketch
// calls it on ingest: a single non-finite value would otherwise poison
// Gram accumulations, FD shrinks, and priority draws silently, and the
// corruption only surfaces queries later — fail loudly at the source
// instead.
func checkRowFinite(algo string, row []float64) {
	for i, v := range row {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			panic(fmt.Sprintf("core: %s row has non-finite value %v at index %d", algo, v, i))
		}
	}
}

// validateBatch performs the up-front checks shared by every windowed
// UpdateBatch: validateRows, plus timestamps that never step back,
// from the sketch's own clock (lastT, once seen) on. It panics before
// any row reaches the sketch, so a rejected batch changes nothing.
func validateBatch(algo string, rows [][]float64, times []float64, d int, lastT float64, seen bool) {
	validateRows(algo, rows, times, d)
	for _, t := range times {
		if seen && t < lastT {
			panic(fmt.Sprintf("core: %s timestamp %v precedes %v", algo, t, lastT))
		}
		lastT, seen = t, true
	}
}

// checkBatchNorms is the norm-bounded frameworks' (DI, DS-FD) addition
// to validateBatch: with a declared R > 0, every row's squared norm
// must stay within R·slack, the bound their per-row ingest enforces.
func checkBatchNorms(algo string, rows [][]float64, r, slack float64) {
	for _, row := range rows {
		if r > 0 && rowSqNorm(row) > r*slack {
			panic(fmt.Sprintf("core: %s row squared norm %v exceeds declared R=%v", algo, rowSqNorm(row), r))
		}
	}
}

// validateRows checks a batch's shape: matching slice lengths, row
// dimension, and finiteness.
func validateRows(algo string, rows [][]float64, times []float64, d int) {
	if len(rows) != len(times) {
		panic(fmt.Sprintf("core: %s batch has %d rows but %d timestamps", algo, len(rows), len(times)))
	}
	for i, r := range rows {
		if len(r) != d {
			panic(fmt.Sprintf("core: %s batch row %d length %d, want %d", algo, i, len(r), d))
		}
		checkRowFinite(algo, r)
	}
}

// Introspector is implemented by sketches that expose their internal
// state as a flat name → value map for operational monitoring: queue
// depths, level occupancy, shrink counts, tracker sizes. Keys are
// stable lower_snake_case identifiers; values are gauges sampled at
// call time. Stats must return a fresh map (callers may mutate it) and
// must not modify sketch state beyond what a read does. All of the
// paper's sketches (SWR, SWOR, LM, DI) implement it, as do the
// Concurrent wrapper and obs.Instrumented by delegation.
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
// LM and DI exploit sparsity end-to-end; the samplers densify on
// candidate admission (their answers are rows of A, stored dense) but
// still skip the O(d) norm scan.
type SparseUpdater interface {
	WindowSketch
	UpdateSparse(row mat.SparseRow, t float64)
}
