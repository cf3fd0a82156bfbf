// Package window provides the sliding-window substrate shared by the
// sketching algorithms and the evaluation harness: window
// specifications (sequence-based and time-based), an exact window
// buffer with incremental Gram maintenance (the ground truth against
// which covariance error is measured), and Frobenius-mass trackers
// (exact and exponential-histogram approximate) used by the samplers
// for rescaling.
package window

import (
	"fmt"
	"math"

	"swsketch/internal/binenc"
	"swsketch/internal/eh"
	"swsketch/internal/mat"
	"swsketch/internal/trace"
)

// Kind distinguishes the two window models of the paper.
type Kind int

const (
	// Sequence windows contain the N most recent rows; the "timestamp"
	// of row i is its stream index.
	Sequence Kind = iota
	// Time windows contain all rows with timestamps in (t−Δ, t].
	Time
)

// String returns the canonical lowercase name of the window kind.
func (k Kind) String() string {
	switch k {
	case Sequence:
		return "sequence"
	case Time:
		return "time"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Spec describes a sliding window. For Sequence windows Size is the
// row count N; for Time windows Size is the span Δ in timestamp units.
type Spec struct {
	Kind Kind
	Size float64
}

// Seq returns a sequence-based window of the most recent n rows. It
// panics unless n ≥ 1.
func Seq(n int) Spec { return Spec{Kind: Sequence, Size: float64(n)}.must() }

// TimeSpan returns a time-based window of span delta. It panics unless
// delta is positive and finite.
func TimeSpan(delta float64) Spec { return Spec{Kind: Time, Size: delta}.must() }

// Check is the one statement of a window's limits: a positive integer
// row count or a positive finite span. Seq and TimeSpan panic with its
// error, and the snapshot decoders return it.
func (s Spec) Check() error {
	switch s.Kind {
	case Sequence:
		if !(s.Size >= 1) || s.Size != math.Trunc(s.Size) || math.IsInf(s.Size, 0) {
			return fmt.Errorf("window: sequence window size must be positive and an integer row count, got %v", s.Size)
		}
	case Time:
		if !(s.Size > 0) || math.IsInf(s.Size, 0) {
			return fmt.Errorf("window: time window span must be positive and finite, got %v", s.Size)
		}
	default:
		return fmt.Errorf("window: unknown window kind %d", int(s.Kind))
	}
	return nil
}

// must panics with Check's error unless the spec is valid.
func (s Spec) must() Spec {
	if err := s.Check(); err != nil {
		panic(err)
	}
	return s
}

// Cutoff returns the expiry threshold at current time t: rows with
// timestamp ≤ cutoff are outside the window (t−Δ, t]. For sequence
// windows, t is the index of the most recent row (0-based) and rows
// with index ≤ t−N expire.
func (s Spec) Cutoff(t float64) float64 { return t - s.Size }

// String renders the spec.
func (s Spec) String() string { return fmt.Sprintf("%v(%g)", s.Kind, s.Size) }

// timedRow is a buffered row with its timestamp.
type timedRow struct {
	t   float64
	row []float64
}

// Exact maintains the window contents exactly: the rows, the Gram
// matrix AᵀA (updated incrementally on arrival and expiry), and
// ‖A‖²_F. It is the reference oracle used to compute covariance error
// in tests and the evaluation harness, and the backing store of the
// BEST(offline) baseline.
type Exact struct {
	spec  Spec
	d     int
	rows  []timedRow // FIFO, oldest first
	gram  *mat.Dense
	froSq float64
	lastT float64
	seen  bool
}

// NewExact returns an exact window tracker for dimension d.
func NewExact(spec Spec, d int) *Exact {
	if d < 1 {
		panic(fmt.Sprintf("window: dimension %d", d))
	}
	return &Exact{spec: spec, d: d, gram: mat.NewDense(d, d)}
}

// Update inserts a row at timestamp t and expires old rows. Timestamps
// must be non-decreasing. The row is copied.
func (e *Exact) Update(row []float64, t float64) {
	if len(row) != e.d {
		panic(fmt.Sprintf("window: row length %d, want %d", len(row), e.d))
	}
	if e.seen && t < e.lastT {
		panic(fmt.Sprintf("window: timestamp %v precedes %v", t, e.lastT))
	}
	e.lastT, e.seen = t, true

	r := make([]float64, e.d)
	copy(r, row)
	e.rows = append(e.rows, timedRow{t: t, row: r})
	mat.AddOuterTo(e.gram, r, 1)
	e.froSq += mat.SqNorm(r)
	e.expire(t)
}

// UpdateBatch inserts rows arriving at the corresponding timestamps,
// in order, running the expiry scan once at the end of the batch
// instead of once per row. The final state is identical to repeated
// Update calls (expiry is a monotone FIFO trim), but a batch costs one
// pass over the expired prefix rather than len(rows).
func (e *Exact) UpdateBatch(rows [][]float64, times []float64) {
	if len(rows) != len(times) {
		panic(fmt.Sprintf("window: batch of %d rows but %d timestamps", len(rows), len(times)))
	}
	for i, row := range rows {
		if len(row) != e.d {
			panic(fmt.Sprintf("window: batch row %d length %d, want %d", i, len(row), e.d))
		}
		t := times[i]
		if e.seen && t < e.lastT {
			panic(fmt.Sprintf("window: timestamp %v precedes %v", t, e.lastT))
		}
		e.lastT, e.seen = t, true
		r := make([]float64, e.d)
		copy(r, row)
		e.rows = append(e.rows, timedRow{t: t, row: r})
		mat.AddOuterTo(e.gram, r, 1)
		e.froSq += mat.SqNorm(r)
	}
	if len(rows) > 0 {
		e.expire(e.lastT)
	}
}

// Advance expires rows without inserting (time moved forward with no
// arrival). Only meaningful for time-based windows.
func (e *Exact) Advance(t float64) {
	if e.seen && t < e.lastT {
		panic(fmt.Sprintf("window: timestamp %v precedes %v", t, e.lastT))
	}
	e.lastT, e.seen = t, true
	e.expire(t)
}

func (e *Exact) expire(t float64) {
	cutoff := e.spec.Cutoff(t)
	drop := 0
	for drop < len(e.rows) && e.rows[drop].t <= cutoff {
		mat.AddOuterTo(e.gram, e.rows[drop].row, -1)
		e.froSq -= mat.SqNorm(e.rows[drop].row)
		drop++
	}
	if drop > 0 {
		e.rows = e.rows[drop:]
		if e.froSq < 0 {
			e.froSq = 0 // guard against round-off drift
		}
	}
}

// Len reports the number of rows currently in the window.
func (e *Exact) Len() int { return len(e.rows) }

// Dim reports the row dimension d.
func (e *Exact) Dim() int { return e.d }

// Gram returns a copy of the exact AᵀA of the window.
func (e *Exact) Gram() *mat.Dense { return e.gram.Clone() }

// FroSq returns the exact ‖A‖²_F of the window.
func (e *Exact) FroSq() float64 { return e.froSq }

// Matrix materialises the window contents as a matrix (oldest row
// first). The result is a copy.
func (e *Exact) Matrix() *mat.Dense {
	out := mat.NewDense(len(e.rows), e.d)
	for i, tr := range e.rows {
		copy(out.Row(i), tr.row)
	}
	return out
}

// CovaErr computes the paper's covariance error of an approximation b
// against the current window, using a freshly recomputed Gram matrix
// to avoid accumulation drift in long runs.
func (e *Exact) CovaErr(b *mat.Dense) float64 {
	g := mat.NewDense(e.d, e.d)
	var fro float64
	for _, tr := range e.rows {
		mat.AddOuterTo(g, tr.row, 1)
		fro += mat.SqNorm(tr.row)
	}
	return mat.CovarianceError(g, fro, b)
}

// CrossGram returns the exact cross product AᵀB of the window under
// the stacked-row convention used by the paired (AMM) sketches: each
// stored row is [a|b] with a = row[:dA] and b = row[dA:]. The result
// is dA×(d−dA), recomputed fresh from the stored rows (like CovaErr)
// to avoid accumulation drift. Panics unless 0 < dA < d.
func (e *Exact) CrossGram(dA int) *mat.Dense {
	if dA < 1 || dA >= e.d {
		panic(fmt.Sprintf("window: CrossGram split %d outside (0,%d)", dA, e.d))
	}
	dB := e.d - dA
	p := mat.NewDense(dA, dB)
	for _, tr := range e.rows {
		a, b := tr.row[:dA], tr.row[dA:]
		for i, av := range a {
			if av == 0 {
				continue
			}
			pr := p.Row(i)
			for j, bv := range b {
				pr[j] += av * bv
			}
		}
	}
	return p
}

// SplitFroSq returns the exact squared Frobenius norms (‖A‖²_F, ‖B‖²_F)
// of the window's two sides under the stacked-row convention.
func (e *Exact) SplitFroSq(dA int) (float64, float64) {
	if dA < 1 || dA >= e.d {
		panic(fmt.Sprintf("window: SplitFroSq split %d outside (0,%d)", dA, e.d))
	}
	var froA, froB float64
	for _, tr := range e.rows {
		froA += mat.SqNorm(tr.row[:dA])
		froB += mat.SqNorm(tr.row[dA:])
	}
	return froA, froB
}

// AmmErr computes the paired-stream correlation error of an AᵀB
// estimate p against the current window:
//
//	‖AᵀB − p‖₂ / (‖A‖_F·‖B‖_F)
//
// — the AMM analogue of the covariance error, and the metric the
// paper's AMM bound is stated in. When either side of the window is
// all-zero (denominator 0) the error is 0 for an (exactly correct)
// zero estimate and +Inf otherwise.
func (e *Exact) AmmErr(dA int, p *mat.Dense) float64 {
	exact := e.CrossGram(dA)
	if p.Rows() != exact.Rows() || p.Cols() != exact.Cols() {
		panic(fmt.Sprintf("window: AmmErr estimate is %dx%d, want %dx%d",
			p.Rows(), p.Cols(), exact.Rows(), exact.Cols()))
	}
	ed, pd := exact.Data(), p.Data()
	for i := range ed {
		ed[i] -= pd[i]
	}
	num := mat.SpectralNorm(exact)
	froA, froB := e.SplitFroSq(dA)
	denom := math.Sqrt(froA) * math.Sqrt(froB)
	if denom == 0 {
		if num == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return num / denom
}

// NormTracker approximates ‖A‖²_F over the sliding window. The
// samplers use it for rescaling; it abstracts over the exact
// per-row-norm ring buffer (the paper's practical remark) and the
// exponential histogram (the paper's sub-linear option).
type NormTracker interface {
	// Add records a row's squared norm at timestamp t.
	Add(t, sqNorm float64)
	// AddBatch records a run of squared norms at non-decreasing
	// timestamps, letting the tracker amortise per-item maintenance
	// (the EH tracker canonicalizes once per batch). The estimate
	// guarantee matches repeated Add calls.
	AddBatch(ts, sqNorms []float64)
	// FroSq estimates ‖A‖²_F for the window ending at time t.
	FroSq(t float64) float64
	// Size reports the tracker's space usage in stored scalars.
	Size() int
}

// ExactNorms stores one float per live row: exact, O(window) scalars
// (but not O(window·d), which is the point).
type ExactNorms struct {
	spec  Spec
	items []struct{ t, w float64 }
	sum   float64
}

// NewExactNorms returns an exact Frobenius-mass tracker.
func NewExactNorms(spec Spec) *ExactNorms { return &ExactNorms{spec: spec} }

// Add records a squared norm.
func (x *ExactNorms) Add(t, sqNorm float64) {
	x.items = append(x.items, struct{ t, w float64 }{t, sqNorm})
	x.sum += sqNorm
}

// AddBatch records a run of squared norms.
func (x *ExactNorms) AddBatch(ts, sqNorms []float64) {
	if len(ts) != len(sqNorms) {
		panic(fmt.Sprintf("window: norm batch of %d timestamps but %d norms", len(ts), len(sqNorms)))
	}
	for i, w := range sqNorms {
		x.items = append(x.items, struct{ t, w float64 }{ts[i], w})
		x.sum += w
	}
}

// FroSq returns the exact windowed mass.
func (x *ExactNorms) FroSq(t float64) float64 {
	cutoff := x.spec.Cutoff(t)
	drop := 0
	for drop < len(x.items) && x.items[drop].t <= cutoff {
		x.sum -= x.items[drop].w
		drop++
	}
	if drop > 0 {
		x.items = x.items[drop:]
		if x.sum < 0 {
			x.sum = 0
		}
	}
	return x.sum
}

// Size reports the number of stored norms.
func (x *ExactNorms) Size() int { return len(x.items) }

// EHNorms tracks ‖A‖²_F with an exponential histogram in O(k·log NR)
// space and relative error ≈ 1/k.
type EHNorms struct {
	spec Spec
	h    *eh.Histogram
}

// NewEHNorms returns an EH-backed tracker with relative error ≈ eps.
func NewEHNorms(spec Spec, eps float64) *EHNorms {
	return &EHNorms{spec: spec, h: eh.NewForError(eps)}
}

// Add records a squared norm.
func (x *EHNorms) Add(t, sqNorm float64) { x.h.Add(t, sqNorm) }

// AddBatch records a run of squared norms with one histogram
// canonicalization for the whole run.
func (x *EHNorms) AddBatch(ts, sqNorms []float64) { x.h.AddBatch(ts, sqNorms) }

// FroSq estimates the windowed mass.
func (x *EHNorms) FroSq(t float64) float64 { return x.h.Estimate(x.spec.Cutoff(t)) }

// Size reports the bucket count.
func (x *EHNorms) Size() int { return x.h.Buckets() }

// Stats exposes the underlying exponential histogram's internals
// (bucket count, size classes, items, running total) so sketches using
// the EH tracker can surface them via core.Introspector.
func (x *EHNorms) Stats() map[string]float64 { return x.h.Stats() }

// SetTracer attaches a tracer to the underlying histogram, whose
// bucket merges then emit eh_merge events.
func (x *EHNorms) SetTracer(tr *trace.Tracer) { x.h.SetTracer(tr) }

var (
	_ NormTracker = (*ExactNorms)(nil)
	_ NormTracker = (*EHNorms)(nil)
)

// MarshalBinary snapshots the tracker (spec plus live items).
func (x *ExactNorms) MarshalBinary() ([]byte, error) {
	w := binenc.NewWriter()
	w.Int(int(x.spec.Kind))
	w.F64(x.spec.Size)
	w.Int(len(x.items))
	for _, it := range x.items {
		w.F64(it.t)
		w.F64(it.w)
	}
	return w.Bytes(), nil
}

// UnmarshalBinary restores a MarshalBinary snapshot into the receiver.
func (x *ExactNorms) UnmarshalBinary(data []byte) error {
	r := binenc.NewReader(data)
	kind := Kind(r.Int())
	size := r.F64()
	n := r.Count(r.Int(), 16) // each item is a (t, w) pair
	if err := r.Err(); err != nil {
		return fmt.Errorf("window: norms snapshot: %w", err)
	}
	if kind != Sequence && kind != Time {
		return fmt.Errorf("window: norms snapshot has bad kind %d", int(kind))
	}
	if size <= 0 {
		return fmt.Errorf("window: norms snapshot has bad size %v", size)
	}
	restored := ExactNorms{spec: Spec{Kind: kind, Size: size}}
	restored.items = make([]struct{ t, w float64 }, 0, n)
	for i := 0; i < n; i++ {
		t := r.F64()
		w := r.F64()
		restored.items = append(restored.items, struct{ t, w float64 }{t, w})
		restored.sum += w
	}
	if err := r.End(); err != nil {
		return fmt.Errorf("window: norms snapshot: %w", err)
	}
	*x = restored
	return nil
}
