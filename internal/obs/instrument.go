package obs

import (
	"sync/atomic"
	"time"

	"swsketch/internal/core"
	"swsketch/internal/mat"
	"swsketch/internal/trace"
)

// SketchMetrics is one sketch algorithm's instrument set, labelled
// algo=<Name()>: ingest row and batch counters and update and query
// latency histograms, recorded by Instrumented and by the server's
// apply and read steps. On a nil set the methods do nothing and Start
// reads no clock: a caller with metrics off passes nil.
type SketchMetrics struct {
	Rows, Batches *Counter   // rows ingested; UpdateBatch calls
	Update, Query *Histogram // seconds per Update or UpdateBatch call; per Query call
}

// NewSketchMetrics returns algo's instrument set in reg, registering it
// on first use.
func NewSketchMetrics(reg *Registry, algo string) *SketchMetrics {
	l := Labels{"algo": algo}
	return &SketchMetrics{
		Rows:    reg.Counter("swsketch_ingest_rows_total", "Rows ingested into the sketch.", l),
		Batches: reg.Counter("swsketch_ingest_batches_total", "Bulk ingest calls (UpdateBatch).", l),
		Update:  reg.Histogram("swsketch_update_seconds", "Latency of one Update or UpdateBatch call.", l, nil),
		Query:   reg.Histogram("swsketch_query_seconds", "Latency of one Query call.", l, nil),
	}
}

// Start reads the clock, or returns the zero time on a nil set.
func (m *SketchMetrics) Start() time.Time {
	if m == nil {
		return time.Time{}
	}
	return time.Now()
}

// ObserveBatch records one UpdateBatch of n rows that began at start.
func (m *SketchMetrics) ObserveBatch(start time.Time, n int) {
	if m == nil {
		return
	}
	m.Update.Observe(time.Since(start).Seconds())
	m.Rows.Add(uint64(n))
	m.Batches.Inc()
}

// ObserveQuery records one query that began at start.
func (m *SketchMetrics) ObserveQuery(start time.Time) {
	if m == nil {
		return
	}
	m.Query.Observe(time.Since(start).Seconds())
}

// RegisterInternals publishes a sketch's internals (stats, called at
// scrape time) as the swsketch_internal{algo,stat} gauge set.
func RegisterInternals(reg *Registry, algo string, stats func() map[string]float64) {
	reg.GaugeSet("swsketch_internal", "Sketch internals from core.Introspector.",
		"stat", Labels{"algo": algo}, stats)
}

// Instrumented decorates a core.WindowSketch with its algorithm's
// SketchMetrics, a rows-stored gauge and, for a core.Introspector, its
// internals. Every row is counted, but per-row update timings are
// sampled (every 16th row), as a clock read pair costs a fair share of
// a cheap sampler update; batches and queries are always timed. Scrape
// callbacks read the sketch directly, so the decorator is for one
// goroutine (swstream -stats, the library); the server times its
// tenants in its own steps.
type Instrumented struct {
	sk core.WindowSketch
	m  *SketchMetrics
	n  atomic.Uint64 // per-row timing sampled when (n-1)%16 == 0
}

// NewInstrumented wraps sk, registering its instruments in reg under
// the label algo=<sk.Name()>. The wrapped sketch must not be updated
// directly afterwards, or the metrics go stale.
func NewInstrumented(sk core.WindowSketch, reg *Registry) *Instrumented {
	i := &Instrumented{sk: sk, m: NewSketchMetrics(reg, sk.Name())}
	reg.GaugeFunc("swsketch_rows_stored", "Current sketch space usage in rows.",
		Labels{"algo": sk.Name()}, func() float64 { return float64(sk.RowsStored()) })
	if intro, ok := sk.(core.Introspector); ok {
		RegisterInternals(reg, sk.Name(), intro.Stats)
	}
	return i
}

// SetTracer forwards the tracer to the wrapped sketch.
func (i *Instrumented) SetTracer(tr *trace.Tracer) {
	if t, ok := i.sk.(trace.Traceable); ok {
		t.SetTracer(tr)
	}
}

// sampled counts one per-row update and reports whether to time it.
func (i *Instrumented) sampled() bool {
	i.m.Rows.Inc()
	return (i.n.Add(1)-1)%16 == 0
}

// Update implements core.WindowSketch. The timing is sampled; the row
// counter is exact.
func (i *Instrumented) Update(row []float64, t float64) {
	if !i.sampled() {
		i.sk.Update(row, t)
		return
	}
	start := time.Now()
	i.sk.Update(row, t)
	i.m.Update.Observe(time.Since(start).Seconds())
}

// UpdateBatch implements core.WindowSketch; the whole batch is one
// latency observation, so per-row overhead amortises to a few
// nanoseconds at serving batch sizes.
func (i *Instrumented) UpdateBatch(rows [][]float64, times []float64) {
	start := time.Now()
	i.sk.UpdateBatch(rows, times)
	i.m.ObserveBatch(start, len(rows))
}

// UpdateSparse forwards a sparse update, panicking like
// core.Concurrent when the underlying sketch has no sparse path.
func (i *Instrumented) UpdateSparse(row mat.SparseRow, t float64) {
	su, ok := i.sk.(core.SparseUpdater)
	if !ok {
		panic("obs: wrapped sketch does not support sparse updates")
	}
	if !i.sampled() {
		su.UpdateSparse(row, t)
		return
	}
	start := time.Now()
	su.UpdateSparse(row, t)
	i.m.Update.Observe(time.Since(start).Seconds())
}

// Query implements core.WindowSketch.
func (i *Instrumented) Query(t float64) *mat.Dense {
	start := time.Now()
	b := i.sk.Query(t)
	i.m.ObserveQuery(start)
	return b
}

// RowsStored implements core.WindowSketch.
func (i *Instrumented) RowsStored() int { return i.sk.RowsStored() }

// Name implements core.WindowSketch.
func (i *Instrumented) Name() string { return i.sk.Name() }

// Stats implements core.Introspector by delegation; wrapping a sketch
// without internals yields an empty map.
func (i *Instrumented) Stats() map[string]float64 {
	if intro, ok := i.sk.(core.Introspector); ok {
		return intro.Stats()
	}
	return map[string]float64{}
}

var (
	_ core.WindowSketch = (*Instrumented)(nil)
	_ core.Introspector = (*Instrumented)(nil)
)
