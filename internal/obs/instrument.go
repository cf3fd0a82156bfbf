package obs

import "time"

// SketchMetrics is one sketch algorithm's instrument set, labelled
// algo=<Name()>: ingest row and batch counters and update and query
// latency histograms. It is the one way to time a sketch call: read
// Start before an UpdateBatch or a Query, then record the call with
// ObserveBatch or ObserveQuery, as the server's apply and read steps
// do. On a nil set the methods do nothing and Start reads no clock: a
// caller with metrics off passes nil.
type SketchMetrics struct {
	Rows, Batches *Counter   // rows ingested; UpdateBatch calls
	Update, Query *Histogram // seconds per UpdateBatch call; per Query call
}

// NewSketchMetrics returns algo's instrument set in reg, registering it
// on first use.
func NewSketchMetrics(reg *Registry, algo string) *SketchMetrics {
	l := Labels{"algo": algo}
	return &SketchMetrics{
		Rows:    reg.Counter("swsketch_ingest_rows_total", "Rows ingested into the sketch.", l),
		Batches: reg.Counter("swsketch_ingest_batches_total", "Bulk ingest calls (UpdateBatch).", l),
		Update:  reg.Histogram("swsketch_update_seconds", "Latency of one UpdateBatch call.", l, nil),
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
