package obs

import (
	"strings"
	"testing"
)

// TestSketchMetricsRecords times two batches and a query through one
// algorithm's instrument set, looked up twice as the server's cache
// and swstream do, and reads the counts back from the exposition.
func TestSketchMetricsRecords(t *testing.T) {
	reg := NewRegistry()
	m := NewSketchMetrics(reg, "LM-FD")
	m.ObserveBatch(m.Start(), 32)
	again := NewSketchMetrics(reg, "LM-FD")
	again.ObserveBatch(again.Start(), 2)
	m.ObserveQuery(m.Start())

	out := reg.Expose()
	for _, want := range []string{
		`swsketch_ingest_rows_total{algo="LM-FD"} 34`,
		`swsketch_ingest_batches_total{algo="LM-FD"} 2`,
		`swsketch_update_seconds_count{algo="LM-FD"} 2`,
		`swsketch_query_seconds_count{algo="LM-FD"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestNilSketchMetrics checks that a nil instrument set — metrics off
// — reads no clock and records nothing.
func TestNilSketchMetrics(t *testing.T) {
	var m *SketchMetrics
	start := m.Start()
	if !start.IsZero() {
		t.Fatalf("nil set read the clock: %v", start)
	}
	m.ObserveBatch(start, 3)
	m.ObserveQuery(start)
}
