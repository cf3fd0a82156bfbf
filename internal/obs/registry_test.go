package obs

import (
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", "Requests served.", Labels{"route": "/v1/ingest"})
	c.Add(3)
	g := r.Gauge("rows_stored", "Rows.", nil)
	g.Set(42.5)
	r.GaugeFunc("temperature", "", nil, func() float64 { return -1.5 })

	out := r.Expose()
	for _, want := range []string{
		"# HELP requests_total Requests served.",
		"# TYPE requests_total counter",
		`requests_total{route="/v1/ingest"} 3`,
		"# TYPE rows_stored gauge",
		"rows_stored 42.5",
		"temperature -1.5",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestRegistrationIsIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("c_total", "", nil)
	b := r.Counter("c_total", "", nil)
	if a != b {
		t.Fatal("same name+labels returned distinct counters")
	}
	if h1, h2 := r.Histogram("h", "", nil, nil), r.Histogram("h", "", nil, nil); h1 != h2 {
		t.Fatal("same name+labels returned distinct histograms")
	}
	// Distinct labels get distinct instruments under one family.
	c2 := r.Counter("c_total", "", Labels{"algo": "SWR"})
	if a == c2 {
		t.Fatal("distinct labels shared a counter")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "", nil)
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("m", "", nil)
}

func TestInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	for _, bad := range []string{"", "1abc", "has space", "dash-ed"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("name %q accepted", bad)
				}
			}()
			r.Counter(bad, "", nil)
		}()
	}
}

func TestHistogramBucketsAndSum(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "Latency.", nil, []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("count = %d", h.Count())
	}
	if got := h.Sum(); got < 5.55 || got > 5.56 {
		t.Fatalf("sum = %v", got)
	}
	out := r.Expose()
	for _, want := range []string{
		`lat_seconds_bucket{le="0.01"} 1`,
		`lat_seconds_bucket{le="0.1"} 2`,
		`lat_seconds_bucket{le="1"} 3`,
		`lat_seconds_bucket{le="+Inf"} 4`,
		"lat_seconds_sum 5.555",
		"lat_seconds_count 4",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestGaugeSetRendersSortedWithLabels(t *testing.T) {
	r := NewRegistry()
	r.GaugeSet("internal", "Sketch internals.", "stat", Labels{"algo": "LM-FD"},
		func() map[string]float64 { return map[string]float64{"levels": 3, "blocks": 7} })
	out := r.Expose()
	bi := strings.Index(out, `internal{algo="LM-FD",stat="blocks"} 7`)
	li := strings.Index(out, `internal{algo="LM-FD",stat="levels"} 3`)
	if bi < 0 || li < 0 || bi > li {
		t.Fatalf("gauge set not rendered sorted:\n%s", out)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", "", Labels{"v": "a\"b\\c\nd"}).Inc()
	out := r.Expose()
	if !strings.Contains(out, `esc_total{v="a\"b\\c\nd"} 1`) {
		t.Fatalf("label not escaped:\n%s", out)
	}
}

func TestHandlerServesText(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits_total", "", nil).Inc()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	body, _ := io.ReadAll(rec.Body)
	if !strings.Contains(string(body), "hits_total 1") {
		t.Fatalf("body:\n%s", body)
	}
}

func TestConcurrentObservations(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n_total", "", nil)
	h := r.Histogram("lat", "", nil, nil)
	g := r.Gauge("lvl", "", nil)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(1e-5)
				g.Add(1)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 || h.Count() != 8000 || g.Value() != 8000 {
		t.Fatalf("lost updates: c=%d h=%d g=%v", c.Value(), h.Count(), g.Value())
	}
}

// TestScrapeDuringRegistration scrapes while other goroutines register
// new series in the scraped families, as the server does on a
// framework's first use; run under -race it pins that the exposition
// reads a snapshot of each family's series.
func TestScrapeDuringRegistration(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("swsketch_probe_total", "Probe.", Labels{"algo": "A"})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				reg.Counter("swsketch_probe_total", "Probe.", Labels{"algo": strings.Repeat("x", g*50+i+1)}).Inc()
			}
		}(g)
	}
	for i := 0; i < 50; i++ {
		_ = reg.Expose()
	}
	wg.Wait()
	if n := strings.Count(reg.Expose(), "swsketch_probe_total{"); n != 201 {
		t.Fatalf("exposition holds %d series, want 201", n)
	}
}
