// Package obs is the stdlib-only observability layer: a low-overhead
// metrics registry (atomic counters, gauges, and fixed-bucket latency
// histograms) with Prometheus text exposition, plus the instrument
// set of a sketch algorithm (SketchMetrics), which the server's steps,
// swstream -stats and swbench obs record into.
//
// The registry is deliberately tiny compared to a real Prometheus
// client: metric families are identified by name, each family carries
// one TYPE and HELP line, and label sets are rendered in sorted key
// order. Registration is idempotent — asking for an existing
// name+label combination returns the existing instrument — so hot
// paths can cache instruments at construction time while request
// handlers may look them up lazily.
package obs

import (
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Labels is an immutable-by-convention label set attached to one
// instrument. A nil map means no labels.
type Labels map[string]string

// render returns the {k="v",...} suffix in sorted key order, or "".
func (l Labels) render() string {
	if len(l) == 0 {
		return ""
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l[k]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes backslash, double quote, and newline as required
// by the Prometheus text format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// escapeHelp escapes HELP text per the text format (version 0.0.4):
// backslash and newline only — double quotes stay literal.
func escapeHelp(v string) string {
	if !strings.ContainsAny(v, "\\\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(v)
}

// Counter is a monotonically increasing integer counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 value that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta with a CAS loop.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket cumulative histogram. Observations are
// two atomic adds plus a CAS on the sum — cheap enough to sit on the
// per-update hot path.
type Histogram struct {
	bounds  []float64 // ascending upper bounds; +Inf bucket is implicit
	counts  []atomic.Uint64
	sumBits atomic.Uint64
	count   atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Buckets are few (≤ ~20): linear scan beats binary search.
	for i, ub := range h.bounds {
		if v <= ub {
			h.counts[i].Add(1)
			break
		}
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// LatencyBuckets is the default bucket layout for operation latencies
// in seconds: 500ns up to 1s, roughly 2.5× apart.
var LatencyBuckets = []float64{
	5e-7, 1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4,
	5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1,
}

// metricKind tags a family for the TYPE line.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// series is one registered instrument within a family.
type series struct {
	labels string // rendered label suffix
	c      *Counter
	g      *Gauge
	gf     func() float64
	h      *Histogram
	// set produces a dynamic gauge group: each returned key becomes a
	// sample with setKey="<key>" appended to the series labels.
	set    func() map[string]float64
	setKey string
	rawLbl Labels
}

// family groups the series sharing a metric name.
type family struct {
	name   string
	help   string
	kind   metricKind
	series []*series
}

// Registry holds metric families and renders them in the Prometheus
// text exposition format. The zero value is not usable; call
// NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// lookup finds or creates a family, enforcing kind and name validity.
func (r *Registry) lookup(name, help string, kind metricKind) *family {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind}
		r.families[name] = f
		r.order = append(r.order, name)
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q re-registered as %v (was %v)", name, kind, f.kind))
	}
	return f
}

// find returns the existing series with the given label suffix, or nil.
func (f *family) find(lbl string) *series {
	for _, s := range f.series {
		if s.labels == lbl {
			return s
		}
	}
	return nil
}

// Counter returns the counter registered under name+labels, creating
// it on first use.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.lookup(name, help, kindCounter)
	lbl := labels.render()
	if s := f.find(lbl); s != nil {
		return s.c
	}
	s := &series{labels: lbl, c: &Counter{}, rawLbl: labels}
	f.series = append(f.series, s)
	return s.c
}

// Gauge returns the gauge registered under name+labels, creating it on
// first use.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.lookup(name, help, kindGauge)
	lbl := labels.render()
	if s := f.find(lbl); s != nil {
		return s.g
	}
	s := &series{labels: lbl, g: &Gauge{}, rawLbl: labels}
	f.series = append(f.series, s)
	return s.g
}

// GaugeFunc registers a gauge whose value is computed by fn at scrape
// time. Re-registering the same name+labels replaces the callback.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.lookup(name, help, kindGauge)
	lbl := labels.render()
	if s := f.find(lbl); s != nil {
		s.gf = fn
		return
	}
	f.series = append(f.series, &series{labels: lbl, gf: fn, rawLbl: labels})
}

// GaugeSet registers a dynamic gauge group: at scrape time fn is
// called and every (key, value) pair becomes one sample with the extra
// label key=<map key> appended to labels. It is the bridge from
// core.Introspector's map[string]float64 to the exposition format.
// Re-registering the same name+labels replaces the callback.
func (r *Registry) GaugeSet(name, help, key string, labels Labels, fn func() map[string]float64) {
	if !validName(key) {
		panic(fmt.Sprintf("obs: invalid label key %q", key))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.lookup(name, help, kindGauge)
	lbl := labels.render()
	if s := f.find(lbl); s != nil {
		s.set, s.setKey = fn, key
		return
	}
	f.series = append(f.series, &series{labels: lbl, set: fn, setKey: key, rawLbl: labels})
}

// Histogram returns the histogram registered under name+labels with
// the given ascending bucket upper bounds (LatencyBuckets when nil),
// creating it on first use.
func (r *Registry) Histogram(name, help string, labels Labels, buckets []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.lookup(name, help, kindHistogram)
	lbl := labels.render()
	if s := f.find(lbl); s != nil {
		return s.h
	}
	if buckets == nil {
		buckets = LatencyBuckets
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: histogram %q buckets not ascending at %d", name, i))
		}
	}
	h := &Histogram{bounds: buckets, counts: make([]atomic.Uint64, len(buckets))}
	f.series = append(f.series, &series{labels: lbl, h: h, rawLbl: labels})
	return h
}

// WritePrometheus renders every family in registration order using the
// text exposition format (version 0.0.4).
func (r *Registry) WritePrometheus(w *strings.Builder) {
	r.mu.Lock()
	// Snapshot the families and their series lists: scrape-time
	// callbacks run outside the registry lock (they may grab the
	// caller's own locks) while first-use registrations append.
	fams := make([]family, 0, len(r.order))
	for _, name := range r.order {
		fams = append(fams, *r.families[name])
	}
	r.mu.Unlock()

	for _, f := range fams {
		if f.help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range f.series {
			switch {
			case s.c != nil:
				fmt.Fprintf(w, "%s%s %s\n", f.name, s.labels, strconv.FormatUint(s.c.Value(), 10))
			case s.g != nil:
				fmt.Fprintf(w, "%s%s %s\n", f.name, s.labels, fmtFloat(s.g.Value()))
			case s.gf != nil:
				fmt.Fprintf(w, "%s%s %s\n", f.name, s.labels, fmtFloat(s.gf()))
			case s.set != nil:
				writeSet(w, f.name, s)
			case s.h != nil:
				writeHistogram(w, f.name, s)
			}
		}
	}
}

// writeSet renders a dynamic gauge group in sorted key order so the
// output is deterministic.
func writeSet(w *strings.Builder, name string, s *series) {
	vals := s.set()
	keys := make([]string, 0, len(vals))
	for k := range vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		lbl := Labels{s.setKey: k}
		for lk, lv := range s.rawLbl {
			lbl[lk] = lv
		}
		fmt.Fprintf(w, "%s%s %s\n", name, lbl.render(), fmtFloat(vals[k]))
	}
}

// writeHistogram renders the cumulative _bucket series plus _sum and
// _count.
func writeHistogram(w *strings.Builder, name string, s *series) {
	h := s.h
	cum := uint64(0)
	for i, ub := range h.bounds {
		cum += h.counts[i].Load()
		lbl := Labels{"le": fmtFloat(ub)}
		for lk, lv := range s.rawLbl {
			lbl[lk] = lv
		}
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, lbl.render(), cum)
	}
	lbl := Labels{"le": "+Inf"}
	for lk, lv := range s.rawLbl {
		lbl[lk] = lv
	}
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, lbl.render(), h.Count())
	fmt.Fprintf(w, "%s_sum%s %s\n", name, s.labels, fmtFloat(h.Sum()))
	fmt.Fprintf(w, "%s_count%s %d\n", name, s.labels, h.Count())
}

// Expose returns the full exposition as a string (for tests and CLI
// summaries).
func (r *Registry) Expose() string {
	var b strings.Builder
	r.WritePrometheus(&b)
	return b.String()
}

// Handler returns the GET /metrics endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = w.Write([]byte(r.Expose()))
	})
}

// fmtFloat renders a float the way Prometheus clients do: shortest
// round-trip representation, with +Inf/-Inf/NaN spelled out.
func fmtFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// validName reports whether s is a legal metric or label name:
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
