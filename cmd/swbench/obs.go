package main

import (
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"time"

	"swsketch/internal/bench"
	"swsketch/internal/core"
	"swsketch/internal/load"
	"swsketch/internal/obs"
	"swsketch/internal/obs/hh"
	"swsketch/internal/serve"
	"swsketch/internal/trace"
	"swsketch/internal/window"
)

// runObs measures the overhead of the observability stack. Each
// algorithm ingests the same synthetic stream over the per-row Update
// path and the UpdateBatch path (the serve and swstream default):
// bare, with a disabled tracer attached, and — on the batch path —
// with each UpdateBatch timed through obs.SketchMetrics, as the
// server's apply step times every tenant's. Nothing times the per-row
// path, so its rows carry no instrumented column. The "stream" row is
// the /v2 binary stream end to end, where "instrumented" is the full
// metrics + hot-key sidecar stack. The reported overheads justify —
// or veto — leaving -metrics and -trace on in production; the
// acceptance bar is that a disabled tracer costs < 5%.
func runObs(out io.Writer, sc scaleCfg, art *bench.Artifact) error {
	n := sc.seqN
	if n > 50000 {
		n = 50000
	}
	d := 32
	win := sc.win
	const batchSize = 256

	rng := rand.New(rand.NewSource(sc.seed))
	rows := make([][]float64, n)
	for i := range rows {
		r := make([]float64, d)
		for j := range r {
			r[j] = rng.NormFloat64()
		}
		rows[i] = r
	}
	times := make([]float64, n)
	for i := range times {
		times[i] = float64(i)
	}

	algos := []struct {
		name string
		mk   func() core.WindowSketch
	}{
		{"SWR", func() core.WindowSketch { return core.NewSWR(window.Seq(win), 16, d, sc.seed) }},
		{"SWOR", func() core.WindowSketch { return core.NewSWOR(window.Seq(win), 16, d, sc.seed) }},
		{"LM-FD", func() core.WindowSketch { return core.NewLMFD(window.Seq(win), d, 16, 8) }},
		{"DI-FD", func() core.WindowSketch {
			return core.NewDIFD(core.DIConfig{N: win, R: rowNormBound(rows), L: 6, Ell: 16, RSlack: 1.01}, d)
		}},
	}

	mkTraced := func(mk func() core.WindowSketch) core.WindowSketch {
		sk := mk()
		if t, ok := sk.(trace.Traceable); ok {
			t.SetTracer(trace.New(1024)) // attached but never enabled
		}
		return sk
	}

	fmt.Fprintf(out, "obs overhead (n=%d rows, d=%d, window=%d, batch=%d, %d trials in rotating order; overheads median [p25, p75])\n",
		n, d, win, batchSize, obsTrials)
	fmt.Fprintf(out, "%-8s %-6s %12s %12s %24s %12s %24s\n",
		"algo", "path", "bare ns/row", "inst ns/row", "overhead", "traced-off", "overhead")
	for _, a := range algos {
		for _, ingestPath := range []string{"row", "batch"} {
			run := func(sk core.WindowSketch, m *obs.SketchMetrics) func() (float64, error) {
				return func() (float64, error) {
					return ingestNs(sk, m, rows, times, ingestPath, batchSize), nil
				}
			}
			// Each trial builds fresh sketches and runs the variants back
			// to back, bare first in the list.
			res, err := rotated(func() []func() (float64, error) {
				vs := []func() (float64, error){run(a.mk(), nil), run(mkTraced(a.mk), nil)}
				if ingestPath == "batch" {
					vs = append(vs, run(a.mk(), obs.NewSketchMetrics(obs.NewRegistry(), a.name)))
				}
				return vs
			})
			if err != nil {
				return err
			}
			var inst overhead
			if ingestPath == "batch" {
				inst = ratios(res[2], res[0])
			}
			addObsRow(out, art, a.name, ingestPath, quantiles(res[0])[1], inst, ratios(res[1], res[0]))
		}
	}

	// The serving path end to end: the /v2 binary stream against a
	// bare server, one carrying the full metrics + hot-key sidecar
	// stack, and one with a disabled tracer attached. This is the
	// number the row/batch microbenchmarks above approximate from
	// below — it includes HTTP framing, the registry touch hook, and
	// the ingest funnel's sidecar calls.
	bare, inst, traced, err := obsStream(sc)
	if err != nil {
		return err
	}
	addObsRow(out, art, "LM-FD", "stream", bare, inst, traced)
	return nil
}

// overhead is a paired ratio's p25, median and p75 across trials; the
// zero value marks a path that is not instrumented.
type overhead [3]float64

// ratios returns the quantiles of the per-trial ratios of runs to bare.
func ratios(runs, bare []float64) overhead {
	r := make([]float64, len(runs))
	for i := range r {
		r[i] = runs[i] / bare[i]
	}
	return quantiles(r)
}

// quantiles returns the p25, median and p75 of xs.
func quantiles(xs []float64) overhead {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s) - 1
	return overhead{s[n/4], s[n/2], s[3*n/4]}
}

// rotated runs obsTrials trials. Each trial takes a fresh set of
// variants from mk, bare first, and runs each once, starting trial k at
// variant k mod len(variants), so that no variant always runs first or
// right after the same one. It returns each variant's ns per row per
// trial.
func rotated(mk func() []func() (float64, error)) ([][]float64, error) {
	var res [][]float64
	for trial := 0; trial < obsTrials; trial++ {
		vs := mk()
		if res == nil {
			res = make([][]float64, len(vs))
			for v := range res {
				res[v] = make([]float64, obsTrials)
			}
		}
		for k := range vs {
			v := (trial + k) % len(vs)
			ns, err := vs[v]()
			if err != nil {
				return nil, err
			}
			res[v][trial] = ns
		}
	}
	return res, nil
}

// addObsRow records one algorithm and path: the median bare cost per
// row and the quantiles of the paired instrumented and traced-off
// ratios to it. An inst of zero means the path is not instrumented,
// and the row carries no instrumented columns.
func addObsRow(out io.Writer, art *bench.Artifact, algo, path string, bare float64, inst, traced overhead) {
	m := map[string]float64{"bare_ns_per_row": bare}
	col := func(name string, o overhead) string {
		m[name+"_ns_per_row"] = bare * o[1]
		m[name+"_overhead_pct"] = 100 * (o[1] - 1)
		m[name+"_overhead_p25_pct"] = 100 * (o[0] - 1)
		m[name+"_overhead_p75_pct"] = 100 * (o[2] - 1)
		return fmt.Sprintf("%12.1f %24s", m[name+"_ns_per_row"], fmt.Sprintf("%.2f%% [%.2f, %.2f]",
			m[name+"_overhead_pct"], m[name+"_overhead_p25_pct"], m[name+"_overhead_p75_pct"]))
	}
	instCols := fmt.Sprintf("%12s %24s", "-", "-")
	if inst[1] > 0 {
		instCols = col("instrumented", inst)
	}
	tracedCols := col("traced_disabled", traced)
	art.Add(map[string]string{"algo": algo, "path": path}, m)
	fmt.Fprintf(out, "%-8s %-6s %12.1f %s %s\n", algo, path, bare, instCols, tracedCols)
}

// obsStream measures the /v2 binary-stream ingest path three ways:
// bare, instrumented (WithMetrics + the hot-key sidecar — the full
// production observability stack), and with a disabled tracer. Each
// trial drives the same Zipf fleet through all three servers back to
// back, in rotating order; it returns the median bare ns per row and
// the quantiles of the instrumented and traced-off paired ratios, as in
// the microbenchmarks above.
func obsStream(sc scaleCfg) (float64, overhead, overhead, error) {
	const d = 16
	rows := sc.seqN
	if rows < 20000 {
		rows = 20000
	}
	if rows > 100000 {
		rows = 100000
	}

	type target struct {
		base string
		srv  *http.Server
	}
	mk := func(opts ...serve.Option) (target, error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return target{}, err
		}
		srv, err := lmServer(d, opts...)
		if err != nil {
			return target{}, err
		}
		go func() { _ = srv.Serve(ln) }()
		return target{"http://" + ln.Addr().String(), srv}, nil
	}
	bare, err := mk()
	if err != nil {
		return 0, overhead{}, overhead{}, err
	}
	defer bare.srv.Close()
	inst, err := mk(serve.WithMetrics(obs.NewRegistry()),
		serve.WithHotKeys(hh.New(hh.Config{Window: 10 * time.Minute})))
	if err != nil {
		return 0, overhead{}, overhead{}, err
	}
	defer inst.srv.Close()
	trSrv, err := mk(serve.WithTrace(trace.New(1024))) // attached, never enabled
	if err != nil {
		return 0, overhead{}, overhead{}, err
	}
	defer trSrv.srv.Close()

	rate := func(t target) (float64, error) {
		res, err := load.Run(load.Config{
			BaseURL: t.base, Mode: load.ModeFrames, Tenants: 256, D: d,
			Window: 1024, Rows: rows, Batch: 256, Workers: 2,
			ZipfS: 1.2, Seed: sc.seed,
		})
		if err != nil {
			return 0, err
		}
		if res.Errors > 0 {
			return 0, fmt.Errorf("stream path: %d failed blocks", res.Errors)
		}
		return 1e9 / res.RowsPerSec, nil // ns per row
	}

	res, err := rotated(func() []func() (float64, error) {
		return []func() (float64, error){
			func() (float64, error) { return rate(bare) },
			func() (float64, error) { return rate(trSrv) },
			func() (float64, error) { return rate(inst) },
		}
	})
	if err != nil {
		return 0, overhead{}, overhead{}, err
	}
	return quantiles(res[0])[1], ratios(res[2], res[0]), ratios(res[1], res[0]), nil
}

// obsTrials is the per-configuration repeat count: enough trials for
// the p25–p75 range of an overhead to resolve a few percent on a noisy
// host, and odd, so the median is a single trial's paired ratio.
const obsTrials = 21

// rowNormBound returns the max squared row norm (the DI declared R).
func rowNormBound(rows [][]float64) float64 {
	var max float64
	for _, r := range rows {
		var s float64
		for _, v := range r {
			s += v * v
		}
		if s > max {
			max = s
		}
	}
	return max * 1.001
}

// ingestNs streams rows through sk and returns mean ns per row. On
// the batch path a non-nil m times each UpdateBatch, as the server's
// apply step does.
func ingestNs(sk core.WindowSketch, m *obs.SketchMetrics, rows [][]float64, times []float64, path string, batchSize int) float64 {
	runtime.GC() // keep collector pauses out of the timed region
	start := time.Now()
	if path == "row" {
		for i, r := range rows {
			sk.Update(r, times[i])
		}
	} else {
		for i := 0; i < len(rows); i += batchSize {
			j := i + batchSize
			if j > len(rows) {
				j = len(rows)
			}
			t0 := m.Start()
			sk.UpdateBatch(rows[i:j], times[i:j])
			m.ObserveBatch(t0, j-i)
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(len(rows))
}
