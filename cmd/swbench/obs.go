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

	fmt.Fprintf(out, "obs overhead (n=%d rows, d=%d, window=%d, batch=%d, median of %d paired trials)\n",
		n, d, win, batchSize, obsTrials)
	fmt.Fprintf(out, "%-8s %-6s %12s %12s %10s %12s %10s\n",
		"algo", "path", "bare ns/row", "inst ns/row", "overhead", "traced-off", "overhead")
	for _, a := range algos {
		for _, ingestPath := range []string{"row", "batch"} {
			// Bare, instrumented, and traced-off runs alternate back to
			// back, so each trial's ratios are paired measurements sharing
			// frequency and cache state; the median ratio discards outlier
			// trials that a min-of-each estimator cannot.
			bares := make([]float64, obsTrials)
			instRatios := make([]float64, obsTrials)
			trRatios := make([]float64, obsTrials)
			for trial := range bares {
				b := ingestNs(a.mk(), nil, rows, times, ingestPath, batchSize)
				if ingestPath == "batch" {
					m := obs.NewSketchMetrics(obs.NewRegistry(), a.name)
					instRatios[trial] = ingestNs(a.mk(), m, rows, times, ingestPath, batchSize) / b
				}
				trRatios[trial] = ingestNs(mkTraced(a.mk), nil, rows, times, ingestPath, batchSize) / b
				bares[trial] = b
			}
			sort.Float64s(bares)
			sort.Float64s(instRatios)
			sort.Float64s(trRatios)
			addObsRow(out, art, a.name, ingestPath, bares[obsTrials/2],
				instRatios[obsTrials/2], trRatios[obsTrials/2])
		}
	}

	// The serving path end to end: the /v2 binary stream against a
	// bare server, one carrying the full metrics + hot-key sidecar
	// stack, and one with a disabled tracer attached. This is the
	// number the row/batch microbenchmarks above approximate from
	// below — it includes HTTP framing, the registry touch hook, and
	// the ingest funnel's sidecar calls.
	bare, instRatio, trRatio, err := obsStream(sc)
	if err != nil {
		return err
	}
	addObsRow(out, art, "LM-FD", "stream", bare, instRatio, trRatio)
	return nil
}

// addObsRow records one algorithm and path: the bare cost per row and
// the median paired ratios of the instrumented and traced-off runs to
// it. An instRatio of 0 means the path is not instrumented, and the
// row carries no instrumented column.
func addObsRow(out io.Writer, art *bench.Artifact, algo, path string, bare, instRatio, trRatio float64) {
	m := map[string]float64{
		"bare_ns_per_row":              bare,
		"traced_disabled_ns_per_row":   bare * trRatio,
		"traced_disabled_overhead_pct": 100 * (trRatio - 1),
	}
	inst, instPct := "-", "-"
	if instRatio > 0 {
		m["instrumented_ns_per_row"] = bare * instRatio
		m["instrumented_overhead_pct"] = 100 * (instRatio - 1)
		inst = fmt.Sprintf("%.1f", m["instrumented_ns_per_row"])
		instPct = fmt.Sprintf("%.2f%%", m["instrumented_overhead_pct"])
	}
	art.Add(map[string]string{"algo": algo, "path": path}, m)
	fmt.Fprintf(out, "%-8s %-6s %12.1f %12s %10s %12.1f %9.2f%%\n",
		algo, path, bare, inst, instPct,
		m["traced_disabled_ns_per_row"], m["traced_disabled_overhead_pct"])
}

// obsStream measures the /v2 binary-stream ingest path three ways:
// bare, instrumented (WithMetrics + the hot-key sidecar — the full
// production observability stack), and with a disabled tracer. Each
// trial drives the same Zipf fleet through all three servers back to
// back; it returns the median bare ns per row and the median paired
// ratios, as in the microbenchmarks above.
func obsStream(sc scaleCfg) (bareNs, instRatio, trRatio float64, err error) {
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
		return 0, 0, 0, err
	}
	defer bare.srv.Close()
	inst, err := mk(serve.WithMetrics(obs.NewRegistry()),
		serve.WithHotKeys(hh.New(hh.Config{Window: 10 * time.Minute})))
	if err != nil {
		return 0, 0, 0, err
	}
	defer inst.srv.Close()
	trSrv, err := mk(serve.WithTrace(trace.New(1024))) // attached, never enabled
	if err != nil {
		return 0, 0, 0, err
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

	bares := make([]float64, obsTrials)
	instRatios := make([]float64, obsTrials)
	trRatios := make([]float64, obsTrials)
	for trial := range bares {
		b, err := rate(bare)
		if err != nil {
			return 0, 0, 0, err
		}
		w, err := rate(inst)
		if err != nil {
			return 0, 0, 0, err
		}
		tr, err := rate(trSrv)
		if err != nil {
			return 0, 0, 0, err
		}
		bares[trial] = b
		instRatios[trial] = w / b
		trRatios[trial] = tr / b
	}
	sort.Float64s(bares)
	sort.Float64s(instRatios)
	sort.Float64s(trRatios)
	return bares[obsTrials/2], instRatios[obsTrials/2], trRatios[obsTrials/2], nil
}

// obsTrials is the per-configuration repeat count; odd, so the median
// is a single trial's paired ratio.
const obsTrials = 5

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
