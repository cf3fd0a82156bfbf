// Command swstream streams a CSV of timestamped rows through a chosen
// sliding-window matrix sketch and periodically prints the window
// approximation's summary: sketch size, Frobenius mass, and the top
// singular values (the window's PCA spectrum). The input is processed
// one line at a time — memory stays proportional to the sketch, not
// the stream, which is the entire point of the sketches.
//
// Input format: each line is "timestamp,v1,...,vd" (the format written
// by swgen / the data package). For sequence-based windows the
// timestamp column is ignored and the row index is used instead.
//
// Usage:
//
//	swstream -algo lm-fd -window 1000 [-time] [-every 500] [-ell 24] [-fd-buffer 2] [-fd-alpha 0.5] [-stats] [-trace] [-audit] < stream.csv
//
// The paired AMM frameworks (lm-amm, di-amm) read the same CSV but
// treat each row as the stacked pair [a|b]: -d-b gives the width of
// the b suffix, and the sketch maintains a windowed estimate of AᵀB
// instead of AᵀA. The periodic summary then describes the stacked
// co-sketch [X|Y].
//
// With -stats the run ends with an instrumentation summary: rows and
// batches ingested, update/query latency totals, and the sketch's
// internal statistics (core.Introspector).
//
// With -trace an event tracer records the sketch's structural
// transitions (block closes, merges, shrinks, evictions) and the run
// ends with a per-kind event summary; -trace-out writes the full event
// ring as JSONL to a file.
//
// With -audit an exact shadow window runs alongside the sketch and the
// run ends with the audited covariance error — the paper's accuracy
// metric, measured live on this very stream (-audit-stride sets the
// evaluation cadence).
package main

import (
	"bufio"
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"sort"

	"swsketch/internal/core"
	"swsketch/internal/mat"
	"swsketch/internal/obs"
	"swsketch/internal/obs/audit"
	"swsketch/internal/registry"
	"swsketch/internal/trace"
	"swsketch/internal/window"
)

func main() {
	var (
		algo    = flag.String("algo", "lm-fd", "sketch: "+strings.Join(append(registry.Frameworks(), "best"), " | "))
		winSize = flag.Float64("window", 1000, "window size (rows, or time span with -time)")
		useTime = flag.Bool("time", false, "time-based window (use CSV timestamps)")
		every   = flag.Int("every", 500, "print a summary every k rows")
		batch   = flag.Int("batch", 256, "rows per bulk ingest call (1 = row-at-a-time)")
		ell     = flag.Int("ell", 24, "sketch size parameter ℓ")
		b       = flag.Int("b", 8, "LM blocks per level")
		levels  = flag.Int("L", 6, "DI levels")
		rBound  = flag.Float64("R", 0, "max squared row norm bound R (required for di-fd/di-amm; optional for ds-fd, 0 = adaptive)")
		dBSplit = flag.Int("d-b", 0, "B-side suffix width of each stacked row [a|b] (required for lm-amm/di-amm)")
		fdBuf   = flag.Int("fd-buffer", 0, "FastFD working-buffer factor b for the FD frameworks (0/1 = classic, 2 = recommended)")
		fdAlpha = flag.Float64("fd-alpha", 0, "FastFD shrink aggressiveness α in (0,1] for the FD frameworks (0 = classic 1)")
		seed    = flag.Int64("seed", 1, "random seed")
		topK    = flag.Int("top", 5, "singular values to print")
		stats   = flag.Bool("stats", false, "print an instrumentation summary at end of stream")
		traceOn = flag.Bool("trace", false, "trace structural events; print a per-kind summary at end of stream")
		trOut   = flag.String("trace-out", "", "write the trace event ring as JSONL to this file (implies -trace)")
		auditOn = flag.Bool("audit", false, "run an exact shadow window and report the audited cova-err")
		aStride = flag.Int("audit-stride", 0, "audit evaluation cadence in rows (0 = default)")
	)
	flag.Parse()

	cfg := registry.Config{
		Framework: *algo, Size: *winSize, DB: *dBSplit,
		Ell: *ell, B: *b, Seed: *seed, L: *levels, R: *rBound,
		FDBuffer: *fdBuf, FDAlpha: *fdAlpha,
	}
	if *useTime {
		cfg.Window = registry.WindowTime
	}
	if err := run(os.Stdin, os.Stdout, options{
		cfg: cfg, every: *every, batch: *batch, topK: *topK, stats: *stats,
		trace: *traceOn, traceOut: *trOut, audit: *auditOn, auditStride: *aStride,
	}); err != nil {
		fmt.Fprintf(os.Stderr, "swstream: %v\n", err)
		os.Exit(1)
	}
}

// options carries the run's flags. cfg describes the sketch; its
// dimension D is filled in from the first CSV record.
type options struct {
	cfg         registry.Config
	every       int
	batch       int
	topK        int
	stats       bool
	trace       bool
	traceOut    string
	audit       bool
	auditStride int
}

func run(in io.Reader, out io.Writer, opt options) error {
	if opt.every < 1 {
		return fmt.Errorf("every must be ≥ 1")
	}
	if opt.batch < 1 {
		return fmt.Errorf("batch must be ≥ 1")
	}
	cr := csv.NewReader(bufio.NewReaderSize(in, 1<<20))
	cr.ReuseRecord = true

	var (
		sk    core.WindowSketch
		d     int
		spec  window.Spec
		row   []float64
		count int
	)

	w := bufio.NewWriter(out)
	defer w.Flush()

	// With -stats, m times each bulk ingest and each summary query as
	// the server's steps time a tenant's; nil, it reads no clock.
	var (
		reg *obs.Registry
		m   *obs.SketchMetrics
	)
	if opt.stats {
		reg = obs.NewRegistry()
	}

	var tr *trace.Tracer
	if opt.trace || opt.traceOut != "" {
		tr = trace.New(8192)
		tr.Enable()
	}
	var aud *audit.Auditor // built with the sketch once d is known

	// Rows accumulate here and flow into the sketch through its bulk
	// ingest path, opt.batch at a time; a pending batch is flushed
	// before every query so summaries always cover the full prefix.
	var (
		pendRows  [][]float64
		pendTimes []float64
	)
	flush := func() {
		if len(pendRows) == 0 {
			return
		}
		start := m.Start()
		sk.UpdateBatch(pendRows, pendTimes)
		m.ObserveBatch(start, len(pendRows))
		aud.ObserveBatch(pendRows, pendTimes, sk.Query)
		pendRows = pendRows[:0]
		pendTimes = pendTimes[:0]
	}

	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("read csv: %w", err)
		}
		if len(rec) < 2 {
			return fmt.Errorf("record needs timestamp plus values, got %d fields", len(rec))
		}
		t, err := strconv.ParseFloat(rec[0], 64)
		if err != nil {
			return fmt.Errorf("bad timestamp %q: %w", rec[0], err)
		}
		if sk == nil {
			// First record fixes the dimension and builds the sketch.
			d = len(rec) - 1
			sk, err = buildSketch(opt.cfg, d)
			if err != nil {
				return err
			}
			spec, _ = opt.cfg.Spec() // valid: the sketch built
			if t, ok := sk.(trace.Traceable); ok {
				t.SetTracer(tr)
			}
			if opt.audit {
				aud = audit.New(audit.Config{Spec: spec, D: d, Stride: opt.auditStride}, reg)
			}
			if opt.stats {
				m = obs.NewSketchMetrics(reg, sk.Name())
			}
			row = make([]float64, d)
			fmt.Fprintf(w, "# algo=%s window=%v d=%d\n", sk.Name(), spec, d)
			fmt.Fprintf(w, "%-10s %-12s %-14s %s\n", "row", "sketch-rows", "‖B‖²_F", "top singular values")
		}
		if len(rec)-1 != d {
			return fmt.Errorf("row %d has %d values, want %d", count, len(rec)-1, d)
		}
		for j, f := range rec[1:] {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return fmt.Errorf("bad value %q: %w", f, err)
			}
			row[j] = v
		}
		if spec.Kind == window.Sequence {
			t = float64(count)
		}
		r := make([]float64, d)
		copy(r, row)
		pendRows = append(pendRows, r)
		pendTimes = append(pendTimes, t)
		if len(pendRows) >= opt.batch {
			flush()
		}
		count++
		if count%opt.every == 0 {
			flush()
			start := m.Start()
			bm := sk.Query(t)
			m.ObserveQuery(start)
			svals := mat.SingularValues(bm)
			if len(svals) > opt.topK {
				svals = svals[:opt.topK]
			}
			fmt.Fprintf(w, "%-10d %-12d %-14.4g %.4g\n", count, sk.RowsStored(), bm.FrobeniusSq(), svals)
		}
	}
	if count == 0 {
		return fmt.Errorf("empty input")
	}
	flush()
	if opt.stats {
		printInstrumentation(w, m, sk)
	}
	if aud != nil {
		printAudit(w, aud, sk.Query)
	}
	if opt.trace {
		printTraceSummary(w, tr)
	}
	if opt.traceOut != "" {
		f, err := os.Create(opt.traceOut)
		if err != nil {
			return fmt.Errorf("trace out: %w", err)
		}
		werr := tr.WriteJSONL(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return fmt.Errorf("trace out: %w", werr)
		}
		fmt.Fprintf(w, "# trace: wrote %d events to %s\n", len(tr.Events()), opt.traceOut)
	}
	return nil
}

// printAudit forces a final evaluation at the last observed timestamp
// and reports the audited accuracy: the paper's cova-err, measured
// live against an exact shadow of the very window the sketch served.
func printAudit(w io.Writer, aud *audit.Auditor, query func(t float64) *mat.Dense) {
	res, ok := aud.Evaluate(query)
	st := aud.Status()
	fmt.Fprintf(w, "\n# audit (exact shadow, %d evaluations)\n", st.Evaluations)
	if st.Capped {
		fmt.Fprintf(w, "#   disarmed: window exceeded the %d-row shadow cap\n", aud.Config().MaxShadowRows)
		return
	}
	if !ok {
		fmt.Fprintf(w, "#   no evaluation possible (empty stream?)\n")
		return
	}
	fmt.Fprintf(w, "#   cova-err           %.6g (threshold %g)\n", res.CovaErr, st.Threshold)
	fmt.Fprintf(w, "#   norm ratio R̂       %.4g\n", res.NormRatio)
	fmt.Fprintf(w, "#   shadow rows        %d\n", res.ShadowRows)
	if st.Degraded {
		fmt.Fprintf(w, "#   DEGRADED: cova-err exceeds the threshold\n")
	}
}

// printTraceSummary reports the tracer's per-kind event counts, sorted
// by kind for stable output.
func printTraceSummary(w io.Writer, tr *trace.Tracer) {
	sum := tr.Summarize()
	fmt.Fprintf(w, "\n# trace (%d events, %d in ring of %d)\n", sum.Total, sum.Recorded, sum.Capacity)
	kinds := make([]string, 0, len(sum.Kinds))
	for k := range sum.Kinds {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(w, "#   %-18s %d (last event id %d)\n", k, sum.Kinds[k].Count, sum.Kinds[k].LastSeq)
	}
}

// printInstrumentation reports what m recorded over the run:
// row/batch counts, latency totals, and — when the sketch is a
// core.Introspector — its internal stats, sorted by key.
func printInstrumentation(w io.Writer, m *obs.SketchMetrics, sk core.WindowSketch) {
	fmt.Fprintf(w, "\n# instrumentation (%s)\n", sk.Name())
	fmt.Fprintf(w, "#   rows ingested      %d (in %d batched calls)\n", m.Rows.Value(), m.Batches.Value())
	if c := m.Update.Count(); c > 0 {
		fmt.Fprintf(w, "#   update calls       %d, total %.3fms, mean %.1fµs\n",
			c, m.Update.Sum()*1e3, m.Update.Sum()/float64(c)*1e6)
	}
	if c := m.Query.Count(); c > 0 {
		fmt.Fprintf(w, "#   query calls        %d, total %.3fms, mean %.1fµs\n",
			c, m.Query.Sum()*1e3, m.Query.Sum()/float64(c)*1e6)
	}
	fmt.Fprintf(w, "#   rows stored        %d\n", sk.RowsStored())
	if in, ok := sk.(core.Introspector); ok {
		stats := in.Stats()
		keys := make([]string, 0, len(stats))
		for k := range stats {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "#   internal %-18s %g\n", k, stats[k])
		}
	}
}

// buildSketch builds the configured sketch for a d-column stream
// through the registry's framework table, so flag errors read exactly
// like the API's config errors. "best", the offline rank-ℓ oracle the
// registry does not host, is the one special case.
func buildSketch(cfg registry.Config, d int) (core.WindowSketch, error) {
	cfg.D = d
	if strings.EqualFold(cfg.Framework, "best") {
		spec, err := cfg.Spec()
		if err != nil {
			return nil, err
		}
		return core.NewBest(spec, cfg.Ell, d), nil
	}
	return cfg.Build()
}
