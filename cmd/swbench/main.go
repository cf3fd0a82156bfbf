// Command swbench regenerates every table and figure of "Matrix
// Sketching Over Sliding Windows" (SIGMOD 2016) on synthetic
// equivalents of the paper's datasets.
//
// Usage:
//
//	swbench [flags] <experiment>
//
// Experiments:
//
//	table2   dataset statistics for sequence-based windows
//	table3   dataset statistics for time-based windows
//	fig3     avg cova-err vs max sketch size (sequence; 3 datasets)
//	fig4     max cova-err vs max sketch size (sequence)
//	fig5     update cost vs max sketch size (sequence)
//	fig6     offline SWR/SWOR error vs ℓ on the skewed PAMAP window
//	fig7     avg cova-err vs max sketch size (time; WIKI, RAIL)
//	fig8     max cova-err vs max sketch size (time)
//	fig9     update cost vs max sketch size (time)
//	ablation design-choice studies (framework × backing sketch,
//	         LM knobs, sampler norm tracker)
//	drift    window sketches vs whole-history streaming FD under
//	         distribution shift (the Section 1 motivation)
//	projerr  rank-k projection-error study (the paper's "different
//	         error metrics" future work)
//	winsweep sketch space vs window size (the sublinearity headline)
//	kernels  compute-layer micro-benchmarks vs naive baselines
//	fd       FastFD ingest hot path: ns/update and cova-err across the
//	         (buffer, alpha) grid at ℓ∈{64,256}, d=256; fails if a grid
//	         point breaches its 2/ℓ bound
//	dsfd     DS-FD head-to-head vs LM-FD and DI-FD on the fig6 skewed
//	         PAMAP workload at matched ε; fails if DS-FD breaches its
//	         N·R/ℓ guarantee or uses more space than LM-FD
//	amm      windowed approximate matrix multiplication: LM-AMM and
//	         DI-AMM on a correlated paired stream across the ℓ grid,
//	         correlation error vs the exact-AᵀB oracle; fails if any
//	         grid point breaches its slacked 4/ℓ bound
//	obs      overhead of the observability stack: UpdateBatch timed
//	         as the server times it, and a disabled tracer, against
//	         bare per-row and batched ingest, plus the /v2
//	         binary-stream serving path
//	hh       hot-key observability accuracy: the sliding count-min
//	         top-K sidecar vs exact per-tenant counts from a Zipf
//	         load run, plus its ingest-path cost; fails on a recall or
//	         error-bound breach
//	tenants  multi-tenant registry scaling: ingest throughput vs fleet
//	         size (1..1024 tenants, parallel workers) plus spill/
//	         restore cost
//	load     ingest-plane load: per-request JSON (rows mode) vs the /v2
//	         stream (NDJSON and binary frames) against a Zipf-skewed
//	         tenant fleet on a self-hosted server
//	verify   run the qualitative shape checks; non-zero exit on DIFF
//	all      everything above plus the qualitative shape checks
//
// The experiments from kernels to load each write one artifact in the
// shared internal/bench format: BENCH_<experiment>.json, or the path
// -out names. -baseline names an earlier artifact of the same
// experiment to gate the run against; only fd and load declare
// baseline gates (see experiments), and the others reject the flag.
//
// Flags select run scale: the default completes in minutes and
// preserves every qualitative conclusion; -full approaches paper scale.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"swsketch/internal/bench"
	"swsketch/internal/eval"
)

func main() {
	var (
		full   = flag.Bool("full", false, "run at (slow) paper scale")
		csvOut = flag.Bool("csv", false, "emit CSV series instead of aligned text")
		seed   = flag.Int64("seed", 1, "base random seed")
		n      = flag.Int("n", 0, "override rows per dataset")
		win    = flag.Int("window", 0, "override window size (rows)")
		maxQ   = flag.Int("maxq", 0, "override max evaluated windows per run")
		stride = flag.Int("stride", 0, "override query stride")
		artOut = flag.String("out", "", "artifact path (default BENCH_<experiment>.json)")
		base   = flag.String("baseline", "", "earlier artifact of the same experiment to gate the run against (fd and load; empty disables)")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: swbench [flags] table2|table3|fig3|fig4|fig5|fig6|fig7|fig8|fig9|ablation|drift|projerr|winsweep|kernels|fd|dsfd|amm|obs|hh|tenants|load|verify|all")
		flag.PrintDefaults()
		os.Exit(2)
	}

	sc := defaultScale()
	if *full {
		sc = fullScale()
	}
	sc.seed = *seed
	if *n > 0 {
		sc.seqN, sc.timeN = *n, *n
	}
	if *win > 0 {
		sc.win = *win
	}
	if *maxQ > 0 {
		sc.maxQ = *maxQ
	}
	if *stride > 0 {
		sc.stride = *stride
	}

	cmd := flag.Arg(0)
	if e, ok := experiments[cmd]; ok {
		if err := runExperiment(os.Stdout, sc, cmd, e, *artOut, *base); err != nil {
			fmt.Fprintf(os.Stderr, "swbench: %s: %v\n", cmd, err)
			os.Exit(1)
		}
		return
	}
	if *artOut != "" || *base != "" {
		fmt.Fprintf(os.Stderr, "swbench: %s writes no artifact; -out and -baseline apply to kernels|fd|dsfd|amm|obs|hh|tenants|load\n", cmd)
		os.Exit(2)
	}
	out := os.Stdout
	switch cmd {
	case "table2":
		printTable2(out, sc)
	case "table3":
		printTable3(out, sc)
	case "fig3", "fig4", "fig5":
		metric := map[string]eval.Metric{"fig3": eval.AvgErr, "fig4": eval.MaxErr, "fig5": eval.UpdateNs}[cmd]
		for _, name := range []string{"SYNTHETIC", "BIBD", "PAMAP"} {
			ms := seqExperiment(sc, name, cmd == "fig5")
			emit(out, *csvOut, fmt.Sprintf("%s %s (sequence window N=%d)", cmd, name, sc.win), cmd+"-"+name, ms, metric)
		}
	case "fig6":
		pts := fig6Experiment(sc)
		eval.WriteOffline(out, "fig6 PAMAP skewed window (offline)", pts)
	case "fig7", "fig8", "fig9":
		metric := map[string]eval.Metric{"fig7": eval.AvgErr, "fig8": eval.MaxErr, "fig9": eval.UpdateNs}[cmd]
		for _, name := range []string{"WIKI", "RAIL"} {
			ms := timeExperiment(sc, name, cmd == "fig9")
			emit(out, *csvOut, fmt.Sprintf("%s %s (time window)", cmd, name), cmd+"-"+name, ms, metric)
		}
	case "ablation":
		runAblations(out, sc)
	case "drift":
		runDrift(out, sc)
	case "projerr":
		runProjErr(out, sc)
	case "winsweep":
		runWinSweep(out, sc)
	case "verify":
		if failures := runVerify(out, sc); failures > 0 {
			fmt.Fprintf(os.Stderr, "swbench: %d shape check(s) failed\n", failures)
			os.Exit(1)
		}
		fmt.Fprintln(out, "all shape checks passed")
	case "all":
		runAll(sc, *csvOut)
	default:
		fmt.Fprintf(os.Stderr, "swbench: unknown experiment %q\n", cmd)
		os.Exit(2)
	}
}

// experiment is one artifact-writing experiment.
type experiment struct {
	// run measures into the artifact, echoing a table to out.
	run func(out io.Writer, sc scaleCfg, art *bench.Artifact) error
	// check holds the checks that need no baseline; nil when there
	// are none. A written artifact that fails them fails the run.
	check func(*bench.Artifact) error
	// gates are what -baseline compares; an experiment without any
	// rejects the flag.
	gates []bench.Gate
}

// experiments are the artifact-writing experiments. Their baseline
// gates are declared here, never read from the baseline file, so
// editing an artifact cannot change a gate.
var experiments = map[string]experiment{
	"kernels": {run: runKernels},
	// FastFD's default config (b=2, α=1) may not slow past 1.2× the
	// baseline's ns/update at any ℓ. Timings from another kernel
	// backend are not comparable.
	"fd": {run: runFD, check: checkFD, gates: []bench.Gate{{Metric: "ns_per_update",
		Where: map[string]string{"buffer": "2", "alpha": "1"}, Pair: "ell", Max: 1.2, SameKernels: true}}},
	"dsfd":    {run: runDSFD, check: checkDSFD},
	"amm":     {run: runAMM, check: checkAMM},
	"obs":     {run: runObs},
	"hh":      {run: runHH, check: checkHH},
	"tenants": {run: runTenants},
	// A wire mode may lose up to 20% of its baseline rows/s. Shared
	// runners make throughput noisy, so CI runs this gate advisory.
	"load": {run: runLoad, gates: []bench.Gate{{Metric: "rows_per_sec", Pair: "mode", Min: 0.8}}},
}

// runExperiment runs e, writes its artifact to path
// (BENCH_<name>.json when empty), applies its checks, and gates it
// against the artifact at basePath when one is named. The baseline is
// read first, so a missing or foreign one fails before the run.
func runExperiment(out io.Writer, sc scaleCfg, name string, e experiment, path, basePath string) error {
	var base *bench.Artifact
	if basePath != "" {
		if len(e.gates) == 0 {
			return fmt.Errorf("-baseline: %s declares no baseline gates", name)
		}
		var err error
		if base, err = bench.Read(basePath, name); err != nil {
			return fmt.Errorf("baseline: %w", err)
		}
	}
	art := bench.New(name)
	if err := e.run(out, sc, art); err != nil {
		return err
	}
	if path == "" {
		path = "BENCH_" + name + ".json"
	}
	if err := bench.Write(path, art); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s (%d results)\n", path, len(art.Results))
	if e.check != nil {
		if err := e.check(art); err != nil {
			return err
		}
	}
	return bench.Compare(out, art, base, e.gates)
}

func emit(out *os.File, csv bool, title, figID string, ms []eval.Metrics, metric eval.Metric) {
	if csv {
		eval.WriteCSVSeries(out, figID, ms)
		return
	}
	eval.WriteFigure(out, title, ms, metric)
}

// runAll executes every experiment, reusing the sequence and time runs
// across the figure triples (the paper's figures 3/4/5 and 7/8/9 are
// three views of the same runs).
func runAll(sc scaleCfg, csv bool) {
	out := os.Stdout
	printTable2(out, sc)
	printTable3(out, sc)

	seqResults := map[string][]eval.Metrics{}
	for _, name := range []string{"SYNTHETIC", "BIBD", "PAMAP"} {
		fmt.Fprintf(os.Stderr, "swbench: running sequence experiment on %s...\n", name)
		seqResults[name] = seqExperiment(sc, name, true)
	}
	for _, fig := range []struct {
		id     string
		metric eval.Metric
	}{{"fig3", eval.AvgErr}, {"fig4", eval.MaxErr}, {"fig5", eval.UpdateNs}} {
		for _, name := range []string{"SYNTHETIC", "BIBD", "PAMAP"} {
			emit(out, csv, fmt.Sprintf("%s %s (sequence window N=%d)", fig.id, name, sc.win),
				fig.id+"-"+name, seqResults[name], fig.metric)
		}
	}

	fmt.Fprintln(os.Stderr, "swbench: running figure 6 (offline skewed window)...")
	eval.WriteOffline(out, "fig6 PAMAP skewed window (offline)", fig6Experiment(sc))

	timeResults := map[string][]eval.Metrics{}
	for _, name := range []string{"WIKI", "RAIL"} {
		fmt.Fprintf(os.Stderr, "swbench: running time experiment on %s...\n", name)
		timeResults[name] = timeExperiment(sc, name, true)
	}
	for _, fig := range []struct {
		id     string
		metric eval.Metric
	}{{"fig7", eval.AvgErr}, {"fig8", eval.MaxErr}, {"fig9", eval.UpdateNs}} {
		for _, name := range []string{"WIKI", "RAIL"} {
			emit(out, csv, fmt.Sprintf("%s %s (time window)", fig.id, name),
				fig.id+"-"+name, timeResults[name], fig.metric)
		}
	}

	summarizeShape(out, seqResults)
}
