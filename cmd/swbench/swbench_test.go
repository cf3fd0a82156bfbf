package main

import (
	"bytes"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"swsketch/internal/bench"
	"swsketch/internal/data"
	"swsketch/internal/eval"
)

func TestDiLevels(t *testing.T) {
	// BIBD regime: ratio 1, eps 0.1 → small L (floored at 3).
	if l := diLevels(1, 0.1, 1); l < 3 || l > 5 {
		t.Fatalf("ratio=1 L=%d", l)
	}
	// PAMAP regime: huge ratio, clamped by the mass-skew bound.
	l := diLevels(2.6e5, 0.1, 1000)
	want := int(math.Ceil(math.Log2(64 * 1000)))
	if l != want {
		t.Fatalf("heavy-tail L=%d, want mass clamp %d", l, want)
	}
	// Without skew the theory value applies up to the hard clamp.
	if l := diLevels(1e9, 0.01, 1e12); l != 22 {
		t.Fatalf("hard clamp L=%d", l)
	}
	// Degenerate ratio below 1 is treated as 1.
	if l := diLevels(0.5, 0.4, 1); l != 3 {
		t.Fatalf("degenerate ratio L=%d", l)
	}
}

func TestWindowOccupancy(t *testing.T) {
	ds := &data.Dataset{
		Rows:  [][]float64{{1}, {1}, {1}, {1}},
		Times: []float64{0, 1, 2, 10},
	}
	avg, max := windowOccupancy(ds, 2.5)
	if max != 3 {
		t.Fatalf("max occupancy = %d, want 3", max)
	}
	if avg <= 1 || avg > 3 {
		t.Fatalf("avg occupancy = %v", avg)
	}
	empty := &data.Dataset{}
	if a, m := windowOccupancy(empty, 1); a != 0 || m != 0 {
		t.Fatal("empty occupancy should be zero")
	}
}

func TestScaleDatasets(t *testing.T) {
	sc := defaultScale()
	sc.seqN, sc.timeN = 500, 500
	sc.win = 100
	for _, name := range []string{"SYNTHETIC", "BIBD", "PAMAP"} {
		ds := sc.seqDataset(name)
		if ds.N() != 500 {
			t.Fatalf("%s rows = %d", name, ds.N())
		}
		if err := ds.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	for _, name := range []string{"WIKI", "RAIL"} {
		ds, delta := sc.timeDataset(name)
		if ds.N() != 500 || delta <= 0 {
			t.Fatalf("%s rows=%d delta=%v", name, ds.N(), delta)
		}
	}
	full := fullScale()
	if full.seqN <= sc.seqN {
		t.Fatal("full scale should exceed default")
	}
}

func TestUnknownDatasetPanics(t *testing.T) {
	sc := defaultScale()
	for _, f := range []func(){
		func() { sc.seqDataset("NOPE") },
		func() { sc.timeDataset("NOPE") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestSummarizeShapeCountsFailures(t *testing.T) {
	// Synthetic metrics where every check passes.
	mk := func(label string, rows int, err float64) eval.Metrics {
		return eval.Metrics{Label: label, MaxRows: rows, AvgErr: err}
	}
	good := map[string][]eval.Metrics{
		"BIBD": {
			mk("DI-FD", 100, 0.05), mk("LM-FD", 100, 0.10),
		},
		"PAMAP": {
			mk("LM-FD", 100, 0.02), mk("DI-FD", 100, 0.20),
			mk("SWR", 100, 0.03), mk("SWOR", 100, 0.06),
		},
		"SYNTHETIC": {
			mk("SWOR", 100, 0.04), mk("SWR", 100, 0.06),
			mk("SWOR-ALL", 100, 0.02),
			mk("BEST", 100, 0.001), mk("LM-FD", 100, 0.05),
		},
	}
	var buf bytes.Buffer
	if got := summarizeShape(&buf, good); got != 0 {
		t.Fatalf("failures = %d on all-good metrics:\n%s", got, buf.String())
	}
	// Flip one comparison: DI-FD worse than LM-FD on BIBD.
	good["BIBD"] = []eval.Metrics{mk("DI-FD", 100, 0.20), mk("LM-FD", 100, 0.10)}
	buf.Reset()
	if got := summarizeShape(&buf, good); got != 1 {
		t.Fatalf("failures = %d, want 1:\n%s", got, buf.String())
	}
	if !strings.Contains(buf.String(), "DIFF") {
		t.Fatal("DIFF marker missing")
	}
}

func TestFig6ExperimentShape(t *testing.T) {
	sc := defaultScale()
	sc.seqN, sc.win, sc.trials6 = 4000, 400, 3
	pts := fig6Experiment(sc)
	if len(pts) != 6 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, p := range pts {
		if p.SWR < 0 || p.SWORPerRow < 0 {
			t.Fatalf("negative error %+v", p)
		}
	}
}

func TestDatasetAvgSqNorm(t *testing.T) {
	ds := &data.Dataset{Rows: [][]float64{{3, 4}, {0, 0}}, Times: []float64{0, 1}}
	if got := datasetAvgSqNorm(ds); got != 12.5 {
		t.Fatalf("avg sq norm = %v, want 12.5", got)
	}
	if got := datasetAvgSqNorm(&data.Dataset{}); got != 1 {
		t.Fatalf("empty avg = %v, want fallback 1", got)
	}
}

func TestExperimentsSmoke(t *testing.T) {
	// A micro-scale pass through every experiment runner keeps the
	// harness itself under test (the full scale runs via the binary).
	sc := defaultScale()
	sc.seqN, sc.timeN = 2500, 2500
	sc.win = 300
	sc.stride = 1200
	sc.maxQ = 2
	sc.trials6 = 2

	for _, name := range []string{"SYNTHETIC", "BIBD", "PAMAP"} {
		ms := seqExperiment(sc, name, false)
		if len(ms) == 0 {
			t.Fatalf("%s: no metrics", name)
		}
		labels := map[string]bool{}
		for _, m := range ms {
			labels[m.Label] = true
			if m.Queries == 0 && m.Label != "BEST" {
				t.Fatalf("%s/%s: no queries", name, m.Label)
			}
		}
		for _, want := range []string{"SWR", "SWOR", "SWOR-ALL", "LM-FD", "DI-FD", "BEST"} {
			if !labels[want] {
				t.Fatalf("%s: missing %s", name, want)
			}
		}
	}
	for _, name := range []string{"WIKI", "RAIL"} {
		if ms := timeExperiment(sc, name, false); len(ms) == 0 {
			t.Fatalf("%s: no metrics", name)
		}
	}

	var buf bytes.Buffer
	printTable2(&buf, sc)
	printTable3(&buf, sc)
	if !strings.Contains(buf.String(), "Table 2") || !strings.Contains(buf.String(), "Table 3") {
		t.Fatal("table output missing")
	}
	runDrift(&buf, sc)
	if !strings.Contains(buf.String(), "Drift study") {
		t.Fatal("drift output missing")
	}
	runProjErr(&buf, sc)
	if !strings.Contains(buf.String(), "Projection error study") {
		t.Fatal("projerr output missing")
	}
}

func TestBenchFDPoint(t *testing.T) {
	// One fast configuration end to end: timing positive, accuracy
	// within the bound, regime classified by m = b·ℓ against d.
	r := benchFDPoint(8, 2, 0.5)
	m := r.Metrics
	if m["ns_per_update"] <= 0 {
		t.Fatalf("ns/update = %v", m["ns_per_update"])
	}
	if m["within_bound"] != 1 || m["cova_err"] > m["bound"] {
		t.Fatalf("error %v exceeds bound %v", m["cova_err"], m["bound"])
	}
	if r.Labels["regime"] != "n-side" {
		t.Fatalf("ell=8 b=2 d=256 regime %q, want n-side", r.Labels["regime"])
	}
}

// gateCase is one run of an experiment's gates through runExperiment:
// the rows it reports, the baseline it is given, and how it ends.
type gateCase struct {
	name, exp string
	run       *bench.Artifact
	base      string
	fail      bool
	say       string // a line the run prints
}

// gateFixture holds baselines on disk for the gate tests.
type gateFixture struct {
	dir                                     string
	fdBase, foreignBase, corrupt, oldFormat string
	loadBase                                string
}

func newGateFixture(t *testing.T) *gateFixture {
	t.Helper()
	f := &gateFixture{dir: t.TempDir()}
	write := func(name string, art *bench.Artifact) string {
		path := filepath.Join(f.dir, name)
		if err := bench.Write(path, art); err != nil {
			t.Fatal(err)
		}
		return path
	}
	f.fdBase = write("fd.json", fdRun(1000, 2000))
	foreign := fdRun(1, 1)
	other := !*foreign.Env.KernelsAccelerated
	foreign.Env.KernelsAccelerated = &other
	f.foreignBase = write("foreign.json", foreign)
	f.corrupt = filepath.Join(f.dir, "corrupt.json")
	if err := os.WriteFile(f.corrupt, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	f.oldFormat = filepath.Join(f.dir, "old.json")
	if err := os.WriteFile(f.oldFormat, []byte(`{"kernels_accelerated":true,"results":[{"ell":64}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	f.loadBase = write("load.json", loadRun(map[string]float64{"rows": 1000, "ndjson": 5000}))
	return f
}

// fdRun is an fd artifact whose default config (b=2, α=1) reads ns64
// at ℓ=64 and ns256 at ℓ=256.
func fdRun(ns64, ns256 float64) *bench.Artifact {
	art := bench.New("fd")
	for ell, ns := range map[string]float64{"64": ns64, "256": ns256} {
		art.Add(map[string]string{"ell": ell, "buffer": "2", "alpha": "1"}, map[string]float64{"ns_per_update": ns})
		// A non-default config the gate ignores.
		art.Add(map[string]string{"ell": ell, "buffer": "1", "alpha": "1"}, map[string]float64{"ns_per_update": 9 * ns})
	}
	return art
}

// loadRun is a load artifact with one row per mode.
func loadRun(rates map[string]float64) *bench.Artifact {
	art := bench.New("load")
	for mode, rate := range rates {
		art.Add(map[string]string{"mode": mode}, map[string]float64{"rows_per_sec": rate})
	}
	return art
}

// runGateCases runs each case's rows through the gates that the
// experiments table declares for its experiment.
func runGateCases(t *testing.T, f *gateFixture, cases []gateCase) {
	t.Helper()
	for _, c := range cases {
		run := c.run
		e := experiment{gates: experiments[c.exp].gates, run: func(_ io.Writer, _ scaleCfg, art *bench.Artifact) error {
			art.Results = run.Results
			return nil
		}}
		var buf bytes.Buffer
		err := runExperiment(&buf, defaultScale(), c.exp, e, filepath.Join(f.dir, "out.json"), c.base)
		if (err != nil) != c.fail {
			t.Errorf("%s: err = %v, want failure %v\n%s", c.name, err, c.fail, buf.String())
		}
		if !strings.Contains(buf.String(), c.say) {
			t.Errorf("%s: output lacks %q:\n%s", c.name, c.say, buf.String())
		}
	}
}

// TestFDRegressionGate runs the fd gate against a baseline on disk:
// the default config within 1.2x passes, past it fails, and a baseline
// from another kernel backend is skipped.
func TestFDRegressionGate(t *testing.T) {
	f := newGateFixture(t)
	runGateCases(t, f, []gateCase{
		{"fd within 1.2x", "fd", fdRun(1100, 2200), f.fdBase, false, "ell=64: 1100 vs baseline 1000 (1.10x) ok"},
		{"fd at 1.3x", "fd", fdRun(1300, 2000), f.fdBase, true, "ell=64: 1300 vs baseline 1000 (1.30x) REGRESSED"},
		{"fd baseline on another backend", "fd", fdRun(1300, 2600), f.foreignBase, false, "another kernel backend, skipped"},
	})
}

// TestLoadFDBaseline covers how -baseline reads the fd baseline: an
// empty path runs no comparison, a good file is compared, and a
// missing, corrupt, old-format or wrong-experiment file is an error.
func TestLoadFDBaseline(t *testing.T) {
	f := newGateFixture(t)
	runGateCases(t, f, []gateCase{
		{"fd without -baseline", "fd", fdRun(1300, 2600), "", false, "wrote"},
		{"fd good baseline", "fd", fdRun(1000, 2000), f.fdBase, false, "ell=256: 2000 vs baseline 2000 (1.00x) ok"},
		{"fd corrupt baseline", "fd", fdRun(1000, 2000), f.corrupt, true, ""},
		{"fd baseline in the per-experiment format", "fd", fdRun(1000, 2000), f.oldFormat, true, ""},
		{"fd missing baseline", "fd", fdRun(1000, 2000), filepath.Join(f.dir, "missing.json"), true, ""},
		{"fd given a load baseline", "fd", fdRun(1000, 2000), f.loadBase, true, ""},
	})
}

// TestBaselineGates runs the load gate against a baseline on disk: a
// mode within 20% of its baseline rows/s passes, past it fails, and a
// mode absent from the baseline is skipped; an experiment that
// declares no gates rejects -baseline.
func TestBaselineGates(t *testing.T) {
	f := newGateFixture(t)
	runGateCases(t, f, []gateCase{
		{"load -19%", "load", loadRun(map[string]float64{"rows": 810, "ndjson": 5000}), f.loadBase, false, "mode=rows: 810 vs baseline 1000 (0.81x) ok"},
		{"load -21%", "load", loadRun(map[string]float64{"rows": 790, "ndjson": 5000}), f.loadBase, true, "mode=rows: 790 vs baseline 1000 (0.79x) REGRESSED"},
		{"load mode absent from baseline", "load", loadRun(map[string]float64{"rows": 1000, "frames": 1}), f.loadBase, false, "mode=frames: no baseline, skipped"},
		{"dsfd declares no gates", "dsfd", bench.New("dsfd"), f.fdBase, true, ""},
	})
}

// TestCommittedArtifacts decodes every committed BENCH_*.json with the
// one artifact type. Each names the experiment of its file name,
// passes that experiment's checks, and compared against itself pairs
// every gated row.
func TestCommittedArtifacts(t *testing.T) {
	paths, err := filepath.Glob("../../BENCH_*.json")
	if err != nil || len(paths) < 7 {
		t.Fatalf("committed artifacts: %v, %v", paths, err)
	}
	for _, path := range paths {
		name := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(path), "BENCH_"), ".json")
		art, err := bench.Read(path, name)
		if err != nil {
			t.Fatal(err)
		}
		e, ok := experiments[name]
		if !ok || len(art.Results) == 0 {
			t.Fatalf("%s: experiment known %v, %d results", path, ok, len(art.Results))
		}
		if e.check != nil {
			if err := e.check(art); err != nil {
				t.Errorf("%s: %v", path, err)
			}
		}
		var buf bytes.Buffer
		if err := bench.Compare(&buf, art, art, e.gates); err != nil || strings.Contains(buf.String(), "skipped") {
			t.Errorf("%s: self-comparison: %v\n%s", path, err, buf.String())
		}
	}
}

func TestRunTenantsSmoke(t *testing.T) {
	sc := defaultScale()
	sc.seqN = 1024 // micro scale: total clamps to the 4096-row floor
	out := t.TempDir() + "/BENCH_tenants.json"
	var buf bytes.Buffer
	if err := runExperiment(&buf, sc, "tenants", experiments["tenants"], out, ""); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "tenant scaling") {
		t.Fatalf("missing header:\n%s", buf.String())
	}
	art, err := bench.Read(out, "tenants")
	if err != nil {
		t.Fatal(err)
	}
	if len(art.Results) < 3 {
		t.Fatalf("results = %d, want >= 3 fleet sizes", len(art.Results))
	}
	if r := art.Results[0]; r.Labels["tenants"] != "1" || r.Metrics["ns_per_row_vs_single"] != 1 {
		t.Fatalf("baseline row %+v", r)
	}
	for _, r := range art.Results {
		if m := r.Metrics; m["ns_per_row"] <= 0 || m["rows_per_sec"] <= 0 || m["rows_total"] <= 0 {
			t.Fatalf("degenerate row %+v", r)
		}
	}
}
