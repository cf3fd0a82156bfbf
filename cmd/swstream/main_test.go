package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"swsketch/internal/registry"
)

func csvStream(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteString("0,1,0,2\n")
	}
	return b.String()
}

func baseOpts() options {
	return options{
		cfg:   registry.Config{Framework: "lm-fd", Size: 20, Ell: 8, B: 4, L: 4, Seed: 1},
		every: 10, batch: 7, topK: 3,
	}
}

func TestRunStreamsAndReports(t *testing.T) {
	var out bytes.Buffer
	if err := run(strings.NewReader(csvStream(55)), &out, baseOpts()); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "algo=LM-FD") {
		t.Fatalf("missing header:\n%s", s)
	}
	// 55 rows / every 10 = 5 report lines (plus 2 header lines).
	if lines := strings.Count(s, "\n"); lines != 7 {
		t.Fatalf("lines = %d, want 7:\n%s", lines, s)
	}
}

func TestRunAllAlgorithms(t *testing.T) {
	for _, algo := range []string{"swr", "swor", "swor-all", "lm-fd", "lm-hash", "best"} {
		opt := baseOpts()
		opt.cfg.Framework = algo
		var out bytes.Buffer
		if err := run(strings.NewReader(csvStream(30)), &out, opt); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
	}
	// DI needs R.
	opt := baseOpts()
	opt.cfg.Framework = "di-fd"
	opt.cfg.R = 10
	var out bytes.Buffer
	if err := run(strings.NewReader(csvStream(30)), &out, opt); err != nil {
		t.Fatalf("di-fd: %v", err)
	}
}

// TestRunBatchSizesAgree pins the bulk ingest path to row-at-a-time
// feeding: LM-FD is deterministic, so every summary line must match.
func TestRunBatchSizesAgree(t *testing.T) {
	var byRow, byBatch bytes.Buffer
	o1 := baseOpts()
	o1.batch = 1
	oN := baseOpts()
	oN.batch = 64
	if err := run(strings.NewReader(csvStream(55)), &byRow, o1); err != nil {
		t.Fatal(err)
	}
	if err := run(strings.NewReader(csvStream(55)), &byBatch, oN); err != nil {
		t.Fatal(err)
	}
	if byRow.String() != byBatch.String() {
		t.Fatalf("batch=1 and batch=64 outputs differ:\n%s\nvs\n%s", byRow.String(), byBatch.String())
	}
}

func TestRunTimeWindow(t *testing.T) {
	in := "0.5,1,1\n1.5,2,0\n2.5,0,1\n9.5,1,1\n"
	opt := baseOpts()
	opt.cfg.Window = registry.WindowTime
	opt.cfg.Size = 3
	opt.every = 2
	var out bytes.Buffer
	if err := run(strings.NewReader(in), &out, opt); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	cases := map[string]struct {
		in  string
		opt options
	}{
		"empty":         {"", baseOpts()},
		"bad timestamp": {"x,1,2\n", baseOpts()},
		"bad value":     {"0,1,zz\n", baseOpts()},
		"short record":  {"0\n", baseOpts()},
		"ragged":        {"0,1,2\n0,1\n", baseOpts()},
		"unknown algo":  {csvStream(5), func() options { o := baseOpts(); o.cfg.Framework = "nope"; return o }()},
		"di without R":  {csvStream(5), func() options { o := baseOpts(); o.cfg.Framework = "di-fd"; return o }()},
		"di time window": {csvStream(5), func() options {
			o := baseOpts()
			o.cfg.Framework = "di-fd"
			o.cfg.Window = registry.WindowTime
			o.cfg.R = 1
			return o
		}()},
		"bad every": {csvStream(5), func() options { o := baseOpts(); o.every = 0; return o }()},
		"bad batch": {csvStream(5), func() options { o := baseOpts(); o.batch = 0; return o }()},
	}
	for name, tc := range cases {
		var out bytes.Buffer
		if err := run(strings.NewReader(tc.in), &out, tc.opt); err == nil {
			t.Fatalf("%s: expected error", name)
		}
	}
}

// variedCSV produces rows with enough variety to force structural
// sketch events (the constant csvStream rows never trigger merges with
// interesting content).
func variedCSV(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "%d,%d,%d,%d\n", i, i%5, (i*3)%7, (i*2)%4+1)
	}
	return b.String()
}

func TestRunTraceSummary(t *testing.T) {
	opt := baseOpts()
	opt.trace = true
	var out bytes.Buffer
	if err := run(strings.NewReader(variedCSV(60)), &out, opt); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "# trace (") || !strings.Contains(s, "lm_close") {
		t.Fatalf("missing trace summary:\n%s", s)
	}
}

func TestRunTraceOut(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.jsonl")
	opt := baseOpts()
	opt.traceOut = path
	var out bytes.Buffer
	if err := run(strings.NewReader(variedCSV(60)), &out, opt); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"kind":"lm_close"`) {
		t.Fatalf("trace JSONL missing lm_close events:\n%s", data)
	}
}

func TestRunAudit(t *testing.T) {
	opt := baseOpts()
	opt.audit = true
	opt.auditStride = 16
	var out bytes.Buffer
	if err := run(strings.NewReader(variedCSV(60)), &out, opt); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "# audit (") || !strings.Contains(s, "cova-err") {
		t.Fatalf("missing audit report:\n%s", s)
	}
}

// TestRunAMMAlgorithms streams stacked [a|b] rows through the paired
// frameworks and checks the standard summary plane works unchanged.
func TestRunAMMAlgorithms(t *testing.T) {
	opt := baseOpts()
	opt.cfg.Framework = "lm-amm"
	opt.cfg.DB = 1
	var out bytes.Buffer
	if err := run(strings.NewReader(variedCSV(40)), &out, opt); err != nil {
		t.Fatalf("lm-amm: %v", err)
	}
	if !strings.Contains(out.String(), "algo=LM-AMM") {
		t.Fatalf("missing LM-AMM header:\n%s", out.String())
	}

	opt = baseOpts()
	opt.cfg.Framework = "di-amm"
	opt.cfg.DB = 1
	opt.cfg.R = 70
	opt.cfg.Ell = 8
	out.Reset()
	if err := run(strings.NewReader(variedCSV(40)), &out, opt); err != nil {
		t.Fatalf("di-amm: %v", err)
	}
	if !strings.Contains(out.String(), "algo=DI-AMM") {
		t.Fatalf("missing DI-AMM header:\n%s", out.String())
	}
}

func TestRunAMMFlagErrors(t *testing.T) {
	cases := map[string]options{
		"amm without d-b":  func() options { o := baseOpts(); o.cfg.Framework = "lm-amm"; return o }(),
		"amm d-b too wide": func() options { o := baseOpts(); o.cfg.Framework = "lm-amm"; o.cfg.DB = 3; return o }(),
		"d-b on lm-fd":     func() options { o := baseOpts(); o.cfg.DB = 1; return o }(),
		"di-amm without R": func() options { o := baseOpts(); o.cfg.Framework = "di-amm"; o.cfg.DB = 1; return o }(),
		"di-amm time": func() options {
			o := baseOpts()
			o.cfg.Framework = "di-amm"
			o.cfg.DB = 1
			o.cfg.R = 60
			o.cfg.Window = registry.WindowTime
			return o
		}(),
	}
	for name, opt := range cases {
		var out bytes.Buffer
		if err := run(strings.NewReader(csvStream(5)), &out, opt); err == nil {
			t.Fatalf("%s: expected error", name)
		}
	}
}

// TestRunStatsReport pins the -stats report: every input row is
// counted, each bulk ingest call and each summary query is one timed
// call (the audit's queries are not), and the sketch's internals
// follow, sorted by name.
func TestRunStatsReport(t *testing.T) {
	opt := baseOpts()
	opt.stats = true
	opt.audit = true
	opt.auditStride = 16
	var out bytes.Buffer
	if err := run(strings.NewReader(variedCSV(55)), &out, opt); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	// 55 rows in batches of 7, flushed before each summary every 10
	// rows: the calls end at rows 7, 10, 17, 20, …, 47, 50 and 55.
	for _, want := range []string{
		"\n# instrumentation (LM-FD)\n",
		"\n#   rows ingested      55 (in 11 batched calls)\n",
		"\n#   update calls       11, total ",
		"\n#   query calls        5, total ",
		"\n#   rows stored        ",
		"\n#   internal blocks_per_level   4\n",
		"\n#   internal levels ",
	} {
		if !strings.Contains(s, want) {
			t.Fatalf("report missing %q:\n%s", want, s)
		}
	}
	var keys []string
	for _, line := range strings.Split(s, "\n") {
		if rest, ok := strings.CutPrefix(line, "#   internal "); ok {
			keys = append(keys, strings.Fields(rest)[0])
		}
	}
	if !sort.StringsAreSorted(keys) || len(keys) < 5 {
		t.Fatalf("internals lines %v: want the sketch's stats, sorted", keys)
	}
}
