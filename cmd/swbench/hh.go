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
	"swsketch/internal/obs/hh"
	"swsketch/internal/serve"
	"swsketch/internal/window"
)

// hhRecallTop is how many of the hottest tenants the accuracy gate
// checks, and hhRecallMin how many of them the sidecar must surface.
const (
	hhRecallTop = 8
	hhRecallMin = 7
)

// hhOverheadWarnPct is the soft ceiling on the sidecar's per-batch
// ingest cost; beyond it the run prints a WARN (timing noise on
// shared runners makes a hard gate flaky).
const hhOverheadWarnPct = 5.0

// runHH closes the hot-key observability loop: a self-hosted server
// with the sidecar attached ingests a Zipf-skewed fleet's traffic
// while the load driver keeps exact per-tenant counts, then the
// /debug/hotkeys snapshot is judged against that ground truth —
// top-hhRecallTop recall, every estimate inside its ε·N count-min
// bound — and the sidecar's cost on the ingest hot path is measured
// with paired trials. The summary row holds the recall, the skew
// aggregates and the overhead; one topk row per sidecar entry holds
// its estimate against the exact count. Recall or bound failures
// (checkHH) exit non-zero; the CI job runs this step
// continue-on-error so the gate is advisory there.
func runHH(out io.Writer, sc scaleCfg, art *bench.Artifact) error {
	const d = 16
	tenants := 512
	rows := sc.seqN * 2
	if rows < 40000 {
		rows = 40000
	}
	if rows > 200000 {
		rows = 200000
	}
	const zipfS = 1.3

	// The sidecar's window dwarfs the run so nothing decays away
	// mid-comparison; width 1024 gives ε = e/1024 ≈ 0.27% of the
	// shard's windowed weight as the permitted overcount.
	hot := hh.New(hh.Config{Window: 10 * time.Minute, K: 16})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv, err := lmServer(d, serve.WithHotKeys(hot))
	if err != nil {
		return err
	}
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()
	base := "http://" + ln.Addr().String()

	fmt.Fprintf(out, "hot-key accuracy (%d tenants, %d rows, zipf %.2f, binary stream)\n",
		tenants, rows, zipfS)
	res, err := load.Run(load.Config{
		BaseURL: base, Mode: load.ModeFrames, Tenants: tenants, D: d, Window: 1024,
		Rows: rows, Batch: 64, Workers: 4, ZipfS: zipfS, Seed: sc.seed,
		TrackTenants: true,
	})
	if err != nil {
		return err
	}
	if res.Errors > 0 {
		return fmt.Errorf("load: %d failed blocks", res.Errors)
	}

	httpRes, err := http.Get(base + "/debug/hotkeys")
	if err != nil {
		return err
	}
	body, err := io.ReadAll(httpRes.Body)
	httpRes.Body.Close()
	if err != nil {
		return err
	}
	snap, err := hh.DecodeSnapshot(body)
	if err != nil {
		return fmt.Errorf("decode /debug/hotkeys: %w", err)
	}

	// Rank the ground truth. Ties at the boundary are real under Zipf
	// (several tenants share the rank-8 count), so a hit is "at least
	// as hot as the true rank-N tenant", not strict set membership.
	type rank struct {
		id   string
		rows int
	}
	ranking := make([]rank, 0, len(res.TenantRows))
	for id, n := range res.TenantRows {
		ranking = append(ranking, rank{id, n})
	}
	sort.Slice(ranking, func(i, j int) bool {
		if ranking[i].rows != ranking[j].rows {
			return ranking[i].rows > ranking[j].rows
		}
		return ranking[i].id < ranking[j].id
	})
	top := hhRecallTop
	if top > len(ranking) {
		top = len(ranking)
	}
	threshold := ranking[top-1].rows

	hits, violations := 0, 0
	fmt.Fprintf(out, "%12s %12s %12s %10s %8s\n", "tenant", "estimated", "exact", "bound", "ok")
	for i, e := range snap.TopK {
		exact := res.TenantRows[e.Tenant]
		within := e.Rows >= uint64(exact) && e.Rows-uint64(exact) <= e.Bound
		if i < top {
			if exact >= threshold {
				hits++
			}
			if !within {
				violations++
			}
			fmt.Fprintf(out, "%12s %12d %12d %10d %8v\n", e.Tenant, e.Rows, exact, e.Bound, within)
		}
		art.Add(map[string]string{"kind": "topk", "tenant": e.Tenant}, map[string]float64{
			"estimated": float64(e.Rows), "exact": float64(exact),
			"bound": float64(e.Bound), "within_bound": bench.Flag(within),
		})
	}
	distinct := len(res.TenantRows)
	fmt.Fprintf(out, "recall %d/%d, top-K share %.1f%%, zipf fit %.2f (cfg %.2f), distinct est %.0f (exact %d)\n",
		hits, top, 100*snap.TopKShare, snap.ZipfS, zipfS, snap.DistinctTenants, distinct)

	bare, inst := hhOverhead(sc, d)
	overheadPct := 100 * (inst/bare - 1)
	fmt.Fprintf(out, "ingest overhead: bare %.1f ns/row, with sidecar %.1f ns/row (%+.2f%%)\n",
		bare, inst, overheadPct)
	if overheadPct > hhOverheadWarnPct {
		fmt.Fprintf(out, "WARN: sidecar overhead %.2f%% above the %.0f%% target\n",
			overheadPct, hhOverheadWarnPct)
	}

	art.Params = map[string]any{
		"tenants": tenants, "rows": res.Rows, "zipf_s": zipfS,
		"window_seconds": snap.WindowSeconds, "k": snap.K, "width": snap.Width,
		"depth": snap.Depth, "epsilon": snap.Epsilon,
	}
	art.Add(map[string]string{"kind": "summary"}, map[string]float64{
		"recall_top_n":                     float64(top),
		"recall_hits":                      float64(hits),
		"topk_share":                       snap.TopKShare,
		"zipf_s_est":                       snap.ZipfS,
		"distinct_tenants_exact":           float64(distinct),
		"distinct_tenants_est":             snap.DistinctTenants,
		"bound_violations":                 float64(violations),
		"overhead_bare_ns_per_row":         bare,
		"overhead_instrumented_ns_per_row": inst,
		"overhead_pct":                     overheadPct,
	})
	return nil
}

// checkHH is the accuracy gate: the sidecar surfaces at least
// hhRecallMin of the hottest hhRecallTop tenants, and every one of
// them lies inside its ε·N count-min bound.
func checkHH(art *bench.Artifact) error {
	sum := art.Find(map[string]string{"kind": "summary"})
	if sum == nil {
		return fmt.Errorf("hh: no summary row")
	}
	m := sum.Metrics
	if m["recall_hits"] < hhRecallMin {
		return fmt.Errorf("hot-key recall %.0f/%.0f below the %d/%d gate", m["recall_hits"], m["recall_top_n"], hhRecallMin, hhRecallTop)
	}
	if m["bound_violations"] > 0 {
		return fmt.Errorf("%.0f top-%.0f estimate(s) outside the ε·N count-min bound", m["bound_violations"], m["recall_top_n"])
	}
	return nil
}

// hhOverhead measures what the sidecar adds to a batched ingest loop:
// per 256-row batch, one Touch (the registry hook) plus one
// ObserveIngest (the commit hook) against a live sidecar, versus the
// same sketch work alone. Trials are paired back to back and the
// median ratio reported, as in runObs.
func hhOverhead(sc scaleCfg, d int) (bareNs, instNs float64) {
	const n = 50000
	const batch = 256
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
	// A Zipf-skewed tenant per batch, fixed across trials.
	z := rand.NewZipf(rng, 1.3, 1, 255)
	ids := make([]string, (n+batch-1)/batch)
	for i := range ids {
		ids[i] = fmt.Sprintf("load-%04d", z.Uint64())
	}

	run := func(hot *hh.Sidecar) float64 {
		sk := core.NewLMFD(window.Seq(sc.win), d, 16, 8)
		runtime.GC()
		start := time.Now()
		for i, b := 0, 0; i < n; i, b = i+batch, b+1 {
			j := i + batch
			if j > n {
				j = n
			}
			hot.Touch(ids[b])
			sk.UpdateBatch(rows[i:j], times[i:j])
			hot.ObserveIngest(ids[b], j-i, 8*d*(j-i))
		}
		return float64(time.Since(start).Nanoseconds()) / float64(n)
	}

	bares := make([]float64, obsTrials)
	ratios := make([]float64, obsTrials)
	for t := range bares {
		b := run(nil) // nil sidecar: the hooks are nil-safe no-ops
		w := run(hh.New(hh.Config{Window: 10 * time.Minute}))
		bares[t] = b
		ratios[t] = w / b
	}
	sort.Float64s(bares)
	sort.Float64s(ratios)
	return bares[obsTrials/2], bares[obsTrials/2] * ratios[obsTrials/2]
}
