// Command swload drives synthetic multi-tenant ingest traffic against
// a swsketch server and reports throughput and tail latency.
//
//	swload -tenants 2000 -rows 200000 -zipf 1.2 -mode all
//
// Without -url it self-hosts an in-process server (the common CI
// shape); point -url at a running swserve to load a real deployment.
// Tenant selection is Zipf-skewed (-zipf > 1) so a few tenants run
// hot while a long tail stays cold — the contention profile
// multi-tenant ingest actually sees.
//
// Modes (-mode):
//
//	rows    one JSON POST per batch to /v2/tenants/{id}/rows — the
//	        request-per-batch baseline
//	ndjson  /v2 streaming ingest, NDJSON framing
//	frames  /v2 streaming ingest, binary framing
//	all     the three in sequence, with speedups vs rows
//
// Results go to stdout as an aligned table and to -out (default
// BENCH_load.json) as a "load" artifact in the shared internal/bench
// format, one row per mode.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"time"

	"swsketch/internal/bench"
	"swsketch/internal/load"
	"swsketch/internal/obs/hh"
	"swsketch/internal/registry"
	"swsketch/internal/serve"
)

func main() {
	var (
		url     = flag.String("url", "", "target server root (empty = self-host in-process)")
		mode    = flag.String("mode", "all", "wire mode: rows | ndjson | frames | all")
		tenants = flag.Int("tenants", 1000, "fleet size")
		rows    = flag.Int("rows", 100000, "total row budget")
		batch   = flag.Int("batch", 64, "rows per block")
		workers = flag.Int("workers", 8, "concurrent connections")
		zipf    = flag.Float64("zipf", 1.2, "tenant-selection skew (>1; ≤1 = uniform)")
		d       = flag.Int("d", 16, "row dimension")
		win     = flag.Int("window", 1024, "tenant window size (rows)")
		seed    = flag.Int64("seed", 1, "random seed")
		out     = flag.String("out", "BENCH_load.json", "artifact path (empty disables)")
		hotkeys = flag.Bool("hotkeys", false, "enable the hot-key sidecar (self-host only), track exact per-tenant rows, and compare /debug/hotkeys against them after the run")
	)
	flag.Parse()

	base := *url
	if base == "" {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatalf("swload: listen: %v", err)
		}
		cfg := registry.Config{Framework: registry.FrameworkLMFD, Size: float64(*win), D: *d, Ell: 16, B: 8}
		var sopts []serve.Option
		if *hotkeys {
			// A window far longer than any load run keeps the sidecar's
			// counts effectively exact for the post-run comparison.
			sopts = append(sopts, serve.WithHotKeys(hh.New(hh.Config{Window: 10 * time.Minute})))
		}
		server, err := serve.NewServer(cfg, sopts...)
		if err != nil {
			log.Fatalf("swload: %v", err)
		}
		srv := &http.Server{Handler: server.Handler()}
		go func() { _ = srv.Serve(ln) }()
		defer srv.Close()
		base = "http://" + ln.Addr().String()
		fmt.Printf("swload: self-hosted server on %s\n", base)
	} else if *hotkeys {
		fmt.Println("swload: -hotkeys with -url: comparing against the remote /debug/hotkeys (it must run with -hotkeys)")
	}

	modes := []string{*mode}
	if *mode == "all" {
		modes = []string{load.ModeRows, load.ModeNDJSON, load.ModeFrames}
	}
	cfg := load.Config{
		BaseURL: base, Tenants: *tenants, D: *d, Window: *win,
		Rows: *rows, Batch: *batch, Workers: *workers, ZipfS: *zipf, Seed: *seed,
		TrackTenants: *hotkeys,
	}
	fmt.Printf("swload: %d tenants, %d rows, batch %d, %d workers, zipf %.2f\n",
		*tenants, *rows, *batch, *workers, *zipf)
	fmt.Printf("%8s %12s %10s %10s %8s\n", "mode", "rows/sec", "p50 ms", "p99 ms", "errors")

	art := bench.New("load")
	exact := map[string]int{}
	for _, m := range modes {
		cfg.Mode = m
		res, err := load.Run(cfg)
		if err != nil {
			log.Fatalf("swload: %s: %v", m, err)
		}
		for id, n := range res.TenantRows {
			exact[id] += n
		}
		speedup := load.Record(art, res)
		fmt.Printf("%8s %12.0f %10.2f %10.2f %8d", res.Mode, res.RowsPerSec, res.P50Ms, res.P99Ms, res.Errors)
		if speedup > 0 {
			fmt.Printf("  %.1fx vs rows", speedup)
		}
		fmt.Println()
	}

	if *hotkeys {
		if err := compareHotkeys(base, exact); err != nil {
			log.Fatalf("swload: hotkeys: %v", err)
		}
	}

	if *out != "" {
		if err := bench.Write(*out, art); err != nil {
			log.Fatalf("swload: %v", err)
		}
		fmt.Printf("wrote %s (%d results)\n", *out, len(art.Results))
	}
}

// compareHotkeys fetches the server's /debug/hotkeys snapshot and
// prints its top entries next to the driver's exact accepted-row
// counts — the quick-look version of the swbench hh experiment.
func compareHotkeys(base string, exact map[string]int) error {
	resp, err := http.Get(base + "/debug/hotkeys")
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /debug/hotkeys: status %d (is the server running with -hotkeys?)", resp.StatusCode)
	}
	snap, err := hh.DecodeSnapshot(body)
	if err != nil {
		return fmt.Errorf("decode snapshot: %w", err)
	}
	fmt.Printf("hotkeys: top-%d of ~%.0f tenants, zipf s=%.2f, top-K share %.1f%%\n",
		len(snap.TopK), snap.DistinctTenants, snap.ZipfS, 100*snap.TopKShare)
	fmt.Printf("%12s %12s %12s %10s\n", "tenant", "estimated", "exact", "overcount")
	for i, e := range snap.TopK {
		if i >= 8 {
			break
		}
		ex := exact[e.Tenant]
		fmt.Printf("%12s %12d %12d %10d\n", e.Tenant, e.Rows, ex, int64(e.Rows)-int64(ex))
	}
	return nil
}
