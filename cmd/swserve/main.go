// Command swserve exposes sliding-window matrix sketches over HTTP.
//
//	swserve -algo lm-fd -d 64 -window 10000 -addr :8080 -metrics
//
// The -algo/-d/... flags describe the sketch of the reserved
// "default" tenant; they fill a registry.Config, the same declarative
// config PUT /v2/tenants/{id} takes, so a bad flag combination fails
// with the same message the API would give. Further tenants —
// independent named sketches with their own configs — are created and
// queried at runtime (see docs/API.md for the full reference).
//
// Endpoints (JSON):
//
//	POST /v2/tenants/{id}/rows           {"updates":[{"row":[...],"t":1.5},...]}
//	POST /v2/tenants/{id}/stream         streaming ingest (NDJSON or binary frames)
//	POST /v2/rows                        multi-tenant ingest in one request
//	GET  /v2/tenants/{id}/approximation  [?t=...]      window approximation B
//	GET  /v2/tenants/{id}/pca            [?t=...&k=3]  top-k window PCA
//	GET  /v2/tenants/{id}/amm            windowed AᵀB estimate (paired
//	                                     frameworks lm-amm/di-amm only)
//	GET  /v2/tenants/{id}/stats          sketch metadata + internals
//	GET  /v2/tenants/{id}/snapshot       binary snapshot (POST restores one)
//	*    /v2/tenants...                  tenant CRUD
//	GET  /v2/health                      accuracy health: ok/degraded (with -audit)
//	GET  /healthz
//	GET  /metrics           Prometheus exposition (with -metrics)
//	GET  /debug/trace       structural event trace, JSONL (with -trace)
//	GET  /debug/hotkeys     sliding top-K hot tenants (with -hotkeys)
//	     /debug/pprof/...   runtime profiles (with -pprof)
//
// Multi-tenant operation is tuned by three flags: -tenants-max caps
// the resident fleet (LRU eviction on create), -evict-ttl evicts
// tenants idle longer than the given duration (a background sweeper
// runs at a fraction of the TTL), and -spill-dir preserves evicted
// tenants on disk — they restore transparently on their next touch,
// and a restarted process resumes the spilled fleet lazily.
//
// Errors use the envelope {"error":{"code":"...","message":"..."}};
// see the serve package documentation for the code list.
//
// The process shuts down cleanly on SIGINT/SIGTERM.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"swsketch/internal/obs"
	"swsketch/internal/obs/audit"
	"swsketch/internal/obs/hh"
	"swsketch/internal/registry"
	"swsketch/internal/serve"
	"swsketch/internal/trace"
	"swsketch/internal/wal"
)

func main() {
	var (
		algo    = flag.String("algo", "lm-fd", "sketch: "+strings.Join(registry.Frameworks(), " | "))
		d       = flag.Int("d", 0, "row dimension (required)")
		winSize = flag.Float64("window", 10000, "window size (rows, or span with -time)")
		useTime = flag.Bool("time", false, "time-based window")
		ell     = flag.Int("ell", 32, "sketch size parameter ℓ")
		b       = flag.Int("b", 8, "LM blocks per level")
		levels  = flag.Int("L", 6, "DI levels (di-fd)")
		rBound  = flag.Float64("R", 0, "max squared row norm bound (required for di-fd/di-amm; optional for ds-fd, 0 = adaptive)")
		dBSplit = flag.Int("d-b", 0, "B-side suffix width of each stacked row [a|b] (required for lm-amm/di-amm)")
		fdBuf   = flag.Int("fd-buffer", 0, "FastFD working-buffer factor b for the FD frameworks (0/1 = classic, 2 = recommended)")
		fdAlpha = flag.Float64("fd-alpha", 0, "FastFD shrink aggressiveness α in (0,1] for the FD frameworks (0 = classic 1)")
		seed    = flag.Int64("seed", 1, "random seed")
		addr    = flag.String("addr", ":8080", "listen address")
		metrics = flag.Bool("metrics", false, "serve Prometheus metrics on /metrics")
		pprofOn = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		maxBody = flag.Int64("maxbody", 0, "max request body bytes (0 = unlimited)")
		traceOn = flag.Bool("trace", false, "trace structural events; serve them on /debug/trace")
		trCap   = flag.Int("trace-cap", 8192, "trace ring capacity (events)")
		trEvery = flag.Int("trace-sample", 1, "record one in every k trace events (counts stay exact)")
		auditOn = flag.Bool("audit", false, "audit accuracy with an exact shadow window; serve /v2/health verdicts")
		aStride = flag.Int("audit-stride", 0, "audit evaluation cadence in rows (0 = default)")
		aCap    = flag.Int("audit-cap", 0, "audit shadow row cap; auditing disarms beyond it (0 = default, <0 = uncapped)")
		aThresh = flag.Float64("audit-threshold", 0, "cova-err level that flips /v2/health to degraded (0 = default)")
		logReq  = flag.Bool("log", false, "log each request (structured, stderr) with its request ID")
		tenMax  = flag.Int("tenants-max", 0, "cap on resident tenants; LRU-evicts on create (0 = uncapped)")
		evictT  = flag.Duration("evict-ttl", 0, "evict tenants idle longer than this (0 = never)")
		spill   = flag.String("spill-dir", "", "spill evicted tenants to this directory and restore on touch")
		walDir  = flag.String("wal-dir", "", "journal ingest into a per-shard write-ahead log under this directory and replay it on startup")
		walSync = flag.Duration("wal-sync", 5*time.Millisecond, "WAL group-commit fsync interval (0 = fsync every append)")
		hotOn   = flag.Bool("hotkeys", false, "track hot tenants with a sliding count-min sidecar; serve /debug/hotkeys")
		hotWin  = flag.Duration("hotkeys-window", time.Minute, "hot-key sliding window")
		hotK    = flag.Int("hotkeys-k", 16, "hot-key top-K size")
		hotW    = flag.Int("hotkeys-width", 1024, "hot-key count-min width (counters per row; rounded up to a power of two)")
		hotD    = flag.Int("hotkeys-depth", 4, "hot-key count-min depth (hash rows)")
	)
	flag.Parse()

	cfg := registry.Config{
		Framework: *algo, Size: *winSize, D: *d, DB: *dBSplit,
		Ell: *ell, B: *b, Seed: *seed, L: *levels, R: *rBound,
		FDBuffer: *fdBuf, FDAlpha: *fdAlpha,
	}
	if *useTime {
		cfg.Window = registry.WindowTime
	}
	spec, specErr := cfg.Spec()

	var opts []serve.Option
	var reg *obs.Registry
	if *metrics {
		reg = obs.NewRegistry()
		opts = append(opts, serve.WithMetrics(reg))
	}
	if *pprofOn {
		opts = append(opts, serve.WithPprof())
	}
	if *maxBody > 0 {
		opts = append(opts, serve.WithMaxBody(*maxBody))
	}
	var tr *trace.Tracer
	if *traceOn {
		tr = trace.New(*trCap)
		tr.SetSampleEvery(*trEvery)
		tr.Enable()
		opts = append(opts, serve.WithTrace(tr))
	}
	if *auditOn && specErr == nil && *d > 0 {
		// Any other config fails to build in NewServer below, before an
		// auditor sees a row.
		opts = append(opts, serve.WithAudit(audit.New(audit.Config{
			Spec: spec, D: *d, Stride: *aStride,
			MaxShadowRows: *aCap, ErrThreshold: *aThresh,
		}, reg)))
	}
	if *logReq {
		opts = append(opts, serve.WithLogger(slog.New(slog.NewTextHandler(os.Stderr, nil))))
	}
	if *hotOn {
		opts = append(opts, serve.WithHotKeys(hh.New(hh.Config{
			Window: *hotWin, K: *hotK, Width: *hotW, Depth: *hotD,
		})))
	}

	// Multi-tenant tuning: hand serve a registry only when a tenant
	// flag is set (serve builds a plain one otherwise).
	if *tenMax > 0 || *evictT > 0 || *spill != "" {
		var ropts []registry.Option
		if *tenMax > 0 {
			ropts = append(ropts, registry.WithMaxTenants(*tenMax))
		}
		if *evictT > 0 {
			ropts = append(ropts, registry.WithEvictTTL(*evictT))
		}
		if *spill != "" {
			ropts = append(ropts, registry.WithSpillDir(*spill))
		}
		if reg != nil {
			ropts = append(ropts, registry.WithObs(reg))
		}
		if tr != nil {
			ropts = append(ropts, registry.WithTrace(tr))
		}
		treg, err := registry.New(ropts...)
		if err != nil {
			log.Fatalf("swserve: %v", err)
		}
		opts = append(opts, serve.WithRegistry(treg))
	}

	var wlog *wal.Log
	if *walDir != "" {
		var werr error
		wlog, werr = wal.Open(*walDir, wal.WithSyncInterval(*walSync),
			walObs(reg), walTrace(tr))
		if werr != nil {
			log.Fatalf("swserve: open wal: %v", werr)
		}
		opts = append(opts, serve.WithWAL(wlog))
	}

	server, err := serve.NewServer(cfg, opts...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "swserve: %v\n", err)
		os.Exit(2)
	}
	if wlog != nil {
		st, err := server.RecoverWAL()
		if err != nil {
			log.Fatalf("swserve: wal replay: %v", err)
		}
		note := ""
		if st.Torn {
			note = " (torn tail truncated)"
		}
		if st.Failed > 0 {
			note = " (FAILED records: damage or a changed default config, serving degraded)"
		}
		if st.Damaged {
			note = " (CORRUPTION: replay stopped early, serving degraded)"
		}
		log.Printf("swserve: wal replayed %d records from %d segments: %d applied, %d skipped, %d failed, %d rows%s",
			st.Records, st.Segments, st.Applied, st.Skipped, st.Failed, st.Rows, note)
		for _, d := range st.Damage {
			log.Printf("swserve: wal replay of a shard stopped at byte %d of %s: %s", d.Offset, d.Segment, d.Err)
		}
		for _, f := range st.Failures {
			log.Printf("swserve: wal record %d of tenant %q failed: %s", f.Seq, f.Tenant, f.Err)
		}
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           server.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}

	// The registry never sweeps by itself; with a TTL configured, run
	// the sweeper at a fraction of it so idle tenants leave memory
	// within ~1.25× the TTL.
	sweepDone := make(chan struct{})
	if *evictT > 0 {
		interval := *evictT / 4
		if interval < time.Second {
			interval = time.Second
		}
		go func() {
			tick := time.NewTicker(interval)
			defer tick.Stop()
			for {
				select {
				case <-sweepDone:
					return
				case <-tick.C:
					server.Registry().Sweep()
				}
			}
		}()
	}

	done := make(chan struct{})
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		log.Printf("swserve: shutting down")
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		close(sweepDone)
		close(done)
	}()

	extras := ""
	if *metrics {
		extras += " metrics"
	}
	if *pprofOn {
		extras += " pprof"
	}
	if *traceOn {
		extras += " trace"
	}
	if *auditOn {
		extras += " audit"
	}
	if *tenMax > 0 {
		extras += fmt.Sprintf(" tenants-max=%d", *tenMax)
	}
	if *evictT > 0 {
		extras += fmt.Sprintf(" evict-ttl=%v", *evictT)
	}
	if *spill != "" {
		extras += " spill-dir=" + *spill
	}
	if *walDir != "" {
		extras += " wal-dir=" + *walDir
	}
	if *hotOn {
		extras += fmt.Sprintf(" hotkeys(window=%v k=%d)", *hotWin, *hotK)
	}
	def, _ := server.Registry().Get(serve.DefaultTenant)
	log.Printf("swserve: %s over %v window, d=%d, listening on %s%s", def.Algorithm(), spec, *d, *addr, extras)
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		log.Fatalf("swserve: %v", err)
	}
	<-done
	if wlog != nil {
		// Final group commit so a clean shutdown leaves nothing torn.
		if err := wlog.Close(); err != nil {
			log.Printf("swserve: wal close: %v", err)
		}
	}
}

// walObs adapts a possibly-nil metrics registry to a WAL option.
func walObs(reg *obs.Registry) wal.Option {
	if reg == nil {
		return func(*wal.Log) {}
	}
	return wal.WithObs(reg)
}

// walTrace adapts a possibly-nil tracer to a WAL option.
func walTrace(tr *trace.Tracer) wal.Option {
	if tr == nil {
		return func(*wal.Log) {}
	}
	return wal.WithTrace(tr)
}
