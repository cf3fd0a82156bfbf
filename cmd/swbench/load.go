package main

import (
	"fmt"
	"io"
	"net"
	"net/http"

	"swsketch/internal/bench"
	"swsketch/internal/load"
	"swsketch/internal/registry"
	"swsketch/internal/serve"
)

// runLoad measures the ingest plane end to end: a self-hosted server,
// a Zipf-skewed tenant fleet, and the three wire modes side by side.
// The rows-mode baseline pays one JSON request per update; the stream
// modes run pipelined blocks. The headline: the binary stream should
// carry an order of magnitude more rows/s than per-request JSON while
// holding p99 under 50 ms.
// lmServer serves a default LM-FD tenant (a 1024-row window, ℓ 8,
// b 4) over d-wide rows: the server of every swbench HTTP experiment.
func lmServer(d int, opts ...serve.Option) (*http.Server, error) {
	s, err := serve.NewServer(registry.Config{Framework: registry.FrameworkLMFD, Size: 1024, D: d, Ell: 8, B: 4}, opts...)
	if err != nil {
		return nil, err
	}
	return &http.Server{Handler: s.Handler()}, nil
}

func runLoad(out io.Writer, sc scaleCfg, art *bench.Artifact) error {
	const d = 16
	tenants := 2000
	rows := sc.seqN * 2
	if rows < 20000 {
		rows = 20000
	}
	if rows > 400000 {
		rows = 400000
	}
	if tenants > rows/64 {
		tenants = rows / 64
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv, err := lmServer(d)
	if err != nil {
		return err
	}
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()
	base := "http://" + ln.Addr().String()

	cfg := load.Config{
		BaseURL: base, Tenants: tenants, D: d, Window: 1024,
		Workers: 4, ZipfS: 1.2, Seed: sc.seed,
	}
	fmt.Fprintf(out, "ingest-plane load (%d tenants, %d rows, zipf %.2f)\n",
		tenants, rows, cfg.ZipfS)
	fmt.Fprintf(out, "%8s %6s %12s %10s %10s %8s\n",
		"mode", "batch", "rows/sec", "p50 ms", "p99 ms", "errors")

	modes := []struct {
		mode    string
		batch   int
		workers int
	}{
		{load.ModeRows, 1, 4}, // one JSON request per update
		// The server ingests serially per tenant; a couple of pipelined
		// streams saturate it without queueing the tail into the tens of
		// milliseconds.
		{load.ModeNDJSON, 128, 2},
		{load.ModeFrames, 256, 2},
	}
	var speedup float64
	var final load.Result
	for _, m := range modes {
		cfg.Mode, cfg.Batch, cfg.Rows, cfg.Workers = m.mode, m.batch, rows, m.workers
		if m.mode == load.ModeRows {
			// The baseline pays a request per row; a fraction of the
			// budget measures it just as well.
			cfg.Rows = rows / 8
		}
		res, err := load.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", m.mode, err)
		}
		if res.Errors > 0 {
			return fmt.Errorf("%s: %d failed blocks", m.mode, res.Errors)
		}
		speedup, final = load.Record(art, res), res
		fmt.Fprintf(out, "%8s %6d %12.0f %10.2f %10.2f %8d",
			res.Mode, res.Batch, res.RowsPerSec, res.P50Ms, res.P99Ms, res.Errors)
		if speedup > 0 {
			fmt.Fprintf(out, "  %.1fx vs rows", speedup)
		}
		fmt.Fprintln(out)
	}

	// Acceptance shape: the binary stream sustains ≥10× the rows-mode
	// baseline with a sub-50ms tail.
	if speedup < 10 {
		fmt.Fprintf(out, "WARN: frames speedup %.1fx below the 10x target\n", speedup)
	}
	if final.P99Ms >= 50 {
		fmt.Fprintf(out, "WARN: frames p99 %.1fms above the 50ms target\n", final.P99Ms)
	}
	return nil
}
