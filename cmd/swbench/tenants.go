package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"

	"swsketch/internal/bench"
	"swsketch/internal/registry"
)

// runTenants measures how registry ingest scales with fleet size: a
// fixed total row budget is streamed into 1..k tenants from
// GOMAXPROCS×2 workers (each worker owns a disjoint tenant stripe, the
// acquire/release path included), plus a spill/restore cost probe at
// the largest fleet. The headline: throughput should hold roughly flat
// as the fleet grows — the striped locks and per-tenant mutexes keep
// cross-tenant ingest parallel — so ns_per_row_vs_single, the ratio to
// the 1-tenant run, stays near 1.
func runTenants(out io.Writer, sc scaleCfg, art *bench.Artifact) error {
	total := sc.seqN * 4
	if total > 200000 {
		total = 200000
	}
	if total < 4096 {
		total = 4096
	}
	const d = 16
	const ell = 16
	const batch = 32
	workers := runtime.GOMAXPROCS(0) * 2

	rng := rand.New(rand.NewSource(sc.seed))
	rows := make([][]float64, total)
	for i := range rows {
		r := make([]float64, d)
		for j := range r {
			r[j] = rng.NormFloat64()
		}
		rows[i] = r
	}

	fleets := []int{1, 8, 64, 256, 1024}
	cfg := registry.Config{Framework: "lm-fd", Size: 512, D: d, Ell: ell, B: 8}

	fmt.Fprintf(out, "tenant scaling (rows=%d, d=%d, ell=%d, workers=%d, batch=%d)\n",
		total, d, ell, workers, batch)
	fmt.Fprintf(out, "%8s %10s %12s %14s %10s\n", "tenants", "workers", "ns/row", "rows/sec", "vs 1")

	var baseline float64
	for _, fleet := range fleets {
		if fleet > total/batch {
			continue // each tenant needs at least one batch
		}
		r, err := registry.New()
		if err != nil {
			return err
		}
		tns := make([]*registry.Tenant, fleet)
		for i := range tns {
			tn, err := r.Create(fmt.Sprintf("t%04d", i), cfg)
			if err != nil {
				return err
			}
			tns[i] = tn
		}
		perTenant := total / fleet
		perTenant -= perTenant % batch

		runtime.GC()
		start := time.Now()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < fleet; i += workers {
					tn := tns[i]
					off := (i * 131) % (total - perTenant + 1)
					for b := 0; b < perTenant; b += batch {
						if err := tn.Acquire(); err != nil {
							return
						}
						lastT, _ := tn.Sketch().Clock()
						times := make([]float64, batch)
						for k := range times {
							times[k] = lastT + float64(k) + 1
						}
						tn.Sketch().UpdateBatch(rows[off+b:off+b+batch], times)
						tn.Commit(batch)
						tn.Release()
					}
				}
			}(w)
		}
		wg.Wait()
		elapsed := time.Since(start)

		ingested := perTenant * fleet
		nsRow := float64(elapsed.Nanoseconds()) / float64(ingested)
		if fleet == 1 {
			baseline = nsRow
		}
		ratio := 0.0
		if baseline > 0 {
			ratio = nsRow / baseline
		}
		m := map[string]float64{
			"rows_total":           float64(ingested),
			"ns_per_row":           nsRow,
			"rows_per_sec":         float64(ingested) / elapsed.Seconds(),
			"ns_per_row_vs_single": ratio,
		}

		// At the largest fleet, probe the evict/restore cycle cost.
		if fleet == fleets[len(fleets)-1] || fleet == total/batch {
			if sNs, rNs, err := probeSpillCost(cfg, tns[:min(fleet, 64)]); err == nil {
				m["spill_ns_per_tenant"], m["restore_ns_per_tenant"] = sNs, rNs
			}
		}
		art.Add(map[string]string{"tenants": fmt.Sprint(fleet), "workers": fmt.Sprint(workers)}, m)
		fmt.Fprintf(out, "%8d %10d %12.1f %14.0f %9.2fx\n",
			fleet, workers, nsRow, m["rows_per_sec"], ratio)
	}
	return nil
}

// probeSpillCost measures the evict-to-disk and restore-from-disk
// round trip per tenant, amortised over a sample of the fleet. It
// rebuilds the sample in a TTL registry over a temp spill dir, copies
// each tenant's state via snapshot, sweeps everything out, and times
// the spill and the restoring Acquire separately.
func probeSpillCost(cfg registry.Config, sample []*registry.Tenant) (spillNs, restoreNs float64, err error) {
	dir, err := os.MkdirTemp("", "swbench-tenants-*")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)

	now := time.Unix(0, 0)
	r, err := registry.New(
		registry.WithSpillDir(dir),
		registry.WithEvictTTL(time.Second),
		registry.WithClock(func() time.Time { return now }),
	)
	if err != nil {
		return 0, 0, err
	}
	clones := make([]*registry.Tenant, 0, len(sample))
	for i, src := range sample {
		tn, err := r.Create(fmt.Sprintf("probe%04d", i), cfg)
		if err != nil {
			return 0, 0, err
		}
		if err := copyTenantState(src, tn); err != nil {
			return 0, 0, err
		}
		clones = append(clones, tn)
	}

	now = now.Add(time.Hour)
	start := time.Now()
	if n := r.Sweep(); n != len(clones) {
		return 0, 0, fmt.Errorf("swept %d of %d", n, len(clones))
	}
	spillNs = float64(time.Since(start).Nanoseconds()) / float64(len(clones))

	start = time.Now()
	for _, tn := range clones {
		if err := tn.Acquire(); err != nil {
			return 0, 0, err
		}
		tn.Release()
	}
	restoreNs = float64(time.Since(start).Nanoseconds()) / float64(len(clones))
	return spillNs, restoreNs, nil
}

// copyTenantState moves src's sketch state into dst via the snapshot
// round trip (both tenants were built from the same config).
func copyTenantState(src, dst *registry.Tenant) error {
	if err := src.Acquire(); err != nil {
		return err
	}
	blob, err := src.Sketch().MarshalBinary()
	n := src.Updates()
	src.Release()
	if err != nil {
		return err
	}
	if err := dst.Acquire(); err != nil {
		return err
	}
	defer dst.Release()
	sk, err := dst.Decode(blob)
	if err == nil {
		dst.Install(sk, n)
	}
	return err
}
