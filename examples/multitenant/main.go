// Multi-tenant serving: one process hosts many independent sliding
// windows. A TenantRegistry creates sketches from declarative configs,
// ingests into them concurrently (per-tenant locks, so different
// tenants proceed in parallel), evicts idle tenants to disk, and
// restores them transparently — bit-identically, for the
// deterministic LM-FD — on their next query.
package main

import (
	"fmt"
	"math"
	"os"
	"sync"
	"time"

	"swsketch"
)

const (
	d       = 8
	tenants = 64
	rowsPer = 300
)

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

func main() {
	dir, err := os.MkdirTemp("", "swsketch-multitenant")
	if err != nil {
		fail(err)
	}
	defer os.RemoveAll(dir)

	// A controllable clock stands in for real idle time, so the demo's
	// TTL eviction is deterministic.
	var mu sync.Mutex
	now := time.Unix(0, 0)
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(by time.Duration) { mu.Lock(); now = now.Add(by); mu.Unlock() }

	reg, err := swsketch.NewTenantRegistry(
		swsketch.WithSpillDir(dir),
		swsketch.WithEvictTTL(time.Minute),
		swsketch.WithRegistryClock(clock),
	)
	if err != nil {
		fail(err)
	}

	// Each tenant is declared, not constructed: the registry builds the
	// sketch from the config (here LM-FD over a 200-row sequence
	// window; frameworks, window kinds, and sizing vary per tenant).
	cfg := swsketch.TenantConfig{
		Framework: "lm-fd", Window: "sequence", Size: 200, D: d, Ell: 8, B: 4,
	}
	for i := 0; i < tenants; i++ {
		if _, err := reg.Create(fmt.Sprintf("sensor-%02d", i), cfg); err != nil {
			fail(err)
		}
	}

	// Concurrent ingest: one goroutine per stripe of tenants. Acquire
	// serialises access per tenant; different tenants never contend.
	var wg sync.WaitGroup
	workers := 8
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < tenants; i += workers {
				tn, _ := reg.Get(fmt.Sprintf("sensor-%02d", i))
				for r := 0; r < rowsPer; r++ {
					row := make([]float64, d)
					for j := range row {
						row[j] = math.Sin(float64(i*31+r*7+j)) * float64(1+i%3)
					}
					if err := tn.Acquire(); err != nil {
						fail(err)
					}
					lastT, _ := tn.Sketch().Clock()
					tn.Sketch().Update(row, lastT+1)
					tn.Commit(1)
					tn.Release()
				}
			}
		}(w)
	}
	wg.Wait()
	fmt.Printf("ingested %d rows into %d tenants\n", tenants*rowsPer, tenants)

	// Per-tenant queries: each tenant answers for its own window.
	probe, _ := reg.Get("sensor-07")
	if err := probe.Acquire(); err != nil {
		fail(err)
	}
	before := probe.Sketch().Query(float64(rowsPer))
	probe.Release()
	fmt.Printf("sensor-07 approximation: %d×%d (≤ sketch budget)\n", before.Rows(), before.Cols())

	// Idle the fleet past the TTL and sweep: every tenant spills its
	// snapshot + config + clock to disk and leaves memory.
	advance(time.Hour)
	evicted := reg.Sweep()
	fmt.Printf("swept %d idle tenants to disk\n", evicted)

	// Touching a spilled tenant restores it transparently — and for
	// LM-FD the restored answer is bit-identical.
	if err := probe.Acquire(); err != nil {
		fail(err)
	}
	after := probe.Sketch().Query(float64(rowsPer))
	probe.Release()
	identical := before.Rows() == after.Rows()
	for i := 0; identical && i < before.Rows(); i++ {
		for j := 0; j < before.Cols(); j++ {
			if math.Float64bits(before.At(i, j)) != math.Float64bits(after.At(i, j)) {
				identical = false
				break
			}
		}
	}
	fmt.Printf("restored answer bit-identical: %v\n", identical)

	total := 0
	for _, info := range reg.List() {
		total += int(info.Updates)
	}
	fmt.Printf("registry holds %d tenants, %d updates total\n", reg.Len(), total)
}
