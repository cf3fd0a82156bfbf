package registry

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestConcurrentIngestManyTenants is the acceptance bar for the
// striped-lock design: ≥ 1,000 tenants ingesting concurrently from
// many goroutines — with Gets, Lists, scrapes, and TTL sweeps racing
// the ingest — must be data-race-free (run under -race) and lose no
// updates.
func TestConcurrentIngestManyTenants(t *testing.T) {
	const (
		tenants      = 1024
		rowsPer      = 24
		d            = 6
		batchPerCall = 8
	)
	clk := &fakeClock{t: time.Unix(1000, 0)}
	r := mustNew(t,
		WithSpillDir(t.TempDir()),
		WithEvictTTL(time.Minute),
		WithClock(clk.Now),
	)
	cfg := lmCfg(d)
	for i := 0; i < tenants; i++ {
		if _, err := r.Create(fmt.Sprintf("tenant-%04d", i), cfg); err != nil {
			t.Fatalf("Create %d: %v", i, err)
		}
	}

	workers := runtime.GOMAXPROCS(0) * 2
	var wg sync.WaitGroup
	// Ingest workers: each owns a disjoint stripe of tenants (the
	// sketches are single-writer per tenant; cross-tenant parallelism
	// is the point).
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			row := make([]float64, d)
			for i := w; i < tenants; i += workers {
				tn, ok := r.Get(fmt.Sprintf("tenant-%04d", i))
				if !ok {
					t.Errorf("tenant %d missing", i)
					return
				}
				for b := 0; b < rowsPer/batchPerCall; b++ {
					if err := tn.Acquire(); err != nil {
						t.Errorf("Acquire: %v", err)
						return
					}
					lastT, _ := tn.Sketch().Clock()
					rows := make([][]float64, batchPerCall)
					times := make([]float64, batchPerCall)
					for k := range rows {
						for j := range row {
							row[j] = math.Cos(float64(i + k + j))
						}
						rows[k] = append([]float64(nil), row...)
						times[k] = lastT + float64(k) + 1
					}
					tn.Sketch().UpdateBatch(rows, times)
					tn.Commit(batchPerCall)
					tn.Release()
				}
			}
		}(w)
	}
	// Readers and a sweeper race the ingest.
	stop := make(chan struct{})
	var aux sync.WaitGroup
	aux.Add(1)
	go func() {
		defer aux.Done()
		for {
			select {
			case <-stop:
				return
			default:
				r.List()
				r.counts()
				r.Sweep()
				clk.Advance(time.Second)
			}
		}
	}()
	wg.Wait()
	close(stop)
	aux.Wait()

	if got := r.Len(); got != tenants {
		t.Fatalf("Len = %d, want %d", got, tenants)
	}
	var total uint64
	r.each(func(tn *Tenant) { total += tn.Updates() })
	if want := uint64(tenants * rowsPer); total != want {
		t.Fatalf("total updates = %d, want %d", total, want)
	}
}

// TestConcurrentCreateDeleteGet hammers the shard maps themselves.
func TestConcurrentCreateDeleteGet(t *testing.T) {
	r := mustNew(t)
	cfg := lmCfg(3)
	const ids = 64
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := fmt.Sprintf("t%d", (i+w)%ids)
				switch i % 3 {
				case 0:
					_, _ = r.Create(id, cfg)
				case 1:
					if tn, ok := r.Get(id); ok {
						if err := tn.Acquire(); err == nil {
							tn.Sketch().RowsStored()
							tn.Release()
						}
					}
				case 2:
					r.Delete(id)
				}
			}
		}(w)
	}
	wg.Wait()
}
