package load

import (
	"net/http/httptest"
	"testing"

	"swsketch/internal/bench"
	"swsketch/internal/registry"
	"swsketch/internal/serve"
)

// testTarget stands up an in-process server for the driver to hit.
func testTarget(t *testing.T) string {
	t.Helper()
	s, err := serve.NewServer(registry.Config{Framework: registry.FrameworkLMFD, Size: 256, D: 4, Ell: 8, B: 4})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

func runMode(t *testing.T, url, mode string, zipf float64) Result {
	t.Helper()
	res, err := Run(Config{
		BaseURL: url, Mode: mode,
		Tenants: 8, D: 4, Rows: 512, Batch: 32, Workers: 4,
		ZipfS: zipf, Seed: 7,
	})
	if err != nil {
		t.Fatalf("%s: %v", mode, err)
	}
	return res
}

// TestRunAllModes drives every wire mode against a live server and
// checks all rows arrive without errors.
func TestRunAllModes(t *testing.T) {
	url := testTarget(t)
	for _, mode := range []string{ModeRows, ModeNDJSON, ModeFrames} {
		res := runMode(t, url, mode, 0)
		if res.Errors != 0 {
			t.Fatalf("%s: %d errors", mode, res.Errors)
		}
		if res.Rows != 512 {
			t.Fatalf("%s: sent %d rows, want 512", mode, res.Rows)
		}
		if res.Blocks != 512/32 {
			t.Fatalf("%s: %d blocks", mode, res.Blocks)
		}
		if res.RowsPerSec <= 0 || res.P50Ms <= 0 || res.P99Ms < res.P50Ms {
			t.Fatalf("%s: implausible measurement %+v", mode, res)
		}
	}
}

// TestZipfSkew just exercises the skewed picker end to end.
func TestZipfSkew(t *testing.T) {
	url := testTarget(t)
	res := runMode(t, url, ModeFrames, 1.3)
	if res.Errors != 0 || res.Rows != 512 {
		t.Fatalf("zipf run %+v", res)
	}
}

// TestRecordSpeedup: each mode becomes one artifact row, and a stream
// mode run after the rows mode gets its speedup over it.
func TestRecordSpeedup(t *testing.T) {
	art := bench.New("load")
	if sp := Record(art, Result{Mode: ModeNDJSON, RowsPerSec: 500}); sp != 0 {
		t.Fatalf("speedup %v before the rows mode ran", sp)
	}
	if sp := Record(art, Result{Mode: ModeRows, Tenants: 8, Workers: 4, Batch: 1, RowsPerSec: 1000}); sp != 0 {
		t.Fatalf("rows mode speedup %v over itself", sp)
	}
	if sp := Record(art, Result{Mode: ModeFrames, RowsPerSec: 12000}); sp != 12 {
		t.Fatalf("frames speedup %v, want 12", sp)
	}
	rows := art.Find(map[string]string{"mode": ModeRows, "tenants": "8", "workers": "4", "batch": "1"})
	if len(art.Results) != 3 || rows == nil || rows.Metrics["rows_per_sec"] != 1000 {
		t.Fatalf("artifact rows %+v", art.Results)
	}
	if _, ok := rows.Metrics["speedup_vs_rows"]; ok {
		t.Fatal("rows mode carries a speedup")
	}
	if got := art.Results[2].Metrics["speedup_vs_rows"]; got != 12 {
		t.Fatalf("frames row speedup_vs_rows = %v", got)
	}
}

// TestPercentiles pins the estimator.
func TestPercentiles(t *testing.T) {
	lat := make([]float64, 100)
	for i := range lat {
		lat[i] = float64(i + 1)
	}
	p50, p99 := percentiles(lat)
	if p50 != 51 || p99 != 99 {
		t.Fatalf("p50=%v p99=%v", p50, p99)
	}
	if a, b := percentiles(nil); a != 0 || b != 0 {
		t.Fatal("empty sample")
	}
}

// TestBadConfig rejects nonsense.
func TestBadConfig(t *testing.T) {
	if _, err := Run(Config{Mode: "carrier-pigeon", Tenants: 1, Rows: 1, D: 1}); err == nil {
		t.Fatal("unknown mode accepted")
	}
	if _, err := Run(Config{Mode: ModeRows}); err == nil {
		t.Fatal("zero config accepted")
	}
}
