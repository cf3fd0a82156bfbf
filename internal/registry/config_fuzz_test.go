package registry

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"
	"time"
)

// configFuzzSeeds are PUT bodies: a valid config of every framework
// and the configs that passed the old per-framework validation but
// panicked in a constructor or on a tenant's first merge.
var configFuzzSeeds = []string{
	`{"framework":"swr","window":"time","size":9.5,"d":3,"eps":0.3}`,
	`{"framework":"swor","size":40,"d":3,"ell":4}`,
	`{"framework":"swor-all","size":40,"d":3,"ell":4,"seed":7}`,
	`{"framework":"lm-fd","size":40,"d":3,"ell":4,"b":2,"fd_buffer":2,"fd_alpha":0.5}`,
	`{"framework":"lm-hash","window":"time","size":12,"d":3,"ell":4,"b":2}`,
	`{"framework":"di-fd","size":40,"d":3,"ell":8,"levels":3,"r":2}`,
	`{"framework":"ds-fd","size":40,"d":3,"ell":4,"r":0.5}`,
	`{"framework":"lm-amm","size":40,"d":4,"d_b":2,"ell":4,"b":2}`,
	`{"framework":"di-amm","size":40,"d":4,"d_b":1,"ell":8,"levels":3,"r":2}`,
	`{"framework":"lm-fd","size":40,"d":3,"ell":4,"b":1}`,
	`{"framework":"di-fd","size":40,"d":3,"ell":8,"levels":30,"r":2}`,
	`{"framework":"di-amm","size":40,"d":4,"d_b":1,"ell":1,"levels":3,"r":2}`,
	`{"framework":"lm-fd","size":40,"d":3,"ell":1}`,
	`{"framework":"lm-fd","size":40,"d":3,"ell":4,"fd_buffer":70000}`,
}

// FuzzConfigBuild decodes its input as PUT /v2/tenants/{id} does and
// checks that Build never panics: every limit a constructor states is
// returned as an error. Every config Build accepts must give a sketch
// that ingests rows scaled to squared norm ≤ min(1, r) when r > 0
// (≤ 1 otherwise), answers a query, and — where it snapshots —
// round-trips through a spill and restore to the same snapshot bytes.
// The target skips configs with d > 64 or ℓ > 256: those are the two
// knobs that allocate at construction, and until the per-tenant byte
// budget (ROADMAP 8) bounds them, an accepted config can still ask for
// more memory than the fuzzer has. The committed corpus
// (testdata/fuzz/FuzzConfigBuild) holds configFuzzSeeds.
func FuzzConfigBuild(f *testing.F) {
	for _, s := range configFuzzSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var cfg Config
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if dec.Decode(&cfg) != nil || cfg.D > 64 || cfg.Ell > 256 {
			return
		}
		if _, err := cfg.Build(); err != nil {
			return
		}
		clk := &fakeClock{t: time.Unix(1000, 0)}
		r := mustNew(t, WithSpillDir(t.TempDir()), WithEvictTTL(time.Minute), WithClock(clk.Now))
		tn, err := r.Create("f", cfg)
		if err != nil {
			t.Fatalf("Create rejected a config Build accepted: %v", err)
		}
		bound := 1.0
		if cfg.R > 0 {
			bound = math.Min(1, cfg.R)
		}
		step := 1.0
		if tn.Config().Window == WindowTime {
			step = 0.25
		}
		rng := rand.New(rand.NewSource(int64(len(data))))
		rows := make([][]float64, 48)
		times := make([]float64, len(rows))
		for i := range rows {
			row := make([]float64, cfg.D)
			var sq float64
			for j := range row {
				row[j] = rng.NormFloat64()
				sq += row[j] * row[j]
			}
			scale := math.Sqrt(bound*rng.Float64()/sq) * (1 - 1e-9)
			for j := range row {
				row[j] *= scale
			}
			rows[i], times[i] = row, float64(i)*step
		}
		last := times[len(times)-1]
		if err := tn.Acquire(); err != nil {
			t.Fatal(err)
		}
		tn.Sketch().UpdateBatch(rows[:40], times[:40])
		for i := 40; i < len(rows); i++ {
			tn.Sketch().Update(rows[i], times[i])
		}
		tn.Commit(len(rows))
		tn.Sketch().Query(last)
		before, err := tn.Sketch().MarshalBinary()
		tn.Release()
		if err != nil {
			return // LM-HASH refuses
		}
		clk.Advance(time.Hour)
		if n := r.Sweep(); n != 1 {
			t.Fatalf("Sweep evicted %d tenants, want 1", n)
		}
		if err := tn.Acquire(); err != nil {
			t.Fatalf("restore after a spill: %v", err)
		}
		defer tn.Release()
		after, err := tn.Sketch().MarshalBinary()
		if err != nil || !bytes.Equal(before, after) {
			t.Fatalf("restored tenant snapshots differently (err %v)", err)
		}
		tn.Sketch().Query(last)
	})
}
