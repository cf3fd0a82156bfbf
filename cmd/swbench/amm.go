package main

import (
	"encoding"
	"fmt"
	"io"
	"math/rand"

	"swsketch/internal/bench"
	"swsketch/internal/core"
	"swsketch/internal/data"
	"swsketch/internal/eval"
	"swsketch/internal/window"
)

// ammEllGrid sweeps the per-block co-sketch size.
var ammEllGrid = []int{16, 32, 64}

// ammSlack is the per-framework window-maintenance slack multiplying
// the 4/ℓ stream bound. LM answers with a logarithmic stack of COD
// blocks whose shrink charges add across levels (measured ≈1.2× on
// this workload, shipped with headroom); DI answers with a dyadic
// block union that over-covers the window cutoff, inflating the
// numerator by the level fan-out (measured ≈3–4×, shipped with
// headroom).
var ammSlack = map[string]float64{
	"LM-AMM": 3,
	"DI-AMM": 8,
}

// ammDataset generates the correlated paired stream: both sides load
// on a shared k-dimensional latent factor (plus 25% isotropic noise),
// so AᵀB carries real cross-correlation structure for the sketches to
// preserve — independent sides would make even the zero answer look
// good on the correlation metric.
func ammDataset(n, dA, dB, k int, seed int64) *data.Dataset {
	rng := rand.New(rand.NewSource(seed))
	gA := make([][]float64, k)
	gB := make([][]float64, k)
	for f := 0; f < k; f++ {
		gA[f] = make([]float64, dA)
		gB[f] = make([]float64, dB)
		for j := range gA[f] {
			gA[f][j] = rng.NormFloat64()
		}
		for j := range gB[f] {
			gB[f][j] = rng.NormFloat64()
		}
	}
	ds := &data.Dataset{Name: "PAIRED", Rows: make([][]float64, n), Times: make([]float64, n)}
	z := make([]float64, k)
	for i := 0; i < n; i++ {
		for f := range z {
			z[f] = rng.NormFloat64()
		}
		row := make([]float64, dA+dB)
		for j := 0; j < dA; j++ {
			v := 0.0
			for f := 0; f < k; f++ {
				v += z[f] * gA[f][j]
			}
			row[j] = v + 0.25*rng.NormFloat64()
		}
		for j := 0; j < dB; j++ {
			v := 0.0
			for f := 0; f < k; f++ {
				v += z[f] * gB[f][j]
			}
			row[dA+j] = v + 0.25*rng.NormFloat64()
		}
		ds.Rows[i] = row
		ds.Times[i] = float64(i)
	}
	return ds
}

// runAMM benchmarks the paired frameworks on the correlated stream
// across the ℓ grid against the exact-AᵀB oracle. Each row is one
// framework at one co-sketch size ℓ. avg_err and max_err are the
// correlation errors ‖AᵀB−XᵀY‖₂/(‖A‖_F·‖B‖_F) across the evaluated
// windows. bound is the grid point's acceptance gate (checkAMM): the
// COD stream-level correlation bound 4/ℓ (from the certified shrink
// charge Σδ ≤ 2(‖A‖²_F+‖B‖²_F)/ℓ, at balanced side masses) times the
// framework's documented window-maintenance slack. peak_rows is the
// largest RowsStored() observed and peak_bytes its float64 footprint;
// snapshot_bytes is the binary snapshot size after the full stream.
func runAMM(out io.Writer, sc scaleCfg, art *bench.Artifact) error {
	const dA, dB, latentK = 12, 8, 4
	d := dA + dB
	ds := ammDataset(sc.seqN, dA, dB, latentK, sc.seed)
	win := sc.win

	// DI declares the norm profile up front; scan once.
	maxSq := 0.0
	for _, row := range ds.Rows {
		sq := 0.0
		for _, v := range row {
			sq += v * v
		}
		if sq > maxSq {
			maxSq = sq
		}
	}

	art.Params = map[string]any{"dataset": ds.Name, "n": ds.N(), "window": win, "d_a": dA, "d_b": dB}
	for _, ell := range ammEllGrid {
		ell := ell
		specs := []eval.SketchSpec{
			{Label: "LM-AMM", Param: fmt.Sprintf("ell=%d", ell), New: func() core.WindowSketch {
				return core.NewLMAMM(window.Seq(win), dA, dB, ell, 8)
			}},
			{Label: "DI-AMM", Param: fmt.Sprintf("ell=%d", ell), New: func() core.WindowSketch {
				return core.NewDIAMM(core.DIConfig{
					N: win, R: maxSq * 1.01, L: 5, Ell: ell, RSlack: 2,
				}, dA, dB)
			}},
		}
		ms := eval.EvaluateAMM(ds, specs, eval.Config{
			Spec: window.Seq(win), QueryStride: sc.stride, Warmup: win, MaxQueries: sc.maxQ,
		}, dA)
		for i, m := range ms {
			bound := ammSlack[m.Label] * 4 / float64(ell)
			// Snapshot size after the full stream (both frameworks
			// marshal; a refusal just reports 0).
			snapshotBytes := 0
			sk := specs[i].New()
			sk.UpdateBatch(ds.Rows, ds.Times)
			if mb, ok := sk.(encoding.BinaryMarshaler); ok {
				if blob, err := mb.MarshalBinary(); err == nil {
					snapshotBytes = len(blob)
				}
			}
			art.Add(map[string]string{"algo": m.Label, "ell": fmt.Sprint(ell)}, map[string]float64{
				"avg_err":        m.AvgErr,
				"max_err":        m.MaxErr,
				"bound":          bound,
				"within_bound":   bench.Flag(m.MaxErr <= bound),
				"peak_rows":      float64(m.MaxRows),
				"peak_bytes":     float64(m.MaxRows * d * 8),
				"snapshot_bytes": float64(snapshotBytes),
				"ns_per_update":  m.NsPerUpdate,
				"queries":        float64(m.Queries),
			})
			fmt.Fprintf(out, "amm ell=%-4d %-7s err avg %.5f max %.5f  bound %.4f  peak %5d rows (%7d B)  snap %6d B  %6.0f ns/update\n",
				ell, m.Label, m.AvgErr, m.MaxErr, bound, m.MaxRows, m.MaxRows*d*8, snapshotBytes, m.NsPerUpdate)
		}
	}
	return nil
}

// checkAMM enforces the shipping bar: every grid point's worst
// observed correlation error within its slacked 4/ℓ bound.
func checkAMM(art *bench.Artifact) error {
	for _, r := range art.Results {
		if m := r.Metrics; m["within_bound"] == 0 {
			return fmt.Errorf("amm: %s ell=%s max correlation error %.4f exceeds bound %.4f",
				r.Labels["algo"], r.Labels["ell"], m["max_err"], m["bound"])
		}
	}
	return nil
}
