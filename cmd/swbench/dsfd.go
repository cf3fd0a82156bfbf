package main

import (
	"encoding"
	"fmt"
	"io"
	"time"

	"swsketch/internal/bench"
	"swsketch/internal/core"
	"swsketch/internal/data"
	"swsketch/internal/window"
)

// dsfdEpsGrid is the matched-ε grid for the head-to-head: each sketch
// is auto-sized for the same target and judged on what it delivers.
var dsfdEpsGrid = []float64{0.05, 0.1, 0.2}

// runDSFD benchmarks DS-FD head-to-head against LM-FD and DI-FD on the
// Figure 6 workload (the skewed PAMAP sequence window) at matched
// target ε. Each row is one sketch at one ε: its measured error, its
// worst absolute error relative to the DS-FD threshold θ = N·R/ℓ, and
// its space. checkDSFD holds the acceptance bar for shipping the
// framework.
func runDSFD(out io.Writer, sc scaleCfg, art *bench.Artifact) error {
	ds := sc.seqDataset("PAMAP")
	d := ds.D()
	win := sc.win

	// The DI framework needs the norm profile declared up front; DS-FD
	// discovers it adaptively. Scan once for the head-to-head.
	maxSq, minSq := 0.0, 0.0
	for _, row := range ds.Rows {
		sq := 0.0
		for _, v := range row {
			sq += v * v
		}
		if sq > maxSq {
			maxSq = sq
		}
		if sq > 0 && (minSq == 0 || sq < minSq) {
			minSq = sq
		}
	}
	ratio := 1.0
	if minSq > 0 {
		ratio = maxSq / minSq
	}

	art.Params = map[string]any{"dataset": ds.Name, "n": ds.N(), "window": win, "d": d}
	for _, eps := range dsfdEpsGrid {
		// All three sketches at one grid point are judged against the
		// same yardstick: DS-FD's threshold θ = N·R/ℓ at the ℓ its
		// auto-sizing picks for this ε.
		dsEll := sketchEll(core.AutoDSFD(win, d, eps))
		theta := float64(win) * maxSq / float64(dsEll)
		sketches := []struct {
			algo string
			mk   func() core.WindowSketch
		}{
			{"DS-FD", func() core.WindowSketch { return core.AutoDSFD(win, d, eps) }},
			{"LM-FD", func() core.WindowSketch { return core.AutoLMFD(window.Seq(win), d, eps) }},
			{"DI-FD", func() core.WindowSketch { return core.AutoDIFD(win, d, eps, maxSq, ratio) }},
		}
		for _, s := range sketches {
			m := benchDSFDPoint(ds, win, sc.stride, sc.maxQ, theta, s.mk)
			art.Add(map[string]string{"algo": s.algo, "eps": fmt.Sprint(eps)}, m)
			fmt.Fprintf(out, "dsfd eps=%-5v %-6s ell=%-4.0f err avg %.5f max %.5f  vs-theta %.3f  peak %5.0f rows (%7.0f B)  %6.0f ns/update\n",
				eps, s.algo, m["ell"], m["avg_err"], m["max_err"], m["worst_vs_theta"], m["peak_rows"], m["peak_bytes"], m["ns_per_update"])
		}
	}
	return nil
}

// benchDSFDPoint streams the dataset through one sketch, evaluating
// the covariance error at the query stride and tracking peak space.
// avg_err and max_err are relative covariance errors across the
// evaluated windows; worst_vs_theta is the maximum over queries of
// |AᵀA−BᵀB|₂ / (N·R/ℓ), with R the stream's max squared row norm,
// which the DS-FD guarantee keeps ≤ 1. peak_rows is the largest
// RowsStored() at a query and peak_bytes its float64 footprint;
// snapshot_bytes is the binary snapshot size after the full stream (0
// when the sketch does not marshal).
func benchDSFDPoint(ds *data.Dataset, win, stride, maxQ int, theta float64, mk func() core.WindowSketch) map[string]float64 {
	sk := mk()
	spec := window.Seq(win)
	oracle := window.NewExact(spec, ds.D())

	var errSum, errMax, worstTheta float64
	queries, peakRows := 0, 0
	var ingestNs int64
	for i, row := range ds.Rows {
		t0 := time.Now()
		sk.Update(row, ds.Times[i])
		ingestNs += time.Since(t0).Nanoseconds()
		oracle.Update(row, ds.Times[i])
		if i >= win && (i-win)%stride == 0 && queries < maxQ {
			e := oracle.CovaErr(sk.Query(ds.Times[i]))
			errSum += e
			if e > errMax {
				errMax = e
			}
			// Judge the absolute error against the DS-FD threshold
			// θ = N·R/ℓ — the guarantee DS-FD claims and the common
			// yardstick for the head-to-head.
			if vs := e * oracle.FroSq() / theta; vs > worstTheta {
				worstTheta = vs
			}
			if rows := sk.RowsStored(); rows > peakRows {
				peakRows = rows
			}
			queries++
		}
	}

	avgErr, snapshotBytes := 0.0, 0
	if queries > 0 {
		avgErr = errSum / float64(queries)
	}
	if m, ok := sk.(encoding.BinaryMarshaler); ok {
		if blob, err := m.MarshalBinary(); err == nil {
			snapshotBytes = len(blob)
		}
	}
	return map[string]float64{
		"ell":            float64(sketchEll(sk)),
		"avg_err":        avgErr,
		"max_err":        errMax,
		"worst_vs_theta": worstTheta,
		"within_theta":   bench.Flag(worstTheta <= 1),
		"peak_rows":      float64(peakRows),
		"peak_bytes":     float64(peakRows * ds.D() * 8),
		"snapshot_bytes": float64(snapshotBytes),
		"ns_per_update":  float64(ingestNs) / float64(ds.N()),
	}
}

// sketchEll pulls the answer-size parameter out of a sketch's Stats
// ("ell" for DS-FD and DI, the per-block size for LM).
func sketchEll(sk core.WindowSketch) int {
	in, ok := sk.(core.Introspector)
	if !ok {
		return 0
	}
	st := in.Stats()
	if v, ok := st["ell"]; ok && v > 0 {
		return int(v)
	}
	return 0
}

// checkDSFD enforces the shipping bar: DS-FD within its θ guarantee at
// every grid point, and no more space than LM-FD at the same ε.
func checkDSFD(art *bench.Artifact) error {
	for _, eps := range dsfdEpsGrid {
		at := func(algo string) *bench.Row {
			return art.Find(map[string]string{"algo": algo, "eps": fmt.Sprint(eps)})
		}
		dsfd, lm := at("DS-FD"), at("LM-FD")
		if dsfd == nil || lm == nil {
			return fmt.Errorf("dsfd: grid point eps=%v missing a result", eps)
		}
		if dsfd.Metrics["within_theta"] == 0 {
			return fmt.Errorf("dsfd: eps=%v DS-FD absolute error %.3f× past the N·R/ℓ threshold", eps, dsfd.Metrics["worst_vs_theta"])
		}
		if ds, l := dsfd.Metrics["peak_bytes"], lm.Metrics["peak_bytes"]; ds > l {
			return fmt.Errorf("dsfd: eps=%v DS-FD peak %.0f bytes exceeds LM-FD's %.0f", eps, ds, l)
		}
	}
	return nil
}
