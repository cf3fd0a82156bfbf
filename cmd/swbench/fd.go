package main

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"swsketch/internal/bench"
	"swsketch/internal/mat"
	"swsketch/internal/stream"
)

// fdGrid is the shipped sweep: every (b, α) combination the facade
// exposes as a recommendation, at the two sketch sizes the acceptance
// bar names.
var (
	fdElls    = []int{64, 256}
	fdBuffers = []int{1, 2, 4}
	fdAlphas  = []float64{0.25, 0.5, 1}
)

const fdDim = 256

// runFD benchmarks the FastFD ingest hot path across the (b, α) grid.
// Each row is one (ℓ, b, α) point: wall-clock per row, and the
// measured covariance error ‖AᵀA−BᵀB‖₂/‖A‖²_F against the exact stream,
// judged against Liberty's 2/ℓ bound (checkFD). speedup_vs_classic
// compares against the (b=1, α=1) run at the same ℓ, the headline
// number for the doubled-buffer discipline. The regime label names
// the shrink's eigenproblem side: "n-side" solves the m×m Gram of the
// working buffer (m = b·ℓ rows), "d-side" the d×d covariance. Once
// b·ℓ ≥ d the shrink flips to d-side, which is why b=4 at ℓ=64, d=256
// is slower than b=2 despite shrinking less often.
func runFD(out io.Writer, _ scaleCfg, art *bench.Artifact) error {
	// The classic cadence is every row's speedup denominator, so
	// measure it first.
	classic := map[int]bench.Row{}
	for _, ell := range fdElls {
		classic[ell] = benchFDPoint(ell, 1, 1)
	}
	for _, ell := range fdElls {
		for _, b := range fdBuffers {
			for _, alpha := range fdAlphas {
				r := classic[ell]
				if b != 1 || alpha != 1 {
					r = benchFDPoint(ell, b, alpha)
				}
				m := r.Metrics
				m["speedup_vs_classic"] = classic[ell].Metrics["ns_per_update"] / m["ns_per_update"]
				art.Add(r.Labels, m)
				fmt.Fprintf(out, "fd ell=%-4d b=%d alpha=%-4v %10.0f ns/update  err %.5f (bound %.5f)  %5.2fx  %s\n",
					ell, b, alpha, m["ns_per_update"], m["cova_err"], m["bound"], m["speedup_vs_classic"], r.Labels["regime"])
			}
		}
	}
	return nil
}

// checkFD fails the run when a grid point's error exceeds its 2/ℓ
// bound.
func checkFD(art *bench.Artifact) error {
	for _, r := range art.Results {
		if m := r.Metrics; m["within_bound"] == 0 {
			return fmt.Errorf("fd: b=%s alpha=%s ell=%s error %v exceeds bound %v",
				r.Labels["buffer"], r.Labels["alpha"], r.Labels["ell"], m["cova_err"], m["bound"])
		}
	}
	return nil
}

// benchFDPoint times one configuration and measures its accuracy on
// the same deterministic Gaussian stream.
func benchFDPoint(ell, b int, alpha float64) bench.Row {
	rng := rand.New(rand.NewSource(97))
	m := b * ell
	n := 3 * m
	if n < 2048 {
		n = 2048
	}
	a := mat.NewDense(n, fdDim)
	for i := range a.Data() {
		a.Data()[i] = rng.NormFloat64()
	}

	opts := stream.FDOpts{Buffer: b, Alpha: alpha}
	// Warm-up pass: page in the buffers and exercise at least one full
	// shrink cycle before the timed run.
	warm := stream.NewFDOpts(ell, fdDim, opts)
	for i := 0; i < m+1 && i < n; i++ {
		warm.Update(a.Row(i))
	}

	best := 0.0
	var f *stream.FD
	for rep := 0; rep < 3; rep++ {
		f = stream.NewFDOpts(ell, fdDim, opts)
		start := time.Now()
		for i := 0; i < n; i++ {
			f.Update(a.Row(i))
		}
		ns := float64(time.Since(start).Nanoseconds()) / float64(n)
		if best == 0 || ns < best {
			best = ns
		}
	}

	errRel := mat.CovarianceError(a.Gram(), a.FrobeniusSq(), f.Matrix())
	bound := 2 / float64(ell)
	regime := "n-side"
	if m >= fdDim {
		regime = "d-side"
	}
	return bench.Row{
		Labels: map[string]string{
			"ell": fmt.Sprint(ell), "d": fmt.Sprint(fdDim),
			"buffer": fmt.Sprint(b), "alpha": fmt.Sprint(alpha), "regime": regime,
		},
		Metrics: map[string]float64{
			"ns_per_update": best,
			"cova_err":      errRel,
			"bound":         bound,
			"within_bound":  bench.Flag(errRel <= bound),
		},
	}
}
