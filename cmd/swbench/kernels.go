package main

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"swsketch/internal/bench"
	"swsketch/internal/mat"
)

// runKernels benchmarks the internal/mat kernels (blocked, tiled,
// parallel) against local naive references, one row per operation and
// shape, echoing an aligned table to out. The shape list covers the
// regimes the acceptance bar names: large sketch-scale products
// (2048×256), the ℓ×d shapes FD shrinks produce, and small ℓ×ℓ
// matrices where the kernels must not regress.
func runKernels(out io.Writer, _ scaleCfg, art *bench.Artifact) error {
	rng := rand.New(rand.NewSource(42))

	record := func(op, shape string, opt, base float64) {
		art.Add(map[string]string{"op": op, "shape": shape}, map[string]float64{
			"ns_per_op": opt, "baseline_ns_per_op": base, "speedup": base / opt,
		})
		fmt.Fprintf(out, "%-6s %-14s %12.0f ns/op %12.0f ns/op (naive) %6.2fx\n",
			op, shape, opt, base, base/opt)
	}

	type mulShape struct{ m, k, n int }
	for _, s := range []mulShape{
		{2048, 256, 256}, // sketch-scale product, the headline shape
		{256, 2048, 256}, // deep inner dimension
		{24, 256, 256},   // Uᵀ·sub of an FD shrink (ℓ×n by n×d)
		{64, 64, 64},     // moderate square
		{24, 24, 24},     // small ℓ×ℓ: must not regress
	} {
		a := randMat(rng, s.m, s.k)
		b := randMat(rng, s.k, s.n)
		opt := benchNs(func() { mat.Mul(a, b) })
		base := benchNs(func() { naiveMul(a, b) })
		record("Mul", fmt.Sprintf("%dx%dx%d", s.m, s.k, s.n), opt, base)
	}

	type gramShape struct{ r, c int }
	for _, s := range []gramShape{
		{2048, 256}, // window-scale AᵀA
		{24, 256},   // short-and-wide sketch buffer
		{24, 24},    // small ℓ×ℓ: must not regress
	} {
		a := randMat(rng, s.r, s.c)
		opt := benchNs(func() { a.Gram() })
		base := benchNs(func() { naiveGram(a) })
		record("Gram", fmt.Sprintf("%dx%d", s.r, s.c), opt, base)
	}

	for _, s := range []gramShape{
		{24, 256},  // FD shrink's BBᵀ at typical ℓ, d
		{64, 2048}, // wider buffer
	} {
		a := randMat(rng, s.r, s.c)
		opt := benchNs(func() { a.GramT() })
		base := benchNs(func() { naiveGramT(a) })
		record("GramT", fmt.Sprintf("%dx%d", s.r, s.c), opt, base)
	}

	for _, n := range []int{256, 4096} {
		a := randVec(rng, n)
		b := randVec(rng, n)
		opt := benchNs(func() { mat.Dot(a, b) })
		base := benchNs(func() { naiveDot(a, b) })
		record("Dot", fmt.Sprintf("%d", n), opt, base)
	}
	return nil
}

// benchNs times one op: warm up, then repeat for ≥200ms of wall time
// per measurement and take the best of three measurements (min filters
// scheduler noise, which matters for the small shapes judged on a 5%
// regression bar).
func benchNs(f func()) float64 {
	f() // warm-up: pool start, cache residency
	best := 0.0
	for rep := 0; rep < 3; rep++ {
		iters := 0
		start := time.Now()
		for time.Since(start) < 200*time.Millisecond {
			f()
			iters++
		}
		ns := float64(time.Since(start).Nanoseconds()) / float64(iters)
		if best == 0 || ns < best {
			best = ns
		}
	}
	return best
}

func randMat(rng *rand.Rand, r, c int) *mat.Dense {
	m := mat.NewDense(r, c)
	d := m.Data()
	for i := range d {
		d[i] = rng.NormFloat64()
	}
	return m
}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// The naive references below mirror the scalar triple loops the
// compute layer replaced; they are the "before" in the speedup column.

func naiveMul(a, b *mat.Dense) *mat.Dense {
	m, k := a.Dims()
	_, n := b.Dims()
	out := mat.NewDense(m, n)
	for i := 0; i < m; i++ {
		oi := out.Row(i)
		ai := a.Row(i)
		for p := 0; p < k; p++ {
			v := ai[p]
			if v == 0 {
				continue
			}
			bp := b.Row(p)
			for j := range oi {
				oi[j] += v * bp[j]
			}
		}
	}
	return out
}

func naiveGram(a *mat.Dense) *mat.Dense {
	r, c := a.Dims()
	g := mat.NewDense(c, c)
	for i := 0; i < r; i++ {
		ri := a.Row(i)
		for p, v := range ri {
			if v == 0 {
				continue
			}
			gp := g.Row(p)
			for j, w := range ri {
				gp[j] += v * w
			}
		}
	}
	return g
}

func naiveGramT(a *mat.Dense) *mat.Dense {
	r, _ := a.Dims()
	g := mat.NewDense(r, r)
	for i := 0; i < r; i++ {
		ri := a.Row(i)
		gi := g.Row(i)
		for j := 0; j < r; j++ {
			gi[j] = naiveDot(ri, a.Row(j))
		}
	}
	return g
}

func naiveDot(a, b []float64) float64 {
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}
