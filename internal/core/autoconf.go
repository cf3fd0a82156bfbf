package core

import (
	"fmt"
	"math"

	"swsketch/internal/stream"
	"swsketch/internal/window"
)

// Auto-configuration: translate a target covariance error ε into the
// sketch knobs. The theoretical constants (Table 1) are loose by an
// order of magnitude on real data — the paper says as much ("the bad
// bases that actually meet those loose upper bounds almost never
// happen") — so these use the practical calibration observed across
// the reproduction harness's datasets (EXPERIMENTS.md): they hit the
// target within a small factor on benign data and err toward more
// space. They are starting points, not guarantees; adversarial streams
// revert to the theory.

// AutoLMFD returns an LM-FD sketch sized for target error eps.
// Calibration: per-block FD size ℓ ≈ 1/ε dominates accuracy; blocks
// per level b ≈ 1/(3ε) controls the expiring-block term, which only
// binds on drifting data.
func AutoLMFD(spec window.Spec, d int, eps float64) *LM {
	return AutoLMFDOpts(spec, d, eps, stream.FDOpts{})
}

// AutoLMFDOpts is AutoLMFD with FastFD ingest tuning applied to the
// auto-sized block sketches; sizing is unchanged (the error bound is
// (b, α)-independent), so the zero FDOpts reproduces AutoLMFD exactly.
func AutoLMFDOpts(spec window.Spec, d int, eps float64, o stream.FDOpts) *LM {
	ell, b := autoLMSize("AutoLMFD", eps)
	return NewLMFDOpts(spec, d, ell, b, o)
}

// autoLMSize is the LM sizing of AutoLMFD and AutoAMM for target error
// eps: ℓ ≈ 1/ε and b ≈ 1/(3ε).
func autoLMSize(algo string, eps float64) (ell, b int) {
	mustTargetEps(algo, eps)
	ell = clampInt(int(math.Ceil(1/eps)), 8, 512)
	b = clampInt(int(math.Ceil(1/(3*eps))), 4, 64)
	return ell, b
}

// AutoDIFD returns a DI-FD sketch sized for target error eps over a
// sequence window of n rows whose squared norms lie in
// [maxSqNorm/ratio, maxSqNorm]. Levels follow the paper's
// L = ⌈log₂(ratio/ε)⌉ with the practical blocks-per-window clamp
// (see cmd/swbench); the answer budget is ℓ ≈ 4/ε rows.
func AutoDIFD(n int, d int, eps, maxSqNorm, ratio float64) *DI {
	mustTargetEps("AutoDIFD", eps)
	if ratio < 1 {
		ratio = 1
	}
	l := clampInt(int(math.Ceil(math.Log2(ratio/eps))), 3, 22)
	ell := clampInt(int(math.Ceil(4/eps)), 8, 2048)
	return NewDIFD(DIConfig{N: n, R: maxSqNorm, L: l, Ell: ell, RSlack: 1.01}, d)
}

// AutoDSFD returns a DS-FD sketch sized for target error eps over a
// sequence window of n rows, with the norm bound R tracked adaptively.
// Calibration: DS-FD's absolute error is within θ = N·R/ℓ, so on a
// window whose rows sit near the norm bound the relative error is
// ≈ 1/ℓ; skewed norm profiles lose up to the window's norm ratio, so
// the practical sizing ℓ ≈ 2/ε leaves headroom without the DI
// framework's explicit ratio parameter.
func AutoDSFD(n, d int, eps float64) *DSFD {
	return AutoDSFDOpts(n, d, eps, stream.FDOpts{})
}

// AutoDSFDOpts is AutoDSFD with FastFD ingest tuning applied to the
// frame sketches; sizing is unchanged (the error threshold is
// (b, α)-independent), so the zero FDOpts reproduces AutoDSFD exactly.
func AutoDSFDOpts(n, d int, eps float64, o stream.FDOpts) *DSFD {
	mustTargetEps("AutoDSFD", eps)
	ell := clampInt(int(math.Ceil(2/eps)), 8, 1024)
	return NewDSFD(DSFDConfig{N: n, Ell: ell, FD: o}, d)
}

// AutoSWR returns an SWR sampler sized for target error eps.
// Calibration: sampling error scales as c/√ℓ with c ≈ 0.4 on the
// harness datasets, so ℓ ≈ (0.4/ε)² — well below the d/ε² theory.
func AutoSWR(spec window.Spec, d int, eps float64, seed int64) *SWR {
	mustTargetEps("AutoSWR", eps)
	ell := clampInt(int(math.Ceil(0.16/(eps*eps))), 8, 4096)
	return NewSWR(spec, ell, d, seed)
}

// mustTargetEps panics unless an Auto constructor's target eps is in
// (0,1).
func mustTargetEps(algo string, eps float64) {
	if !(eps > 0 && eps < 1) {
		panic(fmt.Sprintf("core: %s target eps must be in (0,1), got %v", algo, eps))
	}
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
