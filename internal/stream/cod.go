package stream

import (
	"fmt"
	"math"

	"swsketch/internal/mat"
	"swsketch/internal/trace"
)

// COD is a co-occurring-directions co-sketch for approximate matrix
// multiplication (AMM): it observes a stream of paired rows (aᵢ, bᵢ)
// from two correlated streams A ∈ R^{n×dA} and B ∈ R^{n×dB} and
// maintains two aligned buffers X, Y of at most ℓ rows each such that
//
//	‖AᵀB − XᵀY‖₂ ≤ Σδ ≈ O(‖A‖_F·‖B‖_F / ℓ),
//
// the co-sketch primitive behind "Optimal Approximate Matrix
// Multiplication over Sliding Window" (arXiv 2502.17940). The shared
// projection state is what makes the product estimate work: each
// shrink rotates BOTH buffers into the singular basis of the current
// product estimate XᵀY and soft-thresholds the product spectrum, so
// the two sides stay aligned row-for-row.
//
// Like FD, COD is deterministic and mergeable (feed the other
// co-sketch's row pairs through the bulk path), which is exactly what
// the LM framework needs to lift it to sliding windows; and like
// FastFD it supports a widened working buffer (FDOpts.Buffer) that
// amortises shrinks, with FDOpts.Alpha tuning the cut depth.
//
// # Shrink step
//
// With X (n×dA), Y (n×dB) the occupied buffer rows:
//
//	QR(Xᵀ) = Qx·Rx, QR(Yᵀ) = Qy·Ry   (thin; Qx dA×kx, Rx kx×n)
//	M = Rx·Ryᵀ, SVD(M) = U·Σ·Vᵀ      (so XᵀY = Qx·U·Σ·Vᵀ·Qyᵀ)
//	δ = σ_idx(α), Σ̃ = max(Σ − δ, 0)
//	X' = Σ̃^{1/2}·Uᵀ·Qxᵀ, Y' = Σ̃^{1/2}·Vᵀ·Qyᵀ
//
// Every singular value of the product estimate moves by at most δ, so
// one shrink charges exactly δ of spectral product error — the
// accumulated Σδ is a certified error bound, exposed via Delta like
// FD's.
//
// # The stacked-row embedding
//
// COD implements the plain Sketch/Mergeable interfaces over STACKED
// rows [a|b] of dimension dA+dB: Update splits the row internally and
// Matrix returns the aligned [X|Y] rows. That embedding is what lets
// the LM and DI window frameworks host COD unchanged — raw stacked
// rows contribute exactly aᵀb to the product, block mass is
// ‖a‖²+‖b‖², and merges concatenate row pairs. Note the stacked
// output does NOT satisfy FD's covariance guarantee for the stacked
// matrix (orthogonal streams shrink to nothing); consumers must judge
// it by the AMM product metric.
type COD struct {
	ell   int // sketch size: max rows kept per side after a shrink
	dA    int
	dB    int
	bfac  int     // working-buffer factor b ≥ 1
	alpha float64 // shrink aggressiveness α ∈ (0,1]
	m     int     // working-buffer capacity b·ℓ

	bufX *mat.Dense // aligned working buffers; grow lazily ℓ → b·ℓ
	bufY *mat.Dense
	used int

	spareX *mat.Dense // shrink rebuild targets, reused across calls
	spareY *mat.Dense

	shrinks   uint64
	lastAmort float64

	// delta accumulates the δ charged by every shrink so far: the
	// product estimate's spectral error ‖AᵀB − XᵀY‖₂ is at most Σδ.
	delta float64

	tr *trace.Tracer
}

// NewCOD returns a co-occurring-directions co-sketch keeping at most
// ell row pairs over side dimensions dA and dB, with the classic
// shrink-on-full cadence. It panics unless CheckCOD accepts the shape.
func NewCOD(ell, dA, dB int) *COD {
	return NewCODOpts(ell, dA, dB, FDOpts{})
}

// NewCODOpts returns a COD co-sketch with the FastFD buffer
// discipline applied to both sides: o.Buffer widens the working
// buffers to b·ℓ row pairs between shrinks and o.Alpha tunes the cut
// depth. The zero FDOpts selects the classic cadence. It panics with
// CheckCOD's error.
func NewCODOpts(ell, dA, dB int, o FDOpts) *COD {
	o = o.Normalize()
	if err := CheckCOD(ell, dA, dB, o); err != nil {
		panic(err)
	}
	return &COD{
		ell:   ell,
		dA:    dA,
		dB:    dB,
		bfac:  o.Buffer,
		alpha: o.Alpha,
		m:     o.Buffer * ell,
		bufX:  mat.NewDense(ell, dA),
		bufY:  mat.NewDense(ell, dB),
	}
}

// SetTracer attaches a tracer; each shrink emits an fd_shrink span
// under the COD name.
func (c *COD) SetTracer(tr *trace.Tracer) { c.tr = tr }

// D returns the stacked row dimension dA+dB the Sketch interface
// operates on.
func (c *COD) D() int { return c.dA + c.dB }

// DimA returns the A-side row dimension.
func (c *COD) DimA() int { return c.dA }

// DimB returns the B-side row dimension.
func (c *COD) DimB() int { return c.dB }

// Ell returns the configured sketch size.
func (c *COD) Ell() int { return c.ell }

// Used reports the number of occupied row pairs.
func (c *COD) Used() int { return c.used }

// Shrinks reports the number of shrink steps performed.
func (c *COD) Shrinks() uint64 { return c.shrinks }

// Amortization reports the last shrink's amortization factor (like
// FD's): row pairs absorbed per shrink relative to the classic
// cadence with the same survivor count.
func (c *COD) Amortization() float64 { return c.lastAmort }

// Delta reports the cumulative shrink charge Σδ since creation: a
// certified upper bound on ‖AᵀB − XᵀY‖₂ for the rows fed so far. Not
// persisted across snapshots.
func (c *COD) Delta() float64 { return c.delta }

// BufferFactor returns the working-buffer factor b.
func (c *COD) BufferFactor() int { return c.bfac }

// Alpha returns the shrink aggressiveness α.
func (c *COD) Alpha() float64 { return c.alpha }

// ensureRoom makes at least one row pair free: grow the lazy buffers
// toward b·ℓ first, shrink once the full working capacity is occupied.
func (c *COD) ensureRoom() {
	if c.used < c.bufX.Rows() {
		return
	}
	if c.bufX.Rows() < c.m {
		c.grow()
		return
	}
	c.shrink()
}

// grow doubles both buffer capacities, to at least ℓ and at most b·ℓ
// row pairs, preserving the occupied row pairs. (A restored co-sketch
// starts with only its restored row pairs.)
func (c *COD) grow() {
	rows := max(c.bufX.Rows()*2, c.ell)
	if rows > c.m {
		rows = c.m
	}
	nx := mat.NewDense(rows, c.dA)
	copy(nx.Data(), c.bufX.Data()[:c.used*c.dA])
	ny := mat.NewDense(rows, c.dB)
	copy(ny.Data(), c.bufY.Data()[:c.used*c.dB])
	c.bufX, c.bufY = nx, ny
}

// UpdatePaired inserts one row pair (a from the A stream, b from the
// B stream), shrinking first if the working buffers are full.
func (c *COD) UpdatePaired(a, b []float64) {
	if len(a) != c.dA || len(b) != c.dB {
		panic(fmt.Sprintf("stream: COD pair lengths (%d,%d), want (%d,%d)", len(a), len(b), c.dA, c.dB))
	}
	c.ensureRoom()
	copy(c.bufX.Row(c.used), a)
	copy(c.bufY.Row(c.used), b)
	c.used++
}

// Update inserts one stacked row [a|b] of length dA+dB (the Sketch
// interface the window frameworks drive).
func (c *COD) Update(row []float64) {
	if len(row) != c.dA+c.dB {
		panic(fmt.Sprintf("stream: COD stacked row length %d, want %d", len(row), c.dA+c.dB))
	}
	c.ensureRoom()
	copy(c.bufX.Row(c.used), row[:c.dA])
	copy(c.bufY.Row(c.used), row[c.dA:])
	c.used++
}

// UpdateBatch inserts stacked rows in order; identical to repeated
// Update calls (COD is deterministic), with the validation hoisted.
func (c *COD) UpdateBatch(rows [][]float64) {
	for i, r := range rows {
		if len(r) != c.dA+c.dB {
			panic(fmt.Sprintf("stream: COD batch row %d length %d, want %d", i, len(r), c.dA+c.dB))
		}
	}
	for _, r := range rows {
		c.ensureRoom()
		copy(c.bufX.Row(c.used), r[:c.dA])
		copy(c.bufY.Row(c.used), r[c.dA:])
		c.used++
	}
}

// updateDensePair bulk-inserts aligned row blocks (the merge path).
func (c *COD) updateDensePair(x, y *mat.Dense) {
	total := x.Rows()
	for i := 0; i < total; i++ {
		c.ensureRoom()
		copy(c.bufX.Row(c.used), x.Row(i))
		copy(c.bufY.Row(c.used), y.Row(i))
		c.used++
	}
}

// shrinkIdx returns the (1-based) index of the product singular value
// charged as δ — the same α-interpolation FD uses, from ℓ (cut as
// little as possible) down to ⌈ℓ/2⌉ (classic halving). Survivors
// number at most shrinkIdx−1, so a shrink always frees buffer rows.
func (c *COD) shrinkIdx() int {
	half := (c.ell + 1) / 2
	return c.ell - int(math.Floor(c.alpha*float64(c.ell-half)))
}

// shrink rotates both buffers into the singular basis of the current
// product estimate XᵀY and soft-thresholds the product spectrum by
// δ = σ_{idx(α)}; see the type comment for the algebra.
func (c *COD) shrink() {
	n := c.used
	if n == 0 {
		return
	}
	c.shrinks++
	sp := c.tr.Start("COD", trace.KindFDShrink, 0)

	x := mat.NewDenseData(n, c.dA, c.bufX.Data()[:n*c.dA])
	y := mat.NewDenseData(n, c.dB, c.bufY.Data()[:n*c.dB])

	qx := mat.QR(x.T()) // Qx: dA×kx, Rx: kx×n
	qy := mat.QR(y.T()) // Qy: dB×ky, Ry: ky×n
	kx, ky := qx.Q.Cols(), qy.Q.Cols()

	// M = Rx·Ryᵀ carries the full product: XᵀY = Qx·M·Qyᵀ.
	mm := mat.NewDense(kx, ky)
	mat.MulTo(mm, qx.R, qy.R.T())
	sv := mat.SVD(mm) // U kx×r, S desc, V ky×r

	delta := shrinkLambda(sv.S, c.shrinkIdx())
	c.delta += delta
	kept := 0
	for kept < len(sv.S) && sv.S[kept] > delta && sv.S[kept] > 0 {
		kept++
	}

	if c.spareX == nil || c.spareX.Rows() != c.bufX.Rows() {
		c.spareX = mat.NewDense(c.bufX.Rows(), c.dA)
		c.spareY = mat.NewDense(c.bufX.Rows(), c.dB)
	}
	if kept > 0 {
		// X' = Σ̃^{1/2}·Uᵀ·Qxᵀ, written straight into the spare buffer,
		// then the Y side with V and Qy.
		ut := mat.NewDense(kept, kx)
		mat.TransposeInto(ut, sv.U, kept)
		dstX := mat.NewDenseData(kept, c.dA, c.spareX.Data()[:kept*c.dA])
		mat.MulTo(dstX, ut, qx.Q.T())
		vt := mat.NewDense(kept, ky)
		mat.TransposeInto(vt, sv.V, kept)
		dstY := mat.NewDenseData(kept, c.dB, c.spareY.Data()[:kept*c.dB])
		mat.MulTo(dstY, vt, qy.Q.T())
		for k := 0; k < kept; k++ {
			scale := math.Sqrt(sv.S[k] - delta)
			rx := dstX.Row(k)
			for j := range rx {
				rx[j] *= scale
			}
			ry := dstY.Row(k)
			for j := range ry {
				ry[j] *= scale
			}
		}
	}
	zeroTail(c.spareX, kept, c.dA)
	zeroTail(c.spareY, kept, c.dB)
	c.bufX, c.spareX = c.spareX, c.bufX
	c.bufY, c.spareY = c.spareY, c.bufY
	c.used = kept
	c.lastAmort = float64(n-kept) / float64(c.ell-kept)
	if sp.Active() {
		sp.EndNote(float64(n), float64(kept),
			fmt.Sprintf("occ=%d/%d delta=%.3g b=%d alpha=%g", n, c.m, delta, c.bfac, c.alpha))
	}
}

// Matrix returns the occupied row pairs as stacked rows [X|Y] of
// width dA+dB — the Sketch-interface answer the window frameworks
// concatenate and merge. Product recovers the AᵀB estimate from it.
func (c *COD) Matrix() *mat.Dense {
	out := mat.NewDense(c.used, c.dA+c.dB)
	for i := 0; i < c.used; i++ {
		row := out.Row(i)
		copy(row[:c.dA], c.bufX.Row(i))
		copy(row[c.dA:], c.bufY.Row(i))
	}
	return out
}

// Product returns the current AᵀB estimate XᵀY (dA×dB).
func (c *COD) Product() *mat.Dense {
	x := mat.NewDenseData(c.used, c.dA, c.bufX.Data()[:c.used*c.dA])
	y := mat.NewDenseData(c.used, c.dB, c.bufY.Data()[:c.used*c.dB])
	p := mat.NewDense(c.dA, c.dB)
	if c.used > 0 {
		mat.MulTo(p, x.T(), y)
	}
	return p
}

// RowsStored reports the sketch size ℓ (row pairs), the paper's
// space-accounting measure; the widened working buffer is an
// implementation detail exposed via Stats as buffer_cap.
func (c *COD) RowsStored() int { return c.ell }

// Stats exposes the co-sketch's internals for instrumentation.
func (c *COD) Stats() map[string]float64 {
	return map[string]float64{
		"ell":           float64(c.ell),
		"d_a":           float64(c.dA),
		"d_b":           float64(c.dB),
		"used":          float64(c.used),
		"headroom":      float64(c.m - c.used),
		"shrinks":       float64(c.shrinks),
		"buffer_cap":    float64(c.m),
		"buffer_factor": float64(c.bfac),
		"alpha":         c.alpha,
		"amortization":  c.lastAmort,
		"delta":         c.delta,
	}
}

// Merge absorbs other (a *COD over the same side dimensions) by
// feeding its aligned row pairs through the bulk path; the COD
// analysis makes the merge error- and size-preserving, which is what
// the LM lift relies on. Other is read, never modified.
func (c *COD) Merge(other Mergeable) {
	o, ok := other.(*COD)
	if !ok {
		panic(fmt.Sprintf("stream: COD.Merge with %T", other))
	}
	if o.dA != c.dA || o.dB != c.dB {
		panic(fmt.Sprintf("stream: COD.Merge dims (%d,%d) vs (%d,%d)", o.dA, o.dB, c.dA, c.dB))
	}
	if o.used == 0 {
		return
	}
	x := mat.NewDenseData(o.used, o.dA, o.bufX.Data()[:o.used*o.dA])
	y := mat.NewDenseData(o.used, o.dB, o.bufY.Data()[:o.used*o.dB])
	c.updateDensePair(x, y)
}

// CloneEmpty returns a fresh COD with the same ℓ, side dimensions,
// and buffer discipline.
func (c *COD) CloneEmpty() Mergeable {
	return NewCODOpts(c.ell, c.dA, c.dB, FDOpts{Buffer: c.bfac, Alpha: c.alpha})
}

var _ Mergeable = (*COD)(nil)
