package mat

import (
	"fmt"
	"math"
)

// SVDResult holds a thin singular value decomposition A = U·diag(S)·Vᵀ
// with r = min(rows, cols) retained components. U is rows×r, V is
// cols×r, and S holds r singular values in descending order.
type SVDResult struct {
	U *Dense
	S []float64
	V *Dense
}

// SVD computes a thin singular value decomposition of a via the Gram
// trick: it eigendecomposes the smaller of AᵀA (cols×cols) and AAᵀ
// (rows×rows) with EigenSym and recovers the other factor by
// projection. This is the right trade for sketching shapes where one
// dimension is much smaller than the other.
//
// Singular vectors associated with (numerically) zero singular values
// are left as zero columns in the recovered factor; callers that only
// need Σ and Vᵀ (the FD shrink step) never touch them.
func SVD(a *Dense) SVDResult {
	r, c := a.Dims()
	if r == 0 || c == 0 {
		return SVDResult{U: NewDense(r, 0), S: nil, V: NewDense(c, 0)}
	}
	if r <= c {
		return svdViaAAT(a)
	}
	return svdViaATA(a)
}

// svdViaAAT handles rows ≤ cols: eigendecompose AAᵀ to get U and Σ,
// then V = AᵀUΣ⁻¹.
func svdViaAAT(a *Dense) SVDResult {
	r, c := a.Dims()
	vals, u := EigenSym(a.GramT()) // r×r
	s := singularValues(vals)
	v := NewDense(c, r)
	// V[:,k] = Aᵀ u_k / s_k.
	for k := 0; k < r; k++ {
		if s[k] <= 0 {
			continue
		}
		inv := 1 / s[k]
		for i := 0; i < r; i++ {
			uik := u.data[i*r+k]
			if uik == 0 {
				continue
			}
			ai := a.data[i*c : (i+1)*c]
			f := uik * inv
			for j, av := range ai {
				v.data[j*r+k] += f * av
			}
		}
	}
	return SVDResult{U: u, S: s, V: v}
}

// svdViaATA handles rows > cols: eigendecompose AᵀA to get V and Σ,
// then U = AVΣ⁻¹.
func svdViaATA(a *Dense) SVDResult {
	r, c := a.Dims()
	vals, v := EigenSym(a.Gram()) // c×c
	s := singularValues(vals)
	u := NewDense(r, c)
	for i := 0; i < r; i++ {
		ai := a.data[i*c : (i+1)*c]
		ui := u.data[i*c : (i+1)*c]
		for k := 0; k < c; k++ {
			if s[k] <= 0 {
				continue
			}
			var dot float64
			for j, av := range ai {
				dot += av * v.data[j*c+k]
			}
			ui[k] = dot / s[k]
		}
	}
	return SVDResult{U: u, S: s, V: v}
}

// singularValues converts eigenvalues of a Gram matrix to singular
// values, clamping small negative values (eigensolver round-off) to
// zero.
func singularValues(vals []float64) []float64 {
	s := make([]float64, len(vals))
	for i, v := range vals {
		if v > 0 {
			s[i] = math.Sqrt(v)
		}
	}
	return s
}

// SingularValues returns only the singular values of a, in descending
// order, computed via the smaller Gram matrix.
func SingularValues(a *Dense) []float64 {
	r, c := a.Dims()
	if r == 0 || c == 0 {
		return nil
	}
	var vals []float64
	if r <= c {
		vals, _ = EigenSym(a.GramT())
	} else {
		vals, _ = EigenSym(a.Gram())
	}
	return singularValues(vals)
}

// RankK returns the best rank-k approximation of a in the Frobenius
// norm, represented as the k×cols matrix Σ_k·V_kᵀ (so that
// (Σ_kV_kᵀ)ᵀ(Σ_kV_kᵀ) = (A_k)ᵀ(A_k)). If k exceeds min(rows, cols) the
// full ΣVᵀ is returned.
func RankK(a *Dense, k int) *Dense {
	if k < 0 {
		panic(fmt.Sprintf("mat: RankK with k=%d", k))
	}
	res := SVD(a)
	r := len(res.S)
	if k > r {
		k = r
	}
	out := NewDense(k, a.cols)
	for i := 0; i < k; i++ {
		si := res.S[i]
		for j := 0; j < a.cols; j++ {
			out.data[i*a.cols+j] = si * res.V.data[j*r+i]
		}
	}
	return out
}

// SpectralNorm returns ‖a‖₂ = σ₁(a), the largest singular value, using
// power iteration on the implicit Gram operator x ↦ Aᵀ(Ax). It never
// materialises AᵀA, so it is cheap for short-and-wide matrices.
func SpectralNorm(a *Dense) float64 {
	r, c := a.Dims()
	if r == 0 || c == 0 {
		return 0
	}
	lam := powerIteration(c, func(x, out []float64) {
		// out = Aᵀ(Ax)
		for i := range out {
			out[i] = 0
		}
		for i := 0; i < r; i++ {
			ai := a.data[i*c : (i+1)*c]
			d := Dot(ai, x)
			if d == 0 {
				continue
			}
			for j, av := range ai {
				out[j] += d * av
			}
		}
	})
	if lam < 0 {
		lam = 0
	}
	return math.Sqrt(lam)
}

// SymSpectralNorm returns ‖s‖₂ = max|eigenvalue| of a symmetric matrix
// s, by power iteration on s² applied implicitly (two multiplications
// by s), which converges to the squared dominant eigenvalue regardless
// of its sign.
func SymSpectralNorm(s *Dense) float64 {
	n := s.rows
	if s.cols != n {
		panic(fmt.Sprintf("mat: SymSpectralNorm of non-square %d×%d", s.rows, s.cols))
	}
	if n == 0 {
		return 0
	}
	tmp := make([]float64, n)
	lam2 := powerIteration(n, func(x, out []float64) {
		symMulVec(s, x, tmp)
		symMulVec(s, tmp, out)
	})
	if lam2 < 0 {
		lam2 = 0
	}
	return math.Sqrt(lam2)
}

func symMulVec(s *Dense, x, out []float64) {
	n := s.rows
	for i := 0; i < n; i++ {
		out[i] = Dot(s.data[i*n:(i+1)*n], x)
	}
}

// powerIteration runs power iteration with the operator op (out = M·x)
// on dimension n, returning the dominant Rayleigh quotient xᵀMx for a
// symmetric positive semi-definite M. A deterministic pseudo-random
// start vector keeps results reproducible.
func powerIteration(n int, op func(x, out []float64)) float64 {
	const (
		maxIter = 300
		tol     = 1e-10
	)
	x := make([]float64, n)
	// Deterministic, non-degenerate start: a fixed LCG keyed by index.
	seed := uint64(0x9e3779b97f4a7c15)
	for i := range x {
		seed = seed*6364136223846793005 + 1442695040888963407
		x[i] = float64(int64(seed>>11))/float64(1<<52) + 1e-3
	}
	normalize(x)

	y := make([]float64, n)
	prev := math.Inf(1)
	for it := 0; it < maxIter; it++ {
		op(x, y)
		lam := Dot(x, y)
		ny := Norm2(y)
		if ny == 0 {
			return 0
		}
		for i := range x {
			x[i] = y[i] / ny
		}
		if math.Abs(lam-prev) <= tol*math.Max(math.Abs(lam), 1) {
			return lam
		}
		prev = lam
	}
	op(x, y)
	return Dot(x, y)
}

func normalize(x []float64) {
	n := Norm2(x)
	if n == 0 {
		return
	}
	for i := range x {
		x[i] /= n
	}
}

// CovarianceError returns the paper's error measure
// ‖AᵀA − BᵀB‖₂ / ‖A‖²_F given the exact Gram matrix gramA = AᵀA, its
// squared Frobenius mass froSqA = ‖A‖²_F, and the approximation B.
// B may be nil or empty, in which case BᵀB = 0. A zero froSqA (empty
// window) yields error 0 by convention.
func CovarianceError(gramA *Dense, froSqA float64, b *Dense) float64 {
	if froSqA == 0 {
		return 0
	}
	diff := gramA.Clone()
	if b != nil && b.rows > 0 {
		if b.cols != gramA.cols {
			panic(fmt.Sprintf("mat: covariance error with B of %d cols vs %d", b.cols, gramA.cols))
		}
		for i := 0; i < b.rows; i++ {
			AddOuterTo(diff, b.Row(i), -1)
		}
	}
	return SymSpectralNorm(diff) / froSqA
}

// ProjectionError returns the relative rank-k projection error of an
// approximation b against the matrix a:
//
//	‖A − A·V_k·V_kᵀ‖²_F / ‖A − A_k‖²_F ,
//
// where V_k holds the top-k right singular vectors of B and A_k is the
// best rank-k approximation of A. This is the second standard quality
// measure in the FrequentDirections literature (and the "different
// error metrics" direction the paper leaves as future work): it asks
// whether B's top subspace captures A, rather than whether BᵀB matches
// AᵀA in every direction. Values close to 1 are optimal; the measure
// is ≥ 1 up to round-off. Returns 0 when A has rank ≤ k (the
// denominator vanishes and any subspace is exact) and +Inf when B is
// empty but A is not.
func ProjectionError(a, b *Dense, k int) float64 {
	if k < 1 {
		panic(fmt.Sprintf("mat: ProjectionError with k=%d", k))
	}
	if a.Rows() == 0 {
		return 0
	}
	// Denominator: ‖A − A_k‖²_F = Σ_{i>k} σᵢ²(A).
	sa := SingularValues(a)
	var denom float64
	for i := k; i < len(sa); i++ {
		denom += sa[i] * sa[i]
	}
	return ProjectionErrorGivenTail(a, denom, b, k)
}

// ProjectionErrorGivenTail is ProjectionError with the denominator
// ‖A − A_k‖²_F supplied by the caller — the evaluation harness computes
// A's spectrum once per query point and amortises it across sketches.
func ProjectionErrorGivenTail(a *Dense, tailMass float64, b *Dense, k int) float64 {
	if k < 1 {
		panic(fmt.Sprintf("mat: ProjectionError with k=%d", k))
	}
	if a.Rows() == 0 {
		return 0
	}
	if tailMass <= 1e-12*a.FrobeniusSq() {
		return 0
	}
	if b == nil || b.Rows() == 0 {
		return math.Inf(1)
	}
	if b.Cols() != a.Cols() {
		panic(fmt.Sprintf("mat: ProjectionError with B of %d cols vs %d", b.Cols(), a.Cols()))
	}
	// Numerator: ‖A‖²_F − ‖A·V_k‖²_F with V_k from B's SVD.
	res := SVD(b)
	kk := k
	if r := len(res.S); r < kk {
		kk = r
	}
	var captured float64
	d := a.Cols()
	col := make([]float64, d)
	for c := 0; c < kk; c++ {
		for j := 0; j < d; j++ {
			col[j] = res.V.At(j, c)
		}
		captured += SqNorm(a.MulVec(col))
	}
	num := a.FrobeniusSq() - captured
	if num < 0 {
		num = 0
	}
	return num / tailMass
}
