package mat

import (
	"fmt"
	"math"
	"sort"
)

// SymEigTopK is a reusable partial eigensolver for symmetric matrices:
// it produces every eigenvalue but only the leading k eigenvectors,
// which is the exact shape of FrequentDirections' shrink step — the
// shrink threshold λ needs the full spectrum, while only the ~ℓ/2
// surviving directions need vectors. Compared to EigenSymQL it skips
// both accumulation passes (the tred2 Q build-up and the per-rotation
// tql2 column updates, together the dominant and most cache-hostile
// cost of the full decomposition) and replaces them with inverse
// iteration on the tridiagonal form plus a Householder back-transform
// of just the requested vectors, so the vector cost is O(k·n²) instead
// of O(n³) with a large constant.
//
// The pipeline is tred-reduce → values-only QL → inverse iteration
// (with cluster orthogonalization for near-equal eigenvalues) →
// back-transform. If inverse iteration fails a residual or
// orthogonality sanity check — possible only on pathological spectra —
// the solver falls back to the full EigenSymQL decomposition, so the
// result is always usable; the fallback is deterministic like
// everything else here.
//
// The zero value is ready to use. A SymEigTopK retains its scratch
// buffers across calls, keeping repeated decompositions of same-sized
// matrices allocation-free; it is not safe for concurrent use.
type SymEigTopK struct {
	n int
	a *Dense // caller's matrix, referenced for the fallback path

	w    []float64 // n×n reduction workspace (Householder vectors + tridiagonal)
	hs   []float64 // per-step Householder scalars h (0 = no reflector)
	diag []float64 // tridiagonal diagonal
	sub  []float64 // tridiagonal subdiagonal; sub[i] couples i−1 and i
	vals []float64 // eigenvalues, descending
	p    []float64 // symv scratch during reduction

	// inverse-iteration scratch: factor bands, multipliers, pivot
	// flags, and the current iterate.
	bu, bv, bw, bm []float64
	flip           []bool
	rv             []float64
}

// machEps is the double-precision unit roundoff.
var machEps = math.Nextafter(1, 2) - 1

func (s *SymEigTopK) resize(n int) {
	s.n = n
	s.w = fit(s.w, n*n)
	s.hs = fit(s.hs, n)
	s.diag = fit(s.diag, n)
	s.sub = fit(s.sub, n)
	s.vals = fit(s.vals, n)
	s.p = fit(s.p, n)
	s.bu = fit(s.bu, n)
	s.bv = fit(s.bv, n)
	s.bw = fit(s.bw, n)
	s.bm = fit(s.bm, n)
	s.rv = fit(s.rv, n)
	s.flip = fit(s.flip, n)
}

// Values computes the eigenvalues of the symmetric matrix a in
// descending order. The returned slice is owned by the solver and
// valid until the next Values call. a is not modified, but must remain
// valid and unchanged until the matching VectorsT call: the fallback
// path re-decomposes it.
func (s *SymEigTopK) Values(a *Dense) []float64 {
	n := a.rows
	if a.cols != n {
		panic(fmt.Sprintf("mat: SymEigTopK of non-square %d×%d", a.rows, a.cols))
	}
	s.resize(n)
	s.a = a
	if n == 0 {
		return s.vals
	}
	copy(s.w, a.data)
	tredReduce(s.w, n, s.hs, s.sub, s.p)
	for i := 0; i < n; i++ {
		s.diag[i] = s.w[i*n+i]
	}
	copy(s.vals, s.diag)
	// Root-free PWK iteration on squared subdiagonals is the fast
	// path; it squares the couplings, so fall back to the plain QL
	// sweep when the magnitudes could overflow the squares.
	e := s.bu // destructive scratch; re-initialised by the factorizations later
	maxAbs := 0.0
	for i := 1; i < n; i++ {
		if a := math.Abs(s.sub[i]); a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs < 1e150 {
		for i := 1; i < n; i++ {
			e[i-1] = s.sub[i] * s.sub[i]
		}
		e[n-1] = 0
		sterfValues(s.vals, e, n)
	} else {
		copy(e, s.sub)
		tqlValues(s.vals, e, n)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(s.vals)))
	return s.vals
}

// VectorsT returns the top k eigenvectors of the matrix last passed to
// Values as the rows of a freshly allocated k×n matrix (row j matches
// the j-th returned eigenvalue). The row-major transposed layout is
// what both FD rebuild paths consume directly. It panics if k is
// negative, exceeds n, or Values has not been called.
func (s *SymEigTopK) VectorsT(k int) *Dense {
	n := s.n
	if s.a == nil {
		panic("mat: SymEigTopK.VectorsT before Values")
	}
	if k < 0 || k > n {
		panic(fmt.Sprintf("mat: SymEigTopK.VectorsT k=%d with n=%d", k, n))
	}
	z := NewDense(k, n)
	s.VectorsTInto(z)
	return z
}

// VectorsTInto is VectorsT writing into caller-owned storage: dst must
// be k×n for the n of the matrix last passed to Values, and its row
// count selects k. Hot paths keep a dst sized for the largest k they
// request and pass a view, keeping the vector phase allocation-free.
func (s *SymEigTopK) VectorsTInto(z *Dense) {
	n := s.n
	if s.a == nil {
		panic("mat: SymEigTopK.VectorsTInto before Values")
	}
	k := z.rows
	if k > n || z.cols != n {
		panic(fmt.Sprintf("mat: SymEigTopK.VectorsTInto dst %d×%d with n=%d", z.rows, z.cols, n))
	}
	if k == 0 || n == 0 {
		return
	}
	for i := range z.data {
		z.data[i] = 0
	}

	// Tolerances scale with ‖T‖: eps3 separates shifts inside a
	// cluster, gtol groups eigenvalues whose inverse-iteration vectors
	// must be orthogonalized against each other explicitly.
	tnorm := 0.0
	for i := 0; i < n; i++ {
		t := math.Abs(s.diag[i])
		if i > 0 {
			t += math.Abs(s.sub[i])
		}
		if i+1 < n {
			t += math.Abs(s.sub[i+1])
		}
		if t > tnorm {
			tnorm = t
		}
	}
	if tnorm == 0 {
		tnorm = 1
	}
	eps3 := machEps * tnorm
	gtol := 1e-5 * tnorm

	ok := true
	prevShift := math.Inf(1)
	group := 0 // index of the current cluster's first vector
	for j := 0; j < k && ok; j++ {
		if j > 0 && s.vals[j-1]-s.vals[j] > gtol {
			group = j
		}
		x := s.vals[j]
		if x >= prevShift-eps3 {
			x = prevShift - eps3
		}
		prevShift = x
		ok = s.invIterate(z.Row(j), z, group, j, x, tnorm, eps3, 0)
		if ok {
			ok = s.checkVector(z.Row(j), s.vals[j], tnorm)
		}
	}
	if !ok {
		// Pathological spectrum: redo with the full, unconditionally
		// ordered QL decomposition and keep its leading columns. The
		// eigenvalues match the ones already returned to working
		// precision, so callers' λ decisions stay consistent.
		_, v := EigenSymQL(s.a)
		TransposeInto(z, v, k)
		return
	}

	// Back-transform all vectors from tridiagonal to original
	// coordinates by applying the stored Householder reflectors in
	// ascending step order (the reverse of the reduction). Vectors are
	// processed in pairs so each reflector is streamed once per pair.
	for i := 2; i < n; i++ {
		h := s.hs[i]
		if h == 0 {
			continue
		}
		u := s.w[i*n : i*n+i]
		hInv := 1 / h
		r := 0
		for ; r+1 < k; r += 2 {
			zr0 := z.data[r*n : r*n+i]
			zr1 := z.data[(r+1)*n : (r+1)*n+i]
			var g0, g1 float64
			t0 := 0
			if kernelsASM && i >= 4 {
				t0 = i &^ 3
				g0, g1 = dot2(&u[0], &zr0[0], &zr1[0], t0)
			}
			for t := t0; t < i; t++ {
				ut := u[t]
				g0 += ut * zr0[t]
				g1 += ut * zr1[t]
			}
			g0 *= hInv
			g1 *= hInv
			if t0 > 0 {
				axpy2(g0, g1, &u[0], &zr0[0], &zr1[0], t0)
			}
			for t := t0; t < i; t++ {
				ut := u[t]
				zr0[t] -= g0 * ut
				zr1[t] -= g1 * ut
			}
		}
		if r < k {
			zr := z.data[r*n : r*n+i]
			g := Dot(u, zr) * hInv
			for t, ut := range u {
				zr[t] -= g * ut
			}
		}
	}
}

// invIterate computes one eigenvector of the tridiagonal (diag, sub)
// for the shifted eigenvalue x into y (length n, tridiagonal
// coordinates), orthogonalizing against the cluster rows
// z[group..j-1]. depth counts shift-perturbation restarts. It reports
// whether the iteration converged to a usable vector.
func (s *SymEigTopK) invIterate(y []float64, z *Dense, group, j int, x, tnorm, eps3 float64, depth int) bool {
	n := s.n
	uzero := machEps * tnorm // stand-in for exactly-zero pivots

	// Factor T − xI = L·U with partial pivoting. Row i of U is
	// (bu[i], bv[i], bw[i]); bm[i] and flip[i] record the elimination.
	bu, bv, bw, bm := s.bu, s.bv, s.bw, s.bm
	bu[0] = s.diag[0] - x
	if n > 1 {
		bv[0] = s.sub[1]
	} else {
		bv[0] = 0
	}
	bw[0] = 0
	for i := 1; i < n; i++ {
		e := s.sub[i]
		next := 0.0
		if i+1 < n {
			next = s.sub[i+1]
		}
		if math.Abs(bu[i-1]) >= math.Abs(e) {
			piv := bu[i-1]
			if piv == 0 {
				piv = uzero
				bu[i-1] = piv
			}
			m := e / piv
			bu[i] = s.diag[i] - x - m*bv[i-1]
			bv[i] = next - m*bw[i-1]
			bw[i] = 0
			bm[i] = m
			s.flip[i] = false
		} else {
			m := bu[i-1] / e
			pv, pw := bv[i-1], bw[i-1]
			bu[i-1] = e
			bv[i-1] = s.diag[i] - x
			bw[i-1] = next
			bu[i] = pv - m*bv[i-1]
			bv[i] = pw - m*bw[i-1]
			bw[i] = 0
			bm[i] = m
			s.flip[i] = true
		}
	}
	if bu[n-1] == 0 {
		bu[n-1] = uzero
	}

	// Deterministic start vector with enough asymmetry to overlap
	// every eigenvector of structured (e.g. Toeplitz) tridiagonals.
	rv := s.rv
	for i := range rv {
		rv[i] = 1 + float64((uint32(i+1)*2654435761)>>22)/1024
	}

	const iters = 2
	for it := 0; it < iters; it++ {
		// Forward pass (skipped for the uniform first RHS would be the
		// EISPACK trick; replaying the elimination keeps it simple).
		if it > 0 {
			for i := 1; i < n; i++ {
				if s.flip[i] {
					rv[i-1], rv[i] = rv[i], rv[i-1]-bm[i]*rv[i]
				} else {
					rv[i] -= bm[i] * rv[i-1]
				}
			}
		}
		// Back substitution.
		rv[n-1] /= bu[n-1]
		if n > 1 {
			rv[n-2] = (rv[n-2] - bv[n-2]*rv[n-1]) / bu[n-2]
		}
		for i := n - 3; i >= 0; i-- {
			rv[i] = (rv[i] - bv[i]*rv[i+1] - bw[i]*rv[i+2]) / bu[i]
		}
		// Orthogonalize against the finished cluster members. When the
		// projection cancels most of the vector, what is left is
		// dominated by rounding noise from the subtraction, so run a
		// second pass over the cluster ("twice is enough"
		// reorthogonalization) before trusting the direction.
		nrm := Norm2(rv)
		for pass := 0; pass < 2 && j > group; pass++ {
			pre := nrm
			for g := group; g < j; g++ {
				zg := z.Row(g)
				c := Dot(rv, zg)
				for t := range rv {
					rv[t] -= c * zg[t]
				}
			}
			nrm = Norm2(rv)
			if nrm == 0 || nrm > 0.1*pre {
				break
			}
		}
		if nrm == 0 {
			// The iterate collapsed into the span of the cluster;
			// perturb the shift and restart a bounded number of times.
			if depth < 3 {
				return s.invIterate(y, z, group, j, x-eps3*float64(depth+1), tnorm, eps3, depth+1)
			}
			return false
		}
		inv := 1 / nrm
		for t := range rv {
			rv[t] *= inv
		}
	}
	copy(y, rv)
	return true
}

// checkVector verifies the residual ‖T·y − λ·y‖ of a computed unit
// eigenvector. The threshold is a coarse sanity net: clustered
// eigenvalues legitimately carry residuals up to the cluster width, so
// the check only rejects factorization-level failures.
func (s *SymEigTopK) checkVector(y []float64, lambda, tnorm float64) bool {
	n := s.n
	var resSq float64
	for i := 0; i < n; i++ {
		r := (s.diag[i] - lambda) * y[i]
		if i > 0 {
			r += s.sub[i] * y[i-1]
		}
		if i+1 < n {
			r += s.sub[i+1] * y[i+1]
		}
		resSq += r * r
	}
	return math.Sqrt(resSq) <= 1e-4*tnorm
}

// tredReduce reduces the symmetric matrix stored in w (n×n row-major,
// lower triangle authoritative) to tridiagonal form: diagonal left on
// w's diagonal, subdiagonal in sub (sub[0] unused), Householder
// scalars in hs with the corresponding scaled reflector vectors left
// in the rows of w (row i, elements 0..i−1). Unlike tred2 it does not
// accumulate the orthogonal transformation — back-transforms replay
// the stored reflectors — and its inner loops are arranged as
// unit-stride row sweeps (two-pass symmetric rank-2 update), which is
// what makes the reduction roughly three times cheaper in practice
// than tred2's accumulate-as-you-go formulation.
func tredReduce(w []float64, n int, hs, sub, p []float64) {
	hs[0] = 0
	sub[0] = 0
	for i := n - 1; i > 0; i-- {
		l := i - 1
		row := w[i*n : i*n+i] // elements 0..l
		if l == 0 {
			sub[i] = row[0]
			hs[i] = 0
			continue
		}
		var scale float64
		for _, v := range row {
			scale += math.Abs(v)
		}
		if scale == 0 {
			sub[i] = row[l]
			hs[i] = 0
			continue
		}
		inv := 1 / scale
		var h float64
		for t := range row {
			row[t] *= inv
			h += row[t] * row[t]
		}
		f := row[l]
		g := math.Sqrt(h)
		if f > 0 {
			g = -g
		}
		sub[i] = scale * g
		h -= f * g
		row[l] = f - g

		// p = A·u over the leading (l+1)² symmetric submatrix, using
		// only the lower triangle with unit-stride row passes.
		pp := p[:i]
		for t := range pp {
			pp[t] = 0
		}
		// Two rows per pass: the u and p streams are loaded once for
		// both, which is what lifts the sweep above the bandwidth of
		// the naive one-row formulation.
		kk := 0
		for ; kk+1 <= l; kk += 2 {
			rk0 := w[kk*n : kk*n+kk]         // row kk, cols 0..kk−1
			rk1 := w[(kk+1)*n : (kk+1)*n+kk] // row kk+1, cols 0..kk−1
			uk0, uk1 := row[kk], row[kk+1]
			ekk := w[(kk+1)*n+kk]
			var g0, g1 float64
			t0 := 0
			if kernelsASM && kk >= 4 {
				t0 = kk &^ 3
				g0, g1 = symv2(&rk0[0], &rk1[0], &row[0], &pp[0], t0, uk0, uk1)
			}
			for t := t0; t < kk; t++ {
				r0, r1, rt := rk0[t], rk1[t], row[t]
				g0 += r0 * rt
				g1 += r1 * rt
				pp[t] += r0*uk0 + r1*uk1
			}
			g1 += ekk * row[kk]
			pp[kk] += w[kk*n+kk]*uk0 + ekk*uk1 + g0
			pp[kk+1] += w[(kk+1)*n+kk+1]*uk1 + g1
		}
		if kk <= l {
			rk := w[kk*n : kk*n+kk]
			uk := row[kk]
			var g float64
			for t, wkt := range rk {
				g += wkt * row[t]
				pp[t] += wkt * uk
			}
			pp[kk] += w[kk*n+kk]*uk + g
		}
		var K float64
		hInv := 1 / h
		for t := range pp {
			pp[t] *= hInv
			K += pp[t] * row[t]
		}
		K *= 0.5 * hInv
		// q = p − K·u; rank-2 update A ← A − u·qᵀ − q·uᵀ (lower
		// triangle, unit stride).
		for t := range pp {
			pp[t] -= K * row[t]
		}
		jj := 0
		for ; jj+1 <= l; jj += 2 {
			wj0 := w[jj*n : jj*n+jj+1]
			wj1 := w[(jj+1)*n : (jj+1)*n+jj+2]
			uj0, qj0 := row[jj], pp[jj]
			uj1, qj1 := row[jj+1], pp[jj+1]
			t0 := 0
			if kernelsASM && jj >= 3 {
				t0 = (jj + 1) &^ 3
				rank2upd2(&wj0[0], &wj1[0], &row[0], &pp[0], t0, uj0, qj0, uj1, qj1)
			}
			for t := t0; t <= jj; t++ {
				pt, rt := pp[t], row[t]
				wj0[t] -= uj0*pt + qj0*rt
				wj1[t] -= uj1*pt + qj1*rt
			}
			wj1[jj+1] -= 2 * uj1 * qj1
		}
		if jj <= l {
			wj := w[jj*n : jj*n+jj+1]
			uj, qj := row[jj], pp[jj]
			for t := 0; t <= jj; t++ {
				wj[t] -= uj*pp[t] + qj*row[t]
			}
		}
		hs[i] = h
	}
}

// tqlValues diagonalises the symmetric tridiagonal (d, e) in place
// with the implicit-shift QL iteration, producing eigenvalues only —
// tql2 stripped of its rotation accumulation, with a guarded fast
// hypot on the rotation radii. On exit d holds the (unsorted)
// eigenvalues; e is destroyed. e uses tred-style indexing (e[i]
// couples rows i−1 and i; e[0] unused).
func tqlValues(d, e []float64, n int) {
	if n <= 1 {
		return
	}
	for i := 1; i < n; i++ {
		e[i-1] = e[i]
	}
	e[n-1] = 0

	const maxIter = 60
	for l := 0; l < n; l++ {
		for iter := 0; ; iter++ {
			m := l
			for ; m < n-1; m++ {
				dd := math.Abs(d[m]) + math.Abs(d[m+1])
				if math.Abs(e[m]) <= machEps*dd {
					break
				}
			}
			if m == l {
				break
			}
			if iter >= maxIter {
				break // accept the (very close) current values
			}
			g := (d[l+1] - d[l]) / (2 * e[l])
			r := fastHypot(g, 1)
			g = d[m] - d[l] + e[l]/(g+math.Copysign(r, g))
			s, c := 1.0, 1.0
			p := 0.0
			underflow := false
			for i := m - 1; i >= l; i-- {
				f := s * e[i]
				b := c * e[i]
				r = fastHypot(f, g)
				e[i+1] = r
				if r == 0 {
					d[i+1] -= p
					e[m] = 0
					underflow = true
					break
				}
				s = f / r
				c = g / r
				g = d[i+1] - p
				r = (d[i]-g)*s + 2*c*b
				p = s * r
				d[i+1] = g + p
				g = c*r - b
			}
			if underflow {
				continue
			}
			d[l] -= p
			e[l] = g
			e[m] = 0
		}
	}
}

// sterfValues diagonalises a symmetric tridiagonal with the root-free
// Pal–Walker–Kahan QL variant (LAPACK's dsterf): d holds the diagonal,
// e2 the SQUARED subdiagonals in coupling order (e2[i] joins d[i] and
// d[i+1]; e2[n−1] unused). Working on squares removes the per-rotation
// hypot of the plain QL sweep — one square root per shift instead of
// one per rotation — which is what makes this the values-only fast
// path. On exit d holds the (unsorted) eigenvalues; e2 is destroyed.
func sterfValues(d, e2 []float64, n int) {
	if n <= 1 {
		return
	}
	eps2 := machEps * machEps
	const safmin = 0x1p-1022
	const maxIter = 60
	for l := 0; l < n; l++ {
		for iter := 0; ; iter++ {
			m := l
			for ; m < n-1; m++ {
				if e2[m] <= eps2*math.Abs(d[m])*math.Abs(d[m+1])+safmin {
					break
				}
			}
			if m == l || iter >= maxIter {
				break // converged, or accept the (very close) current values
			}
			// Wilkinson shift from the 2×2 at the l end.
			rte := math.Sqrt(e2[l])
			sig := (d[l+1] - d[l]) / (2 * rte)
			r := fastHypot(sig, 1)
			sig = d[l] - rte/(sig+math.Copysign(r, sig))
			c, s := 1.0, 0.0
			gamma := d[m] - sig
			p := gamma * gamma
			for i := m - 1; i >= l; i-- {
				bb := e2[i]
				r := p + bb // > 0: bb passed the deflation test
				if i != m-1 {
					e2[i+1] = s * r
				}
				oldc := c
				rinv := 1 / r
				c = p * rinv
				s = bb * rinv
				oldgam := gamma
				alpha := d[i]
				gamma = c*(alpha-sig) - s*oldgam
				d[i+1] = oldgam + (alpha - gamma)
				if c != 0 {
					p = gamma * gamma / c
				} else {
					p = oldc * bb
				}
			}
			e2[l] = s * p
			d[l] = sig + gamma
		}
	}
}

// fastHypot is √(a²+b²) via the naive formula when both magnitudes are
// far from overflow and underflow — the QL inner loop calls it per
// rotation, and math.Hypot's generality costs several times the
// arithmetic — falling back to math.Hypot near the extremes.
func fastHypot(a, b float64) float64 {
	aa, ab := math.Abs(a), math.Abs(b)
	if aa < 1e150 && ab < 1e150 && (aa > 1e-150 || ab > 1e-150) {
		return math.Sqrt(a*a + b*b)
	}
	return math.Hypot(a, b)
}

// TransposeInto writes the first k columns of src into dst transposed:
// dst must be k×r for r×c src with k ≤ c, and row j of dst receives
// column j of src. It is the shared "columns to rows" copy of the FD
// shrink (Uᵀ extraction) and pca (Vᵀ components), tiled for cache
// friendliness on the strided source walk.
func TransposeInto(dst, src *Dense, k int) {
	if k < 0 || k > src.cols {
		panic(fmt.Sprintf("mat: TransposeInto k=%d with %d columns", k, src.cols))
	}
	if dst.rows != k || dst.cols != src.rows {
		panic(fmt.Sprintf("mat: TransposeInto dst %d×%d, want %d×%d", dst.rows, dst.cols, k, src.rows))
	}
	const tile = 32
	r, c := src.rows, src.cols
	for i0 := 0; i0 < r; i0 += tile {
		i1 := i0 + tile
		if i1 > r {
			i1 = r
		}
		for j0 := 0; j0 < k; j0 += tile {
			j1 := j0 + tile
			if j1 > k {
				j1 = k
			}
			for i := i0; i < i1; i++ {
				si := src.data[i*c:]
				for j := j0; j < j1; j++ {
					dst.data[j*dst.cols+i] = si[j]
				}
			}
		}
	}
}

// GramInto computes AᵀA of a into g (which must be square of a's
// column count), reusing g's storage — the allocation-free variant of
// Dense.Gram for hot paths that keep a scratch matrix. g is
// overwritten: the accumulating inner kernel requires a zeroed
// destination, so the wrapper clears it first.
func GramInto(g, a *Dense) {
	if g.rows != a.cols || g.cols != a.cols {
		panic(fmt.Sprintf("mat: GramInto dst %d×%d, want %d×%d", g.rows, g.cols, a.cols, a.cols))
	}
	for i := range g.data {
		g.data[i] = 0
	}
	gramInto(g, a)
}

// GramTInto computes AAᵀ of a into g (which must be square of a's row
// count), reusing g's storage — the allocation-free variant of
// Dense.GramT. Like GramInto it clears g before accumulating.
func GramTInto(g, a *Dense) {
	if g.rows != a.rows || g.cols != a.rows {
		panic(fmt.Sprintf("mat: GramTInto dst %d×%d, want %d×%d", g.rows, g.cols, a.rows, a.rows))
	}
	for i := range g.data {
		g.data[i] = 0
	}
	gramTInto(g, a)
}

// GramTTiledInto computes AAᵀ of a into g like GramTInto, but with a
// 2×2 register-tiled kernel that touches each input row half as often
// as the pairwise-dot formulation — roughly 1.7× faster at FD shrink
// shapes. Its accumulation order differs from GramTInto/Dense.GramT,
// so results agree only to rounding; callers that must reproduce the
// legacy bit pattern (the b=1, α=1 FD path) keep using GramTInto.
func GramTTiledInto(g, a *Dense) {
	if g.rows != a.rows || g.cols != a.rows {
		panic(fmt.Sprintf("mat: GramTTiledInto dst %d×%d, want %d×%d", g.rows, g.cols, a.rows, a.rows))
	}
	n, d := a.rows, a.cols
	gd := g.data
	asm := kernelsASM && d >= 4
	dm := d &^ 3
	i := 0
	for ; i+1 < n; i += 2 {
		ri0 := a.data[i*d : i*d+d]
		ri1 := a.data[(i+1)*d : (i+1)*d+d]
		j := i
		for ; j+3 < n; j += 4 {
			rj0 := a.data[j*d : j*d+d]
			rj1 := a.data[(j+1)*d : (j+1)*d+d]
			rj2 := a.data[(j+2)*d : (j+2)*d+d]
			rj3 := a.data[(j+3)*d : (j+3)*d+d]
			var c00, c01, c02, c03, c10, c11, c12, c13 float64
			t0 := 0
			if asm {
				var c [8]float64
				dotTile2x4(&ri0[0], &ri1[0], &rj0[0], &rj1[0], &rj2[0], &rj3[0], dm, &c)
				c00, c01, c02, c03 = c[0], c[1], c[2], c[3]
				c10, c11, c12, c13 = c[4], c[5], c[6], c[7]
				t0 = dm
			}
			for t := t0; t < d; t++ {
				x0, x1 := ri0[t], ri1[t]
				y0, y1 := rj0[t], rj1[t]
				c00 += x0 * y0
				c01 += x0 * y1
				c10 += x1 * y0
				c11 += x1 * y1
				y2, y3 := rj2[t], rj3[t]
				c02 += x0 * y2
				c03 += x0 * y3
				c12 += x1 * y2
				c13 += x1 * y3
			}
			gd[i*n+j] = c00
			gd[i*n+j+1] = c01
			gd[i*n+j+2] = c02
			gd[i*n+j+3] = c03
			gd[(i+1)*n+j] = c10
			gd[(i+1)*n+j+1] = c11
			gd[(i+1)*n+j+2] = c12
			gd[(i+1)*n+j+3] = c13
			gd[j*n+i] = c00
			gd[j*n+i+1] = c10
			gd[(j+1)*n+i] = c01
			gd[(j+1)*n+i+1] = c11
			gd[(j+2)*n+i] = c02
			gd[(j+2)*n+i+1] = c12
			gd[(j+3)*n+i] = c03
			gd[(j+3)*n+i+1] = c13
		}
		for ; j+1 < n; j += 2 {
			rj0 := a.data[j*d : j*d+d]
			rj1 := a.data[(j+1)*d : (j+1)*d+d]
			var c00, c01, c10, c11 float64
			for t, x0 := range ri0 {
				x1 := ri1[t]
				y0, y1 := rj0[t], rj1[t]
				c00 += x0 * y0
				c01 += x0 * y1
				c10 += x1 * y0
				c11 += x1 * y1
			}
			gd[i*n+j] = c00
			gd[i*n+j+1] = c01
			gd[(i+1)*n+j] = c10
			gd[(i+1)*n+j+1] = c11
			if j > i {
				gd[j*n+i] = c00
				gd[j*n+i+1] = c10
				gd[(j+1)*n+i] = c01
				gd[(j+1)*n+i+1] = c11
			}
		}
		if j < n { // ragged final column
			rj := a.data[j*d : j*d+d]
			var c0, c1 float64
			for t, y := range rj {
				c0 += ri0[t] * y
				c1 += ri1[t] * y
			}
			gd[i*n+j] = c0
			gd[(i+1)*n+j] = c1
			gd[j*n+i] = c0
			gd[j*n+i+1] = c1
		}
	}
	if i < n { // ragged final row: off-diagonals were mirrored above
		ri := a.data[i*d : i*d+d]
		var s float64
		for _, v := range ri {
			s += v * v
		}
		gd[i*n+i] = s
	}
}
