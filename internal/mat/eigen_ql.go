package mat

import (
	"fmt"
	"math"
)

// EigenSymQL computes the eigendecomposition of a symmetric matrix by
// Householder reduction to tridiagonal form followed by the implicit-
// shift QL iteration (the classic EISPACK tred2/tql2 pair). It returns
// eigenvalues in descending order with matching eigenvector columns,
// exactly like EigenSym, but runs in ~2n³ flops instead of cyclic
// Jacobi's ~10n³–30n³ — this is the production path; the tests keep a
// Jacobi solver as the slow, unconditionally robust reference. It is
// the one-shot form of SymEig.Decompose.
func EigenSymQL(a *Dense) (vals []float64, v *Dense) {
	var s SymEig
	return s.Decompose(a)
}

// SymEig is the workspace of the full symmetric eigendecomposition
// (EigenSymQL). The zero value is ready to use. A SymEig keeps its
// buffers across calls, so repeated decompositions of same-sized
// matrices allocate nothing; it is not safe for concurrent use.
type SymEig struct {
	v    Dense
	vals []float64
	e    []float64 // tridiagonal sub-diagonal, then the sort's row scratch
	idx  []int
}

// Decompose is EigenSymQL computed in s's workspace: the returned
// eigenvalues and eigenvectors are owned by s and valid until the next
// call. The input is not modified. It panics if a is not square.
func (s *SymEig) Decompose(a *Dense) (vals []float64, v *Dense) {
	n := a.rows
	if a.cols != n {
		panic(fmt.Sprintf("mat: EigenSymQL of non-square %d×%d", a.rows, a.cols))
	}
	s.v.Wrap(n, n, fit(s.v.data, n*n))
	copy(s.v.data, a.data)
	s.vals, s.e, s.idx = fit(s.vals, n), fit(s.e, n), fit(s.idx, n)
	clear(s.vals)
	clear(s.e)
	if n == 0 {
		return s.vals, &s.v
	}
	tred2(s.v.data, n, s.vals, s.e)
	tql2(s.vals, s.e, s.v.data, n)
	sortEigenDesc(s.vals, &s.v, s.idx, s.e)
	return s.vals, &s.v
}

// fit returns b resized to length n, reallocating only when its
// capacity is short. The contents are unspecified.
func fit[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	return b[:n]
}

// tred2 reduces the symmetric matrix stored in v (n×n row-major) to
// tridiagonal form with diagonal d and sub-diagonal e (e[0] unused),
// overwriting v with the accumulated orthogonal transformation Q such
// that Qᵀ·A·Q = tridiag(d, e).
func tred2(v []float64, n int, d, e []float64) {
	for i := n - 1; i > 0; i-- {
		l := i - 1
		var h, scale float64
		if l > 0 {
			for k := 0; k <= l; k++ {
				scale += math.Abs(v[i*n+k])
			}
			if scale == 0 {
				e[i] = v[i*n+l]
			} else {
				inv := 1 / scale
				for k := 0; k <= l; k++ {
					v[i*n+k] *= inv
					h += v[i*n+k] * v[i*n+k]
				}
				f := v[i*n+l]
				g := math.Sqrt(h)
				if f > 0 {
					g = -g
				}
				e[i] = scale * g
				h -= f * g
				v[i*n+l] = f - g
				f = 0
				for j := 0; j <= l; j++ {
					v[j*n+i] = v[i*n+j] / h
					g = 0
					for k := 0; k <= j; k++ {
						g += v[j*n+k] * v[i*n+k]
					}
					for k := j + 1; k <= l; k++ {
						g += v[k*n+j] * v[i*n+k]
					}
					e[j] = g / h
					f += e[j] * v[i*n+j]
				}
				hh := f / (h + h)
				for j := 0; j <= l; j++ {
					f = v[i*n+j]
					g = e[j] - hh*f
					e[j] = g
					vj := v[j*n : j*n+j+1]
					vi := v[i*n : i*n+j+1]
					for k := 0; k <= j; k++ {
						vj[k] -= f*e[k] + g*vi[k]
					}
				}
			}
		} else {
			e[i] = v[i*n+l]
		}
		d[i] = h
	}
	d[0] = 0
	e[0] = 0
	// Accumulate the transformations.
	for i := 0; i < n; i++ {
		l := i - 1
		if d[i] != 0 {
			for j := 0; j <= l; j++ {
				var g float64
				for k := 0; k <= l; k++ {
					g += v[i*n+k] * v[k*n+j]
				}
				for k := 0; k <= l; k++ {
					v[k*n+j] -= g * v[k*n+i]
				}
			}
		}
		d[i] = v[i*n+i]
		v[i*n+i] = 1
		for j := 0; j <= l; j++ {
			v[j*n+i] = 0
			v[i*n+j] = 0
		}
	}
}

// tql2 diagonalises the symmetric tridiagonal matrix (d, e) with the
// implicit-shift QL algorithm, accumulating rotations into v (which on
// entry holds the tred2 transformation). On exit d holds the
// eigenvalues (unsorted) and the columns of v the eigenvectors.
func tql2(d, e []float64, v []float64, n int) {
	if n <= 1 {
		return
	}
	for i := 1; i < n; i++ {
		e[i-1] = e[i]
	}
	e[n-1] = 0

	const maxIter = 60
	eps := math.Nextafter(1, 2) - 1
	for l := 0; l < n; l++ {
		for iter := 0; ; iter++ {
			// Find a negligible sub-diagonal element.
			m := l
			for ; m < n-1; m++ {
				dd := math.Abs(d[m]) + math.Abs(d[m+1])
				if math.Abs(e[m]) <= eps*dd {
					break
				}
			}
			if m == l {
				break
			}
			if iter >= maxIter {
				// Convergence failure is essentially impossible for
				// the PSD Gram matrices this library feeds in; accept
				// the current (very close) values rather than panic.
				break
			}
			// Form the implicit shift.
			g := (d[l+1] - d[l]) / (2 * e[l])
			r := math.Hypot(g, 1)
			g = d[m] - d[l] + e[l]/(g+math.Copysign(r, g))
			s, c := 1.0, 1.0
			p := 0.0
			underflow := false
			for i := m - 1; i >= l; i-- {
				f := s * e[i]
				b := c * e[i]
				r = math.Hypot(f, g)
				e[i+1] = r
				if r == 0 {
					// Recover from underflow: skip the rest of the
					// transformation.
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
				// Accumulate the rotation into the eigenvectors.
				for k := 0; k < n; k++ {
					f = v[k*n+i+1]
					v[k*n+i+1] = s*v[k*n+i] + c*f
					v[k*n+i] = c*v[k*n+i] - s*f
				}
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
