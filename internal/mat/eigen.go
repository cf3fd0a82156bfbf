package mat

// EigenSym computes the eigendecomposition of a symmetric matrix a:
// eigenvalues in descending order and the corresponding eigenvectors
// as the columns of v, so that a = v·diag(vals)·vᵀ. The input is not
// modified. It dispatches to the tridiagonal QL solver (EigenSymQL);
// the tests cross-check it against a cyclic Jacobi reference.
func EigenSym(a *Dense) (vals []float64, v *Dense) { return EigenSymQL(a) }

// sortEigenDesc sorts eigenvalues in descending order, permuting the
// columns of v to match; idx and row are length-n scratch. The sort is
// stable — equal eigenvalues keep their solver order, as the golden
// tests pin — and values and vectors only move, never recompute.
func sortEigenDesc(vals []float64, v *Dense, idx []int, row []float64) {
	n := len(vals)
	for i := range idx {
		idx[i] = i
	}
	for i := 1; i < n; i++ {
		for j := i; j > 0 && vals[idx[j]] > vals[idx[j-1]]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	for r := 0; r < n; r++ {
		vr := v.data[r*n : (r+1)*n]
		for k, old := range idx {
			row[k] = vr[old]
		}
		copy(vr, row)
	}
	for k, old := range idx {
		row[k] = vals[old]
	}
	copy(vals, row)
}
