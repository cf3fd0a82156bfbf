package mat

import "fmt"

// SparseRow is a sparse vector: strictly increasing column indices
// paired with (non-zero) values. It is the update-side representation
// for high-dimensional sparse streams (tf-idf documents, incidence
// rows): norms, dot products, and sketch updates cost O(nnz) instead
// of O(d).
type SparseRow struct {
	Idx []int
	Val []float64
}

// NewSparseRow builds a SparseRow from explicit indices and values,
// validating shape, ordering, and bounds (d is the row dimension;
// pass d ≤ 0 to skip the bound check). The slices are retained, not
// copied.
func NewSparseRow(idx []int, val []float64, d int) SparseRow {
	if len(idx) != len(val) {
		panic(fmt.Sprintf("mat: sparse row with %d indices and %d values", len(idx), len(val)))
	}
	prev := -1
	for i, ix := range idx {
		if ix <= prev {
			panic(fmt.Sprintf("mat: sparse row indices not strictly increasing at %d", i))
		}
		if d > 0 && ix >= d {
			panic(fmt.Sprintf("mat: sparse row index %d outside dimension %d", ix, d))
		}
		prev = ix
	}
	return SparseRow{Idx: idx, Val: val}
}

// SparseFromDense extracts the non-zero entries of a dense row. It
// counts them first, so each of the two slices is allocated once at
// its final size; an all-zero row yields nil slices.
func SparseFromDense(row []float64) SparseRow {
	nnz := 0
	for _, v := range row {
		if v != 0 {
			nnz++
		}
	}
	if nnz == 0 {
		return SparseRow{}
	}
	idx := make([]int, 0, nnz)
	val := make([]float64, 0, nnz)
	for j, v := range row {
		if v != 0 {
			idx = append(idx, j)
			val = append(val, v)
		}
	}
	return SparseRow{Idx: idx, Val: val}
}

// Nnz reports the number of stored entries.
func (s SparseRow) Nnz() int { return len(s.Idx) }

// SqNorm returns the squared Euclidean norm in O(nnz).
func (s SparseRow) SqNorm() float64 {
	var sum float64
	for _, v := range s.Val {
		sum += v * v
	}
	return sum
}

// MaxIdx returns the largest index (-1 for an empty row).
func (s SparseRow) MaxIdx() int {
	if len(s.Idx) == 0 {
		return -1
	}
	return s.Idx[len(s.Idx)-1]
}

// Dense materialises the row at dimension d.
func (s SparseRow) Dense(d int) []float64 {
	if m := s.MaxIdx(); m >= d {
		panic(fmt.Sprintf("mat: sparse row index %d outside dimension %d", m, d))
	}
	out := make([]float64, d)
	for i, ix := range s.Idx {
		out[ix] = s.Val[i]
	}
	return out
}

// ScatterTo writes the row into dst (which must be pre-zeroed where it
// matters) without clearing other positions; use CopyTo semantics by
// zeroing dst first.
func (s SparseRow) ScatterTo(dst []float64) {
	for i, ix := range s.Idx {
		dst[ix] = s.Val[i]
	}
}

// AddScaledTo performs dst += f·row in O(nnz).
func (s SparseRow) AddScaledTo(dst []float64, f float64) {
	for i, ix := range s.Idx {
		dst[ix] += f * s.Val[i]
	}
}

// Dot returns the inner product with a dense vector in O(nnz).
func (s SparseRow) Dot(x []float64) float64 {
	var sum float64
	for i, ix := range s.Idx {
		sum += s.Val[i] * x[ix]
	}
	return sum
}
