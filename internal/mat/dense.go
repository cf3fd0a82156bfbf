// Package mat provides the dense linear algebra substrate used by the
// sliding-window matrix sketches: a row-major dense matrix type, Gram
// products, a Householder-tridiagonal QL symmetric eigensolver,
// singular value decomposition via the Gram trick, spectral norms by
// power iteration, and rank-k truncation.
//
// The package is self-contained (standard library only). It is tuned
// for the shapes that matrix sketching produces: short-and-wide
// sketches (ℓ ≪ d), moderate covariance matrices (d ≤ a few thousand),
// and symmetric positive semi-definite Gram matrices.
package mat

import (
	"fmt"
	"math"
	"strings"
)

// Dense is a row-major dense matrix. The zero value is an empty (0×0)
// matrix ready for use with Reset-style constructors.
type Dense struct {
	rows, cols int
	data       []float64 // len == rows*cols, row-major
}

// NewDense returns a zeroed r×c matrix. It panics if r or c is negative.
func NewDense(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: negative dimension %d×%d", r, c))
	}
	return &Dense{rows: r, cols: c, data: make([]float64, r*c)}
}

// NewDenseData wraps data (row-major, length r*c) without copying.
// It panics on length mismatch.
func NewDenseData(r, c int, data []float64) *Dense { return new(Dense).Wrap(r, c, data) }

// Wrap re-points m at data (row-major, length r*c) without copying and
// returns m: NewDenseData for a header kept across calls, so hot loops
// can reshape scratch views without allocating. It panics on length
// mismatch.
func (m *Dense) Wrap(r, c int, data []float64) *Dense {
	if len(data) != r*c {
		panic(fmt.Sprintf("mat: data length %d does not match %d×%d", len(data), r, c))
	}
	m.rows, m.cols, m.data = r, c, data
	return m
}

// FromRows builds a matrix from row slices, copying each row. All rows
// must have equal length. An empty input yields a 0×0 matrix.
func FromRows(rows [][]float64) *Dense {
	if len(rows) == 0 {
		return NewDense(0, 0)
	}
	c := len(rows[0])
	m := NewDense(len(rows), c)
	for i, r := range rows {
		if len(r) != c {
			panic(fmt.Sprintf("mat: ragged rows: row 0 has %d cols, row %d has %d", c, i, len(r)))
		}
		copy(m.data[i*c:(i+1)*c], r)
	}
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// Dims returns (rows, cols).
func (m *Dense) Dims() (int, int) { return m.rows, m.cols }

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 {
	m.checkIndex(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at row i, column j.
func (m *Dense) Set(i, j int, v float64) {
	m.checkIndex(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Dense) checkIndex(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of range %d×%d", i, j, m.rows, m.cols))
	}
}

// Row returns a view (not a copy) of row i.
func (m *Dense) Row(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("mat: row %d out of range %d", i, m.rows))
	}
	return m.data[i*m.cols : (i+1)*m.cols]
}

// RowCopy returns a copy of row i.
func (m *Dense) RowCopy(i int) []float64 {
	r := make([]float64, m.cols)
	copy(r, m.Row(i))
	return r
}

// Data returns the backing row-major slice. Mutating it mutates m.
func (m *Dense) Data() []float64 { return m.data }

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	c := NewDense(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// T returns a newly allocated transpose of m.
func (m *Dense) T() *Dense {
	t := NewDense(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		ri := m.data[i*m.cols : (i+1)*m.cols]
		for j, v := range ri {
			t.data[j*m.rows+i] = v
		}
	}
	return t
}

// Scale multiplies every element of m by s in place and returns m.
func (m *Dense) Scale(s float64) *Dense {
	for i := range m.data {
		m.data[i] *= s
	}
	return m
}

// Add adds b to m in place and returns m. It panics on shape mismatch.
func (m *Dense) Add(b *Dense) *Dense {
	m.checkSameShape(b)
	for i, v := range b.data {
		m.data[i] += v
	}
	return m
}

// Sub subtracts b from m in place and returns m. It panics on shape mismatch.
func (m *Dense) Sub(b *Dense) *Dense {
	m.checkSameShape(b)
	for i, v := range b.data {
		m.data[i] -= v
	}
	return m
}

func (m *Dense) checkSameShape(b *Dense) {
	if m.rows != b.rows || m.cols != b.cols {
		panic(fmt.Sprintf("mat: shape mismatch %d×%d vs %d×%d", m.rows, m.cols, b.rows, b.cols))
	}
}

// Mul returns the product a·b as a new matrix. It panics if the inner
// dimensions disagree. Large products run cache-blocked across the
// package worker pool (see parallel.go); small ones stay on the
// calling goroutine.
func Mul(a, b *Dense) *Dense {
	if a.cols != b.rows {
		panic(fmt.Sprintf("mat: cannot multiply %d×%d by %d×%d", a.rows, a.cols, b.rows, b.cols))
	}
	out := NewDense(a.rows, b.cols)
	mulInto(out, a, b)
	return out
}

// Gram returns AᵀA (cols×cols) for A = m. Only the upper triangle is
// computed and mirrored, exploiting symmetry; large accumulations run
// in parallel over output row blocks.
func (m *Dense) Gram() *Dense {
	g := NewDense(m.cols, m.cols)
	gramInto(g, m)
	return g
}

// GramT returns AAᵀ (rows×rows) for A = m.
func (m *Dense) GramT() *Dense {
	g := NewDense(m.rows, m.rows)
	gramTInto(g, m)
	return g
}

// AddOuterTo adds s·(rowᵀ·row) to the square matrix g in place.
// g must be len(row)×len(row). Used for incremental Gram maintenance.
// The inner update is unrolled four deep to keep the g-row traffic
// pipelined.
func AddOuterTo(g *Dense, row []float64, s float64) {
	n := len(row)
	if g.rows != n || g.cols != n {
		panic(fmt.Sprintf("mat: outer product of length %d into %d×%d", n, g.rows, g.cols))
	}
	for i, vi := range row {
		if vi == 0 {
			continue
		}
		f := s * vi
		gi := g.data[i*n : (i+1)*n]
		gi = gi[:n]
		j := 0
		for ; j+3 < n; j += 4 {
			gi[j] += f * row[j]
			gi[j+1] += f * row[j+1]
			gi[j+2] += f * row[j+2]
			gi[j+3] += f * row[j+3]
		}
		for ; j < n; j++ {
			gi[j] += f * row[j]
		}
	}
}

// MulVec returns m·x as a new vector. It panics if len(x) != Cols.
func (m *Dense) MulVec(x []float64) []float64 {
	if len(x) != m.cols {
		panic(fmt.Sprintf("mat: MulVec length %d vs %d cols", len(x), m.cols))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = Dot(m.data[i*m.cols:(i+1)*m.cols], x)
	}
	return out
}

// Dot returns the inner product of equal-length vectors a and b. The
// loop runs four independent accumulators so the multiply-adds
// pipeline instead of serialising on one dependency chain.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mat: dot of lengths %d and %d", len(a), len(b)))
	}
	var s0, s1, s2, s3 float64
	b = b[:len(a)]
	i := 0
	for ; i+3 < len(a); i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	s := s0 + s1 + s2 + s3
	for ; i < len(a); i++ {
		s += a[i] * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of vector x.
func Norm2(x []float64) float64 { return math.Sqrt(SqNorm(x)) }

// SqNorm returns the squared Euclidean norm of vector x, with the
// same four-accumulator unrolling as Dot.
func SqNorm(x []float64) float64 {
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+3 < len(x); i += 4 {
		s0 += x[i] * x[i]
		s1 += x[i+1] * x[i+1]
		s2 += x[i+2] * x[i+2]
		s3 += x[i+3] * x[i+3]
	}
	s := s0 + s1 + s2 + s3
	for ; i < len(x); i++ {
		s += x[i] * x[i]
	}
	return s
}

// FrobeniusSq returns ‖m‖²_F, the sum of squared entries.
func (m *Dense) FrobeniusSq() float64 {
	var s float64
	for _, v := range m.data {
		s += v * v
	}
	return s
}

// Frobenius returns ‖m‖_F.
func (m *Dense) Frobenius() float64 { return math.Sqrt(m.FrobeniusSq()) }

// MaxAbs returns the largest absolute entry of m (0 for empty matrices).
func (m *Dense) MaxAbs() float64 {
	var s float64
	for _, v := range m.data {
		if a := math.Abs(v); a > s {
			s = a
		}
	}
	return s
}

// Equal reports whether m and b have the same shape and entries within
// absolute tolerance tol.
func (m *Dense) Equal(b *Dense, tol float64) bool {
	if m.rows != b.rows || m.cols != b.cols {
		return false
	}
	for i, v := range m.data {
		if math.Abs(v-b.data[i]) > tol {
			return false
		}
	}
	return true
}

// Stack returns the vertical concatenation [a; b]. Either argument may
// be nil or empty; shapes must agree on the column count otherwise.
func Stack(a, b *Dense) *Dense {
	switch {
	case a == nil || a.rows == 0:
		if b == nil {
			return NewDense(0, 0)
		}
		return b.Clone()
	case b == nil || b.rows == 0:
		return a.Clone()
	}
	if a.cols != b.cols {
		panic(fmt.Sprintf("mat: stack %d cols onto %d cols", b.cols, a.cols))
	}
	out := NewDense(a.rows+b.rows, a.cols)
	copy(out.data, a.data)
	copy(out.data[a.rows*a.cols:], b.data)
	return out
}

// String renders the matrix for debugging. Large matrices are elided.
func (m *Dense) String() string {
	const maxShow = 8
	var sb strings.Builder
	fmt.Fprintf(&sb, "Dense %d×%d", m.rows, m.cols)
	if m.rows == 0 || m.cols == 0 {
		return sb.String()
	}
	sb.WriteString(" [\n")
	for i := 0; i < m.rows && i < maxShow; i++ {
		sb.WriteString("  ")
		for j := 0; j < m.cols && j < maxShow; j++ {
			fmt.Fprintf(&sb, "% .4g ", m.At(i, j))
		}
		if m.cols > maxShow {
			sb.WriteString("…")
		}
		sb.WriteString("\n")
	}
	if m.rows > maxShow {
		sb.WriteString("  …\n")
	}
	sb.WriteString("]")
	return sb.String()
}
