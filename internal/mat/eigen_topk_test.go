package mat

import (
	"math"
	"math/rand"
	"testing"
)

// randSpectrum builds a symmetric matrix with the given eigenvalues
// under a random orthogonal basis (via QR of a Gaussian matrix).
func randSpectrum(rng *rand.Rand, spectrum []float64) *Dense {
	n := len(spectrum)
	g := NewDense(n, n)
	for i := range g.data {
		g.data[i] = rng.NormFloat64()
	}
	q := QR(g).Q
	a := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			var s float64
			for k := 0; k < n; k++ {
				s += q.At(i, k) * spectrum[k] * q.At(j, k)
			}
			a.Set(i, j, s)
			a.Set(j, i, s)
		}
	}
	return a
}

// checkTopK validates a SymEigTopK decomposition of a against the
// Jacobi reference: eigenvalues match, the returned rows are
// orthonormal, and each satisfies the eigen-residual equation.
func checkTopK(t *testing.T, a *Dense, k int, tag string) {
	t.Helper()
	n := a.Rows()
	var s SymEigTopK
	vals := s.Values(a)
	ref, _ := EigenSymJacobi(a)
	scale := math.Max(math.Abs(ref[0]), 1)
	for i := 0; i < n; i++ {
		if math.Abs(vals[i]-ref[i]) > 1e-9*scale {
			t.Fatalf("%s: eigenvalue %d = %v, Jacobi %v", tag, i, vals[i], ref[i])
		}
	}
	vt := s.VectorsT(k)
	if vt.Rows() != k || vt.Cols() != n {
		t.Fatalf("%s: VectorsT shape %d×%d", tag, vt.Rows(), vt.Cols())
	}
	for i := 0; i < k; i++ {
		for j := 0; j <= i; j++ {
			dot := Dot(vt.Row(i), vt.Row(j))
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(dot-want) > 1e-8 {
				t.Fatalf("%s: rows %d,%d dot = %v, want %v", tag, i, j, dot, want)
			}
		}
	}
	for i := 0; i < k; i++ {
		// ‖A·v − λ·v‖ small relative to the spectral scale. Clustered
		// eigenvalues mix basis vectors within the cluster, which is
		// harmless and keeps residuals at cluster-width level.
		v := vt.Row(i)
		av := a.MulVec(v)
		var res float64
		for j := 0; j < n; j++ {
			r := av[j] - vals[i]*v[j]
			res += r * r
		}
		if math.Sqrt(res) > 1e-6*scale {
			t.Fatalf("%s: vector %d residual %v (scale %v)", tag, i, math.Sqrt(res), scale)
		}
	}
}

func TestSymEigTopKRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 5, 8, 17, 33} {
		spec := make([]float64, n)
		for i := range spec {
			spec[i] = math.Abs(rng.NormFloat64()) * 10
		}
		a := randSpectrum(rng, spec)
		for _, k := range []int{0, 1, n / 2, n} {
			checkTopK(t, a, k, "random")
		}
	}
}

func TestSymEigTopKGram(t *testing.T) {
	// PSD Gram matrices — the FD shrink's actual input distribution.
	rng := rand.New(rand.NewSource(2))
	for _, shape := range [][2]int{{12, 30}, {30, 12}, {24, 24}} {
		b := NewDense(shape[0], shape[1])
		for i := range b.data {
			b.data[i] = rng.NormFloat64()
		}
		checkTopK(t, b.GramT(), shape[0]/2, "gram")
	}
}

func TestSymEigTopKDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// Duplicate eigenvalues (the duplicate-row stream's Gram), including
	// a cluster straddling the requested k.
	a := randSpectrum(rng, []float64{5, 5, 5, 5, 2, 2, 1, 0, 0, 0})
	for _, k := range []int{2, 4, 6, 10} {
		checkTopK(t, a, k, "duplicates")
	}
	// Rank-1: one spike, the rest numerically zero.
	a = randSpectrum(rng, []float64{100, 0, 0, 0, 0, 0})
	checkTopK(t, a, 3, "rank1")
	// Geometric decay across many orders of magnitude.
	spec := make([]float64, 16)
	for i := range spec {
		spec[i] = math.Pow(10, -float64(i))
	}
	checkTopK(t, randSpectrum(rng, spec), 8, "decay")
}

func TestSymEigTopKZeroMatrix(t *testing.T) {
	a := NewDense(7, 7)
	var s SymEigTopK
	vals := s.Values(a)
	for i, v := range vals {
		if v != 0 {
			t.Fatalf("zero matrix eigenvalue %d = %v", i, v)
		}
	}
	vt := s.VectorsT(3)
	for i := 0; i < 3; i++ {
		if n := Norm2(vt.Row(i)); math.Abs(n-1) > 1e-10 {
			t.Fatalf("zero-matrix vector %d norm %v", i, n)
		}
		for j := 0; j < i; j++ {
			if d := Dot(vt.Row(i), vt.Row(j)); math.Abs(d) > 1e-10 {
				t.Fatalf("zero-matrix vectors %d,%d dot %v", i, j, d)
			}
		}
	}
}

func TestSymEigTopKTinyAndIdentity(t *testing.T) {
	one := NewDenseData(1, 1, []float64{3})
	var s SymEigTopK
	vals := s.Values(one)
	if vals[0] != 3 {
		t.Fatalf("1×1 eigenvalue %v", vals[0])
	}
	vt := s.VectorsT(1)
	if math.Abs(math.Abs(vt.At(0, 0))-1) > 1e-12 {
		t.Fatalf("1×1 vector %v", vt.At(0, 0))
	}
	checkTopK(t, Identity(9), 4, "identity")
}

func TestSymEigTopKWorkspaceReuse(t *testing.T) {
	// Same solver across different sizes must stay correct.
	rng := rand.New(rand.NewSource(4))
	var s SymEigTopK
	for _, n := range []int{20, 6, 31} {
		spec := make([]float64, n)
		for i := range spec {
			spec[i] = rng.Float64() * 5
		}
		a := randSpectrum(rng, spec)
		vals := s.Values(a)
		ref, _ := EigenSymJacobi(a)
		for i := range ref {
			if math.Abs(vals[i]-ref[i]) > 1e-9*math.Max(ref[0], 1) {
				t.Fatalf("n=%d: reused workspace eigenvalue %d = %v, want %v", n, i, vals[i], ref[i])
			}
		}
		vt := s.VectorsT(n / 2)
		for i := 0; i < vt.Rows(); i++ {
			if math.Abs(Norm2(vt.Row(i))-1) > 1e-8 {
				t.Fatalf("n=%d: reused workspace vector %d not unit", n, i)
			}
		}
	}
}

func TestTransposeInto(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	src := NewDense(37, 19)
	for i := range src.data {
		src.data[i] = rng.NormFloat64()
	}
	for _, k := range []int{0, 1, 7, 19} {
		dst := NewDense(k, 37)
		TransposeInto(dst, src, k)
		for j := 0; j < k; j++ {
			for i := 0; i < 37; i++ {
				if dst.At(j, i) != src.At(i, j) {
					t.Fatalf("k=%d: dst[%d,%d] = %v, want %v", k, j, i, dst.At(j, i), src.At(i, j))
				}
			}
		}
	}
}

func TestGramIntoMatchesGram(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := NewDense(13, 7)
	for i := range a.data {
		a.data[i] = rng.NormFloat64()
	}
	g := NewDense(7, 7)
	GramInto(g, a)
	if !g.Equal(a.Gram(), 0) {
		t.Fatal("GramInto differs from Gram")
	}
	gt := NewDense(13, 13)
	GramTInto(gt, a)
	if !gt.Equal(a.GramT(), 0) {
		t.Fatal("GramTInto differs from GramT")
	}
	// Reusing the destination must overwrite, not accumulate — the FD
	// shrink holds one scratch Gram across its whole lifetime.
	GramInto(g, a)
	if !g.Equal(a.Gram(), 0) {
		t.Fatal("GramInto accumulated into reused destination")
	}
	GramTInto(gt, a)
	if !gt.Equal(a.GramT(), 0) {
		t.Fatal("GramTInto accumulated into reused destination")
	}
}

func TestGramTTiledInto(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, shape := range [][2]int{{1, 5}, {2, 7}, {3, 4}, {8, 16}, {13, 7}, {16, 33}, {17, 32}} {
		a := NewDense(shape[0], shape[1])
		for i := range a.data {
			a.data[i] = rng.NormFloat64()
		}
		g := NewDense(shape[0], shape[0])
		GramTTiledInto(g, a)
		ref := a.GramT()
		for i := 0; i < shape[0]; i++ {
			for j := 0; j < shape[0]; j++ {
				if math.Abs(g.At(i, j)-ref.At(i, j)) > 1e-12*math.Max(math.Abs(ref.At(i, j)), 1) {
					t.Fatalf("%v: tiled[%d,%d] = %v, want %v", shape, i, j, g.At(i, j), ref.At(i, j))
				}
			}
		}
		// Symmetry must be exact, not just to rounding.
		for i := 0; i < shape[0]; i++ {
			for j := 0; j < i; j++ {
				if g.At(i, j) != g.At(j, i) {
					t.Fatalf("%v: tiled not symmetric at %d,%d", shape, i, j)
				}
			}
		}
	}
}
