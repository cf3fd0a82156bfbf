package mat

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEigenSymQLMatchesJacobiEigenvalues(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, n := range []int{1, 2, 3, 5, 10, 30, 64} {
		a := randSym(rng, n)
		valsJ, _ := EigenSymJacobi(a)
		valsQ, _ := EigenSymQL(a)
		for i := range valsJ {
			if math.Abs(valsJ[i]-valsQ[i]) > 1e-8*(1+math.Abs(valsJ[i])) {
				t.Fatalf("n=%d: eigenvalue %d: Jacobi %v vs QL %v", n, i, valsJ[i], valsQ[i])
			}
		}
	}
}

func TestEigenSymQLReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, n := range []int{2, 4, 9, 25, 50} {
		a := randSym(rng, n)
		vals, v := EigenSymQL(a)
		if !reconstructEigen(vals, v).Equal(a, 1e-8*float64(n)) {
			t.Fatalf("n=%d: QL reconstruction failed", n)
		}
		if !Mul(v.T(), v).Equal(Identity(n), 1e-9*float64(n)) {
			t.Fatalf("n=%d: QL eigenvectors not orthonormal", n)
		}
		for i := 1; i < n; i++ {
			if vals[i] > vals[i-1]+1e-12 {
				t.Fatalf("n=%d: QL eigenvalues not sorted", n)
			}
		}
	}
}

func TestEigenSymQLEdgeCases(t *testing.T) {
	// Empty.
	vals, _ := EigenSymQL(NewDense(0, 0))
	if len(vals) != 0 {
		t.Fatal("0×0 should give no eigenvalues")
	}
	// 1×1.
	vals, v := EigenSymQL(FromRows([][]float64{{-3}}))
	if vals[0] != -3 || v.At(0, 0) != 1 {
		t.Fatalf("1×1: %v %v", vals, v)
	}
	// Zero matrix.
	vals, v = EigenSymQL(NewDense(5, 5))
	for _, val := range vals {
		if val != 0 {
			t.Fatalf("zero matrix vals = %v", vals)
		}
	}
	if !Mul(v.T(), v).Equal(Identity(5), 1e-12) {
		t.Fatal("zero matrix eigenvectors not orthonormal")
	}
	// Diagonal.
	a := FromRows([][]float64{{5, 0, 0}, {0, -2, 0}, {0, 0, 3}})
	vals, v = EigenSymQL(a)
	want := []float64{5, 3, -2}
	for i := range want {
		if math.Abs(vals[i]-want[i]) > 1e-12 {
			t.Fatalf("diagonal vals = %v", vals)
		}
	}
	if !reconstructEigen(vals, v).Equal(a, 1e-10) {
		t.Fatal("diagonal reconstruction failed")
	}
	// Repeated eigenvalues.
	a = Identity(6).Scale(2)
	vals, v = EigenSymQL(a)
	for _, val := range vals {
		if math.Abs(val-2) > 1e-12 {
			t.Fatalf("repeated vals = %v", vals)
		}
	}
	if !reconstructEigen(vals, v).Equal(a, 1e-10) {
		t.Fatal("repeated-eigenvalue reconstruction failed")
	}
}

func TestEigenSymQLNonSquarePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	EigenSymQL(NewDense(2, 3))
}

func TestEigenSymQLPSD(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 20; trial++ {
		a := randDense(rng, 5+rng.Intn(30), 3+rng.Intn(20))
		g := a.Gram()
		vals, v := EigenSymQL(g)
		if !reconstructEigen(vals, v).Equal(g, 1e-7*(1+g.MaxAbs())*float64(g.Rows())) {
			t.Fatalf("trial %d: PSD reconstruction failed", trial)
		}
		for _, val := range vals {
			if val < -1e-7*(1+g.MaxAbs()) {
				t.Fatalf("trial %d: PSD matrix has negative eigenvalue %v", trial, val)
			}
		}
	}
}

func TestEigenSymQLIllConditioned(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	n := 6
	q := orthonormalize(randDense(rng, n, n))
	dm := NewDense(n, n)
	want := []float64{1e8, 1e4, 1, 1e-2, 1e-5, 0}
	for i, v := range want {
		dm.Set(i, i, v)
	}
	a := Mul(Mul(q, dm), q.T())
	at := a.T()
	a.Add(at).Scale(0.5)
	vals, _ := EigenSymQL(a)
	for i, w := range want {
		if math.Abs(vals[i]-w) > 1e-6*(1+w) {
			t.Fatalf("eigenvalue %d = %v, want %v", i, vals[i], w)
		}
	}
}

// Property: QL agrees with Jacobi on random symmetric matrices.
func TestEigenSymQLAgreementProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20)
		a := randSym(rng, n)
		valsJ, _ := EigenSymJacobi(a)
		valsQ, vq := EigenSymQL(a)
		for i := range valsJ {
			if math.Abs(valsJ[i]-valsQ[i]) > 1e-7*(1+math.Abs(valsJ[i])) {
				return false
			}
		}
		return reconstructEigen(valsQ, vq).Equal(a, 1e-7*float64(n))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestSymEigReuse checks that a reused workspace answers bit for bit
// like a fresh one as sizes shrink and grow, through ties and a zero
// matrix, and that a same-sized decomposition allocates nothing.
func TestSymEigReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	mats := []*Dense{randSym(rng, 7), Identity(4).Scale(3), randSym(rng, 12), NewDense(3, 3), randSym(rng, 25), randSym(rng, 2)}
	var s SymEig
	for i, a := range mats {
		wantVals, wantV := EigenSymQL(a)
		vals, v := s.Decompose(a)
		if v.Rows() != a.Rows() || !sameBits(vals, wantVals) || !sameBits(v.Data(), wantV.Data()) {
			t.Fatalf("matrix %d: reused workspace differs from a fresh one", i)
		}
	}
	a := randSym(rng, 25)
	if n := testing.AllocsPerRun(10, func() { s.Decompose(a) }); n != 0 {
		t.Errorf("Decompose of a same-sized matrix allocates %v times", n)
	}
}

// TestSortEigenDescMatchesSliceStable pins the eigenpair sort to the
// permutation sort.SliceStable picks, with many ties and past its
// 20-element insertion runs.
func TestSortEigenDescMatchesSliceStable(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for _, n := range []int{1, 5, 20, 21, 47} {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64(rng.Intn(6))
		}
		v := randDense(rng, n, n)
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool { return vals[idx[a]] > vals[idx[b]] })

		gotVals, got := append([]float64(nil), vals...), v.Clone()
		sortEigenDesc(gotVals, got, make([]int, n), make([]float64, n))
		for newCol, oldCol := range idx {
			if gotVals[newCol] != vals[oldCol] {
				t.Fatalf("n=%d: value %d is %v, want %v", n, newCol, gotVals[newCol], vals[oldCol])
			}
			for r := 0; r < n; r++ {
				if got.At(r, newCol) != v.At(r, oldCol) {
					t.Fatalf("n=%d: column %d is not old column %d", n, newCol, oldCol)
				}
			}
		}
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
