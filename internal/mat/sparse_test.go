package mat

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func randSparse(rng *rand.Rand, d int) SparseRow {
	row := make([]float64, d)
	nnz := 1 + rng.Intn(d)
	for k := 0; k < nnz; k++ {
		row[rng.Intn(d)] = rng.NormFloat64()
	}
	return SparseFromDense(row)
}

func TestNewSparseRowValidation(t *testing.T) {
	for name, f := range map[string]func(){
		"length mismatch": func() { NewSparseRow([]int{1}, []float64{1, 2}, 5) },
		"unsorted":        func() { NewSparseRow([]int{3, 1}, []float64{1, 2}, 5) },
		"duplicate":       func() { NewSparseRow([]int{1, 1}, []float64{1, 2}, 5) },
		"out of bounds":   func() { NewSparseRow([]int{7}, []float64{1}, 5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
	// Valid construction with skipped bound check.
	s := NewSparseRow([]int{1000}, []float64{2}, -1)
	if s.MaxIdx() != 1000 {
		t.Fatal("bound-skip construction failed")
	}
}

func TestSparseFromDenseRoundTrip(t *testing.T) {
	dense := []float64{0, 1.5, 0, -2, 0}
	s := SparseFromDense(dense)
	if s.Nnz() != 2 {
		t.Fatalf("nnz = %d", s.Nnz())
	}
	back := s.Dense(5)
	for i := range dense {
		if back[i] != dense[i] {
			t.Fatalf("round trip differs at %d", i)
		}
	}
	// Counting first sizes each slice once.
	if n := testing.AllocsPerRun(10, func() { SparseFromDense(dense) }); n != 2 {
		t.Errorf("SparseFromDense allocates %v times, want 2", n)
	}
}

func TestSparseRowEmptyEdges(t *testing.T) {
	var s SparseRow
	if s.Nnz() != 0 || s.SqNorm() != 0 || s.MaxIdx() != -1 {
		t.Fatal("empty row behaviour wrong")
	}
	if d := s.Dense(3); len(d) != 3 {
		t.Fatal("empty Dense wrong")
	}
}

func TestSparseOpsMatchDense(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 2 + rng.Intn(20)
		s := randSparse(rng, d)
		dense := s.Dense(d)

		// SqNorm.
		if !almostEqual(s.SqNorm(), SqNorm(dense), 1e-12) {
			return false
		}
		// Dot.
		x := make([]float64, d)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		if !almostEqual(s.Dot(x), Dot(dense, x), 1e-12) {
			return false
		}
		// AddScaledTo.
		dst1 := make([]float64, d)
		dst2 := make([]float64, d)
		copy(dst1, x)
		copy(dst2, x)
		s.AddScaledTo(dst1, 2.5)
		for i := range dst2 {
			dst2[i] += 2.5 * dense[i]
		}
		for i := range dst1 {
			if !almostEqual(dst1[i], dst2[i], 1e-12) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestScatterTo(t *testing.T) {
	s := NewSparseRow([]int{0, 2}, []float64{5, 7}, 4)
	dst := make([]float64, 4)
	s.ScatterTo(dst)
	if dst[0] != 5 || dst[2] != 7 || dst[1] != 0 {
		t.Fatalf("scatter wrong: %v", dst)
	}
}

func TestSparseDensePanicsOnOverflow(t *testing.T) {
	s := NewSparseRow([]int{5}, []float64{1}, -1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Dense(3)
}
