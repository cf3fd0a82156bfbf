package window

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"swsketch/internal/mat"
)

func TestSpecConstructors(t *testing.T) {
	s := Seq(100)
	if s.Kind != Sequence || s.Size != 100 {
		t.Fatalf("Seq = %+v", s)
	}
	w := TimeSpan(2.5)
	if w.Kind != Time || w.Size != 2.5 {
		t.Fatalf("TimeSpan = %+v", w)
	}
	if s.String() == "" || w.String() == "" || s.Kind.String() != "sequence" || w.Kind.String() != "time" {
		t.Fatal("String methods broken")
	}
}

func TestSpecValidation(t *testing.T) {
	for _, f := range []func(){
		func() { Seq(0) },
		func() { TimeSpan(0) },
		func() { TimeSpan(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestCutoff(t *testing.T) {
	if Seq(10).Cutoff(25) != 15 {
		t.Fatal("sequence cutoff wrong")
	}
	if TimeSpan(3).Cutoff(10) != 7 {
		t.Fatal("time cutoff wrong")
	}
}

func TestExactSequenceWindowEviction(t *testing.T) {
	e := NewExact(Seq(3), 2)
	for i := 0; i < 5; i++ {
		e.Update([]float64{float64(i + 1), 0}, float64(i))
	}
	// Window should hold rows with value 3, 4, 5.
	if e.Len() != 3 {
		t.Fatalf("Len = %d, want 3", e.Len())
	}
	wantFro := 9.0 + 16 + 25
	if math.Abs(e.FroSq()-wantFro) > 1e-9 {
		t.Fatalf("FroSq = %v, want %v", e.FroSq(), wantFro)
	}
	if g := e.Gram().At(0, 0); math.Abs(g-wantFro) > 1e-9 {
		t.Fatalf("Gram[0][0] = %v, want %v", g, wantFro)
	}
}

func TestExactTimeWindowEviction(t *testing.T) {
	e := NewExact(TimeSpan(1.0), 1)
	e.Update([]float64{1}, 0.0)
	e.Update([]float64{2}, 0.5)
	e.Update([]float64{3}, 1.2) // expels t=0.0 (0.0 ≤ 1.2−1.0)
	if e.Len() != 2 {
		t.Fatalf("Len = %d, want 2", e.Len())
	}
	if math.Abs(e.FroSq()-13) > 1e-9 {
		t.Fatalf("FroSq = %v, want 13", e.FroSq())
	}
}

func TestExactAdvance(t *testing.T) {
	e := NewExact(TimeSpan(1.0), 1)
	e.Update([]float64{1}, 0.0)
	e.Advance(5.0)
	if e.Len() != 0 || e.FroSq() != 0 {
		t.Fatalf("Advance did not expire: len=%d fro=%v", e.Len(), e.FroSq())
	}
}

func TestExactOutOfOrderPanics(t *testing.T) {
	e := NewExact(Seq(3), 1)
	e.Update([]float64{1}, 5)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.Update([]float64{1}, 4)
}

func TestExactRowLengthPanics(t *testing.T) {
	e := NewExact(Seq(3), 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.Update([]float64{1}, 0)
}

func TestExactDimensionValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewExact(Seq(3), 0)
}

func TestExactGramMatchesMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	e := NewExact(Seq(50), 4)
	for i := 0; i < 200; i++ {
		row := make([]float64, 4)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		e.Update(row, float64(i))
	}
	a := e.Matrix()
	if a.Rows() != 50 {
		t.Fatalf("Matrix rows = %d, want 50", a.Rows())
	}
	if !e.Gram().Equal(a.Gram(), 1e-8) {
		t.Fatal("incremental Gram drifted from recomputed Gram")
	}
	if math.Abs(e.FroSq()-a.FrobeniusSq()) > 1e-8 {
		t.Fatalf("FroSq drifted: %v vs %v", e.FroSq(), a.FrobeniusSq())
	}
}

func TestExactCovaErrZeroForSelf(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	e := NewExact(Seq(20), 3)
	for i := 0; i < 60; i++ {
		row := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		e.Update(row, float64(i))
	}
	if err := e.CovaErr(e.Matrix()); err > 1e-10 {
		t.Fatalf("CovaErr against the window itself = %v", err)
	}
}

func TestExactCovaErrNilB(t *testing.T) {
	e := NewExact(Seq(5), 2)
	e.Update([]float64{1, 0}, 0)
	got := e.CovaErr(nil)
	if math.Abs(got-1.0) > 1e-12 { // single row: ‖AᵀA‖/‖A‖²_F = 1
		t.Fatalf("CovaErr(nil) = %v, want 1", got)
	}
}

func TestExactEmptyWindow(t *testing.T) {
	e := NewExact(Seq(5), 2)
	if e.CovaErr(nil) != 0 || e.Len() != 0 || e.FroSq() != 0 {
		t.Fatal("empty window should be all-zero")
	}
	if m := e.Matrix(); m.Rows() != 0 {
		t.Fatal("empty window matrix should have no rows")
	}
}

func TestExactNormsMatchesWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	spec := Seq(100)
	e := NewExact(spec, 3)
	n := NewExactNorms(spec)
	for i := 0; i < 500; i++ {
		row := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		tt := float64(i)
		e.Update(row, tt)
		n.Add(tt, mat.SqNorm(row))
		if math.Abs(n.FroSq(tt)-e.FroSq()) > 1e-6 {
			t.Fatalf("at %d: tracker %v vs window %v", i, n.FroSq(tt), e.FroSq())
		}
	}
	if n.Size() > 100 {
		t.Fatalf("ExactNorms retains %d items, window is 100", n.Size())
	}
}

func TestEHNormsApproximates(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	spec := Seq(1000)
	e := NewExact(spec, 2)
	n := NewEHNorms(spec, 0.05)
	for i := 0; i < 10000; i++ {
		row := []float64{1 + rng.Float64(), rng.Float64()}
		tt := float64(i)
		e.Update(row, tt)
		n.Add(tt, mat.SqNorm(row))
		if i > 2000 && i%131 == 0 {
			got, want := n.FroSq(tt), e.FroSq()
			if math.Abs(got-want)/want > 0.2 {
				t.Fatalf("at %d: EH %v vs exact %v", i, got, want)
			}
		}
	}
	if n.Size() > 2000 {
		t.Fatalf("EHNorms uses %d buckets; should be ≪ window", n.Size())
	}
}

func TestEHNormsSmallerThanExact(t *testing.T) {
	spec := Seq(5000)
	exact := NewExactNorms(spec)
	approx := NewEHNorms(spec, 0.1)
	for i := 0; i < 20000; i++ {
		exact.Add(float64(i), 1)
		approx.Add(float64(i), 1)
	}
	exact.FroSq(19999)
	approx.FroSq(19999)
	if approx.Size() >= exact.Size() {
		t.Fatalf("EH size %d not smaller than exact %d", approx.Size(), exact.Size())
	}
}

func TestExactDimAndAdvanceOrder(t *testing.T) {
	e := NewExact(Seq(5), 3)
	if e.Dim() != 3 {
		t.Fatalf("Dim = %d", e.Dim())
	}
	e.Update([]float64{1, 0, 0}, 5)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Advance backwards")
		}
	}()
	e.Advance(4)
}

func TestExactNormsSnapshotRoundTrip(t *testing.T) {
	spec := TimeSpan(7)
	x := NewExactNorms(spec)
	for i := 0; i < 50; i++ {
		x.Add(float64(i), 1+float64(i%3))
	}
	data, err := x.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var restored ExactNorms
	if err := restored.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if restored.FroSq(49) != x.FroSq(49) {
		t.Fatalf("restored mass %v vs %v", restored.FroSq(49), x.FroSq(49))
	}
	if restored.Size() != x.Size() {
		t.Fatalf("restored size %d vs %d", restored.Size(), x.Size())
	}
	// Restored tracker keeps working.
	restored.Add(50, 2)
	if restored.FroSq(50) <= 0 {
		t.Fatal("restored tracker dead")
	}
}

func TestExactNormsSnapshotRejectsBadData(t *testing.T) {
	var x ExactNorms
	for name, data := range map[string][]byte{
		"empty":     nil,
		"truncated": {1, 2, 3},
	} {
		if err := x.UnmarshalBinary(data); err == nil {
			t.Fatalf("%s: expected error", name)
		}
	}
	// Bad kind.
	good := NewExactNorms(Seq(5))
	good.Add(0, 1)
	b, _ := good.MarshalBinary()
	b[0] = 99 // kind byte (little-endian first byte of the kind u64)
	if err := x.UnmarshalBinary(b); err == nil {
		t.Fatal("expected bad-kind error")
	}
	// Trailing bytes.
	b2, _ := good.MarshalBinary()
	if err := x.UnmarshalBinary(append(b2, 1)); err == nil {
		t.Fatal("expected trailing-bytes error")
	}
	// A 24-byte blob claiming 1.7e9 items: the decoder must reject the
	// count before growing the item list (it used to run out of memory).
	empty, _ := NewExactNorms(Seq(5)).MarshalBinary()
	binary.LittleEndian.PutUint64(empty[16:], 0x64000000)
	allocs := testing.AllocsPerRun(1, func() {
		if err := x.UnmarshalBinary(empty); err == nil {
			t.Fatal("expected hostile-count error")
		}
	})
	if allocs > 16 {
		t.Fatalf("hostile count allocated %v objects", allocs)
	}
}

func TestKindStringUnknown(t *testing.T) {
	if Kind(42).String() == "" {
		t.Fatal("unknown kind should still render")
	}
}
