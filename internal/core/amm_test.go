package core

import (
	"bytes"
	"math/rand"
	"testing"

	"swsketch/internal/mat"
	"swsketch/internal/stream"
	"swsketch/internal/window"
)

// pairedRows draws n correlated row pairs sharing a k-dim latent
// factor, returned as stacked rows [a|b] plus the split point.
func pairedRows(rng *rand.Rand, n, dA, dB, k int) [][]float64 {
	ga := make([][]float64, k)
	gb := make([][]float64, k)
	for l := 0; l < k; l++ {
		ga[l] = make([]float64, dA)
		gb[l] = make([]float64, dB)
		for j := range ga[l] {
			ga[l][j] = rng.NormFloat64()
		}
		for j := range gb[l] {
			gb[l][j] = rng.NormFloat64()
		}
	}
	rows := make([][]float64, n)
	z := make([]float64, k)
	for i := range rows {
		for l := range z {
			z[l] = rng.NormFloat64()
		}
		row := make([]float64, dA+dB)
		for j := 0; j < dA; j++ {
			s := 0.25 * rng.NormFloat64()
			for l := 0; l < k; l++ {
				s += z[l] * ga[l][j]
			}
			row[j] = s
		}
		for j := 0; j < dB; j++ {
			s := 0.25 * rng.NormFloat64()
			for l := 0; l < k; l++ {
				s += z[l] * gb[l][j]
			}
			row[dA+j] = s
		}
		rows[i] = row
	}
	return rows
}

func maxStackedSqNorm(rows [][]float64) float64 {
	m := 0.0
	for _, r := range rows {
		if w := mat.SqNorm(r); w > m {
			m = w
		}
	}
	return m
}

func TestNewAMMValidation(t *testing.T) {
	spec := window.Spec{Kind: window.Sequence, Size: 100}
	for _, c := range []func(){
		func() { NewLMAMM(spec, 0, 3, 8, 4) },
		func() { NewLMAMM(spec, 3, 0, 8, 4) },
		func() { NewLMAMM(spec, 3, 3, 1, 4) },
		func() { NewDIAMM(DIConfig{N: 100, R: 4, L: 3, Ell: 16}, 0, 3) },
		func() { AutoAMM(spec, 3, 3, 0, stream.FDOpts{}) },
		func() { AutoAMM(spec, 3, 3, 1.5, stream.FDOpts{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected constructor panic")
				}
			}()
			c()
		}()
	}
}

func TestAMMPairedMismatchPanics(t *testing.T) {
	a := NewLMAMM(window.Spec{Kind: window.Sequence, Size: 100}, 3, 2, 8, 4)
	for _, pair := range [][2][]float64{
		{{1, 2}, {1, 2}},       // A side short
		{{1, 2, 3}, {1, 2, 3}}, // B side long
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for pair lengths (%d,%d)", len(pair[0]), len(pair[1]))
				}
			}()
			a.UpdatePaired(1, pair[0], pair[1])
		}()
	}
}

func TestLMAMMTracksExactProduct(t *testing.T) {
	const (
		dA, dB = 5, 4
		win    = 300
		n      = 1500
	)
	rng := rand.New(rand.NewSource(1))
	rows := pairedRows(rng, n, dA, dB, 3)
	spec := window.Spec{Kind: window.Sequence, Size: win}
	sk := NewLMAMM(spec, dA, dB, 24, 8)
	oracle := window.NewExact(spec, dA+dB)
	worst := 0.0
	for i, row := range rows {
		ts := float64(i + 1)
		sk.UpdatePaired(ts, row[:dA], row[dA:])
		oracle.Update(row, ts)
		if i >= win && (i+1)%win == 0 {
			if e := oracle.AmmErr(dA, sk.AmmProduct(ts)); e > worst {
				worst = e
			}
		}
	}
	if worst > 0.2 {
		t.Fatalf("LM-AMM worst relative product error %g, want ≤ 0.2", worst)
	}
}

func TestDIAMMTracksExactProduct(t *testing.T) {
	const (
		dA, dB = 4, 4
		win    = 300
		n      = 1500
	)
	rng := rand.New(rand.NewSource(2))
	rows := pairedRows(rng, n, dA, dB, 3)
	spec := window.Spec{Kind: window.Sequence, Size: win}
	sk := NewDIAMM(DIConfig{N: win, R: maxStackedSqNorm(rows) * 1.01, L: 5, Ell: 48, RSlack: 2}, dA, dB)
	oracle := window.NewExact(spec, dA+dB)
	worst := 0.0
	for i, row := range rows {
		ts := float64(i + 1)
		sk.Update(row, ts)
		oracle.Update(row, ts)
		if i >= win && (i+1)%win == 0 {
			if e := oracle.AmmErr(dA, sk.AmmProduct(ts)); e > worst {
				worst = e
			}
		}
	}
	if worst > 0.35 {
		t.Fatalf("DI-AMM worst relative product error %g, want ≤ 0.35", worst)
	}
}

func TestAMMPairedMatchesStacked(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rows := pairedRows(rng, 500, 4, 3, 2)
	spec := window.Spec{Kind: window.Sequence, Size: 150}
	paired := NewLMAMM(spec, 4, 3, 12, 4)
	stacked := NewLMAMM(spec, 4, 3, 12, 4)
	for i, row := range rows {
		ts := float64(i + 1)
		paired.UpdatePaired(ts, row[:4], row[4:])
		stacked.Update(row, ts)
	}
	q := float64(len(rows))
	if !paired.Query(q).Equal(stacked.Query(q), 0) {
		t.Fatal("UpdatePaired diverged from stacked Update")
	}
}

func TestAMMApproximationShape(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	rows := pairedRows(rng, 200, 5, 3, 2)
	a := NewLMAMM(window.Spec{Kind: window.Sequence, Size: 100}, 5, 3, 10, 4)
	for i, row := range rows {
		a.Update(row, float64(i+1))
	}
	est := a.AmmApproximation(float64(len(rows)))
	if len(est) != 5 {
		t.Fatalf("estimate has %d rows, want 5", len(est))
	}
	for _, r := range est {
		if len(r) != 3 {
			t.Fatalf("estimate row has %d cols, want 3", len(r))
		}
	}
	if dA, dB := a.AmmDims(); dA != 5 || dB != 3 {
		t.Fatalf("AmmDims = (%d,%d), want (5,3)", dA, dB)
	}
}

func TestAMMEmptyWindowProduct(t *testing.T) {
	a := NewLMAMM(window.Spec{Kind: window.Time, Size: 10}, 3, 2, 8, 4)
	p := a.AmmProduct(0)
	if p.Rows() != 3 || p.Cols() != 2 {
		t.Fatalf("empty product is %dx%d, want 3x2", p.Rows(), p.Cols())
	}
	for _, v := range p.Data() {
		if v != 0 {
			t.Fatal("empty-window product not zero")
		}
	}
}

func TestAMMZeroOneSide(t *testing.T) {
	// Rows that are zero on exactly one side carry stacked mass, flow
	// through the frameworks, and contribute zero to the product.
	spec := window.Spec{Kind: window.Sequence, Size: 200}
	sk := NewLMAMM(spec, 3, 2, 8, 4)
	oracle := window.NewExact(spec, 5)
	rng := rand.New(rand.NewSource(5))
	rows := pairedRows(rng, 300, 3, 2, 2)
	for i, row := range rows {
		ts := float64(3*i + 1)
		sk.UpdatePaired(ts, row[:3], row[3:])
		oracle.Update(row, ts)
		onlyA := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), 0, 0}
		sk.UpdatePaired(float64(3*i+2), onlyA[:3], onlyA[3:])
		oracle.Update(onlyA, float64(3*i+2))
		onlyB := []float64{0, 0, 0, rng.NormFloat64(), rng.NormFloat64()}
		sk.UpdatePaired(float64(3*i+3), onlyB[:3], onlyB[3:])
		oracle.Update(onlyB, float64(3*i+3))
	}
	ts := float64(3 * len(rows))
	if e := oracle.AmmErr(3, sk.AmmProduct(ts)); e > 0.25 {
		t.Fatalf("one-sided zero rows degraded the estimate: err=%g", e)
	}
}

func TestAMMSparsePath(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	rows := pairedRows(rng, 300, 4, 3, 2)
	spec := window.Spec{Kind: window.Sequence, Size: 100}
	dense := NewLMAMM(spec, 4, 3, 10, 4)
	sparse := NewLMAMM(spec, 4, 3, 10, 4)
	for i, row := range rows {
		ts := float64(i + 1)
		dense.Update(row, ts)
		sparse.UpdateSparse(mat.SparseFromDense(row), ts)
	}
	q := float64(len(rows))
	if !dense.Query(q).Equal(sparse.Query(q), 0) {
		t.Fatal("sparse ingest diverged from dense")
	}
}

func TestAMMStats(t *testing.T) {
	a := NewLMAMM(window.Spec{Kind: window.Sequence, Size: 100}, 4, 3, 8, 4)
	rng := rand.New(rand.NewSource(7))
	for i, row := range pairedRows(rng, 200, 4, 3, 2) {
		a.Update(row, float64(i+1))
	}
	st := a.Stats()
	if st["d_a"] != 4 || st["d_b"] != 3 {
		t.Fatalf("Stats dims wrong: %+v", st)
	}
	if st["levels"] < 1 {
		t.Fatalf("Stats missing inner LM state: %+v", st)
	}
	if a.Name() != "LM-AMM" {
		t.Fatalf("Name = %q", a.Name())
	}
	d := NewDIAMM(DIConfig{N: 100, R: 64, L: 4, Ell: 24}, 4, 3)
	if d.Name() != "DI-AMM" {
		t.Fatalf("Name = %q", d.Name())
	}
}

func TestAutoAMM(t *testing.T) {
	a := AutoAMM(window.Spec{Kind: window.Sequence, Size: 500}, 6, 4, 0.05, stream.FDOpts{})
	if a.Name() != "LM-AMM" {
		t.Fatalf("AutoAMM built %q", a.Name())
	}
	rng := rand.New(rand.NewSource(8))
	spec := window.Spec{Kind: window.Sequence, Size: 500}
	oracle := window.NewExact(spec, 10)
	rows := pairedRows(rng, 1200, 6, 4, 3)
	for i, row := range rows {
		ts := float64(i + 1)
		a.Update(row, ts)
		oracle.Update(row, ts)
	}
	if e := oracle.AmmErr(6, a.AmmProduct(float64(len(rows)))); e > 0.1 {
		t.Fatalf("AutoAMM(0.05) error %g, want well under target neighbourhood", e)
	}
}

func ammRoundTrip(t *testing.T, mk func() *AMM) {
	t.Helper()
	rng := rand.New(rand.NewSource(9))
	fresh := mk()
	dA, dB := fresh.AmmDims()
	rows := pairedRows(rng, 700, dA, dB, 3)
	for i, row := range rows[:500] {
		fresh.Update(row, float64(i+1))
	}
	blob, err := fresh.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored := mk()
	if err := restored.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if !fresh.Query(500).Equal(restored.Query(500), 0) {
		t.Fatal("restored query differs")
	}
	// Re-marshal fixed point.
	blob2, err := restored.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, blob2) {
		t.Fatal("re-marshal is not a fixed point")
	}
	// Deterministic continuation: identical suffixes keep both
	// bit-identical (what the registry's spill/restore relies on).
	for i, row := range rows[500:] {
		ts := float64(501 + i)
		fresh.Update(row, ts)
		restored.Update(row, ts)
	}
	if !fresh.Query(700).Equal(restored.Query(700), 0) {
		t.Fatal("restored sketch diverged under continuation")
	}
	if !fresh.AmmProduct(700).Equal(restored.AmmProduct(700), 0) {
		t.Fatal("restored product diverged under continuation")
	}
}

func TestLMAMMMarshalRoundTrip(t *testing.T) {
	ammRoundTrip(t, func() *AMM {
		return NewLMAMM(window.Spec{Kind: window.Sequence, Size: 200}, 5, 4, 12, 4)
	})
}

func TestLMAMMMarshalRoundTripTimeTuned(t *testing.T) {
	ammRoundTrip(t, func() *AMM {
		return NewLMAMMOpts(window.Spec{Kind: window.Time, Size: 200}, 4, 4, 10, 4,
			stream.FDOpts{Buffer: 2, Alpha: 0.5})
	})
}

func TestDIAMMMarshalRoundTrip(t *testing.T) {
	ammRoundTrip(t, func() *AMM {
		return NewDIAMM(DIConfig{N: 200, R: 80, L: 4, Ell: 32, RSlack: 2}, 5, 4)
	})
}

func TestAMMUnmarshalRejectsCorrupt(t *testing.T) {
	a := NewLMAMM(window.Spec{Kind: window.Sequence, Size: 50}, 3, 2, 8, 4)
	rng := rand.New(rand.NewSource(10))
	for i, row := range pairedRows(rng, 120, 3, 2, 2) {
		a.Update(row, float64(i+1))
	}
	blob, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":     {},
		"magic":     append([]byte{1, 2, 3, 4, 5, 6, 7, 8}, blob[8:]...),
		"truncated": blob[:len(blob)/2],
		"trailing":  append(append([]byte{}, blob...), 0xff),
	}
	for name, data := range cases {
		fresh := NewLMAMM(window.Spec{Kind: window.Sequence, Size: 50}, 3, 2, 8, 4)
		if err := fresh.UnmarshalBinary(data); err == nil {
			t.Errorf("%s snapshot unexpectedly accepted", name)
		}
	}
	// Cross-kind restore must work: the snapshot rebuilds the inner
	// framework from its own header regardless of the receiver's.
	other := NewDIAMM(DIConfig{N: 10, R: 4, L: 2, Ell: 8}, 2, 2)
	if err := other.UnmarshalBinary(blob); err != nil {
		t.Fatalf("cross-kind restore failed: %v", err)
	}
	if other.Name() != "LM-AMM" {
		t.Fatalf("cross-kind restore produced %q", other.Name())
	}
}

func TestAMMBatchMatchesSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rows := pairedRows(rng, 400, 4, 3, 2)
	times := make([]float64, len(rows))
	for i := range times {
		times[i] = float64(i + 1)
	}
	spec := window.Spec{Kind: window.Sequence, Size: 120}
	single := NewLMAMM(spec, 4, 3, 10, 4)
	batch := NewLMAMM(spec, 4, 3, 10, 4)
	for i, row := range rows {
		single.Update(row, times[i])
	}
	for lo := 0; lo < len(rows); lo += 53 {
		hi := lo + 53
		if hi > len(rows) {
			hi = len(rows)
		}
		batch.UpdateBatch(rows[lo:hi], times[lo:hi])
	}
	q := float64(len(rows))
	if !single.Query(q).Equal(batch.Query(q), 0) {
		t.Fatal("UpdateBatch diverged from Update")
	}
}
