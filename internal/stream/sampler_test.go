package stream

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"swsketch/internal/mat"
)

func TestPriorityKeyPanicsOnBadWeight(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, w := range []float64{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for w=%v", w)
				}
			}()
			PriorityKey(rng, w)
		}()
	}
}

func TestPriorityKeyOrderingStatistics(t *testing.T) {
	// An item with weight 3 among unit weights should win the maximum
	// priority about 3/(3+n−1) of the time.
	rng := rand.New(rand.NewSource(2))
	trials, n := 20000, 10
	wins := 0
	for tr := 0; tr < trials; tr++ {
		best, bestIdx := math.Inf(-1), -1
		for i := 0; i < n; i++ {
			w := 1.0
			if i == 0 {
				w = 3
			}
			if k := PriorityKey(rng, w); k > best {
				best, bestIdx = k, i
			}
		}
		if bestIdx == 0 {
			wins++
		}
	}
	got := float64(wins) / float64(trials)
	want := 3.0 / 12.0
	if math.Abs(got-want) > 0.02 {
		t.Fatalf("heavy item won %.3f of trials, want ≈ %.3f", got, want)
	}
}

func TestSampleOfflineWREdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	if b := SampleOfflineWR(mat.NewDense(0, 3), 5, rng); b.Rows() != 0 {
		t.Fatal("empty input should give empty sample")
	}
	if b := SampleOfflineWR(mat.NewDense(3, 3), 5, rng); b.Rows() != 0 {
		t.Fatal("all-zero input should give empty sample")
	}
	if b := SampleOfflineWR(mat.FromRows([][]float64{{1, 0}}), 0, rng); b.Rows() != 0 {
		t.Fatal("ell=0 should give empty sample")
	}
}

func TestSampleOfflineWRUnbiased(t *testing.T) {
	// E[BᵀB] = AᵀA: average many samples and compare.
	rng := rand.New(rand.NewSource(9))
	a := mat.FromRows([][]float64{
		{2, 0, 0},
		{0, 1, 0},
		{1, 1, 1},
		{0, 0, 3},
	})
	avg := mat.NewDense(3, 3)
	const trials = 3000
	for i := 0; i < trials; i++ {
		b := SampleOfflineWR(a, 4, rng)
		avg.Add(b.Gram())
	}
	avg.Scale(1.0 / trials)
	want := a.Gram()
	diff := avg.Clone().Sub(want)
	if rel := diff.Frobenius() / want.Frobenius(); rel > 0.05 {
		t.Fatalf("E[BᵀB] deviates from AᵀA by %.3f relative", rel)
	}
}

func TestSampleOfflineWORExactWhenEllCoversAll(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := mat.FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	b := SampleOfflineWOR(a, 10, rng)
	if b.Rows() != 3 {
		t.Fatalf("rows = %d, want 3 (all)", b.Rows())
	}
	if e := covaErr(a, b); e > 1e-10 {
		t.Fatalf("full WOR sample error = %v", e)
	}
}

func TestSampleOfflineWORSkipsZeroRows(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := mat.FromRows([][]float64{{0, 0}, {1, 1}, {0, 0}})
	b := SampleOfflineWOR(a, 5, rng)
	if b.Rows() != 1 {
		t.Fatalf("rows = %d, want 1 (only non-zero)", b.Rows())
	}
}

func TestSampleOfflineWORInclusionProbabilities(t *testing.T) {
	// Heavier rows must be sampled more often when ℓ < n.
	rng := rand.New(rand.NewSource(12))
	// Heavy row points along e₀, light rows along e₁, so the sampled
	// row's direction identifies it even after rescaling.
	a := mat.FromRows([][]float64{
		{3, 0}, // w = 9
		{0, 1}, // w = 1
		{0, 1},
		{0, 1},
	})
	heavy := 0
	const trials = 4000
	for i := 0; i < trials; i++ {
		b := SampleOfflineWOR(a, 1, rng)
		if math.Abs(b.At(0, 0)) > math.Abs(b.At(0, 1)) {
			heavy++
		}
	}
	got := float64(heavy) / trials
	want := 9.0 / 12.0
	if math.Abs(got-want) > 0.03 {
		t.Fatalf("heavy row sampled %.3f, want ≈ %.3f", got, want)
	}
}

func TestSkewedWindowWORPerRowDegrades(t *testing.T) {
	// The paper's Figure 6 phenomenon: on a window of a few huge rows
	// and many tiny rows, the per-row-rescaled SWOR estimator (what the
	// paper implemented) has error that *grows* with ℓ, because each
	// always-included heavy row is capped at ‖A‖²_F/ℓ mass.
	rng := rand.New(rand.NewSource(13))
	d := 5
	n := 400
	a := mat.NewDense(n, d)
	for i := 0; i < n; i++ {
		row := randRow(rng, d)
		scale := 0.05 // tiny rows
		if i < 20 {
			scale = 30 // few huge rows
		}
		for j := range row {
			a.Set(i, j, row[j]*scale)
		}
	}
	errAt := func(ell int) float64 {
		var sum float64
		const seeds = 8
		for s := 0; s < seeds; s++ {
			b := SampleOfflineWORPerRow(a, ell, rng)
			sum += covaErr(a, b)
		}
		return sum / seeds
	}
	small := errAt(20)  // exactly the huge rows
	large := errAt(120) // forced to include tiny rows
	if large < small {
		t.Fatalf("per-row WOR error did not grow with ℓ on skewed window: ℓ=20→%v, ℓ=120→%v", small, large)
	}
	// The theoretically sound uniform rescale must NOT degrade much by
	// comparison: it stays below the per-row estimator at large ℓ.
	var uni float64
	for s := 0; s < 8; s++ {
		uni += covaErr(a, SampleOfflineWOR(a, 120, rng))
	}
	uni /= 8
	if uni > large {
		t.Fatalf("uniform WOR (%v) should beat per-row WOR (%v) at ℓ=120", uni, large)
	}
}

func TestTopKSelect(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(100)
		k := 1 + rng.Intn(n)
		items := make([]keyedIndex, n)
		keys := make([]float64, n)
		for i := range items {
			keys[i] = rng.Float64()
			items[i] = keyedIndex{key: keys[i], idx: i}
		}
		topKSelect(items, k)
		sort.Sort(sort.Reverse(sort.Float64Slice(keys)))
		got := make([]float64, k)
		for i := 0; i < k; i++ {
			got[i] = items[i].key
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(got)))
		for i := 0; i < k; i++ {
			if got[i] != keys[i] {
				t.Fatalf("trial %d: top-%d selection wrong at %d: %v vs %v", trial, k, i, got[i], keys[i])
			}
		}
	}
}
