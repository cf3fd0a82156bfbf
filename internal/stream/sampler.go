package stream

import (
	"fmt"
	"math"
	"math/rand"

	"swsketch/internal/mat"
)

// PriorityKey returns the Efraimidis–Spirakis priority key for an item
// of weight w, in log space: log(u)/w for u ~ Unif(0,1). Larger keys
// correspond to larger priorities u^{1/w}; working in log space avoids
// the catastrophic precision loss of u^{1/w} for large w (e.g. the
// paper's PAMAP rows with ‖a‖² ≈ 9·10⁴, where u^{1/w} ≈ 1−10⁻⁵).
func PriorityKey(rng *rand.Rand, w float64) float64 {
	if w <= 0 {
		panic(fmt.Sprintf("stream: priority of non-positive weight %v", w))
	}
	u := rng.Float64()
	for u == 0 { // log(0) = −∞ would tie all priorities
		u = rng.Float64()
	}
	return math.Log(u) / w
}

// rescaleWOR scales a without-replacement sample so its Gram matrix
// estimates AᵀA: every row is multiplied by ‖A‖_F / ‖A_S‖_F.
func rescaleWOR(rows [][]float64, froSqA float64) *mat.Dense {
	if len(rows) == 0 {
		return mat.NewDense(0, 0)
	}
	var sampleSq float64
	for _, r := range rows {
		sampleSq += mat.SqNorm(r)
	}
	b := mat.FromRows(rows)
	if sampleSq > 0 && froSqA > 0 {
		b.Scale(math.Sqrt(froSqA / sampleSq))
	}
	return b
}

// rescaleWR scales a with-replacement sample of ℓ rows so that BᵀB is
// an unbiased estimator of AᵀA: row aᵢ is scaled by ‖A‖_F/(√ℓ‖aᵢ‖).
func rescaleWR(rows [][]float64, froSqA float64) *mat.Dense {
	ell := len(rows)
	if ell == 0 {
		return mat.NewDense(0, 0)
	}
	b := mat.FromRows(rows)
	froA := math.Sqrt(froSqA)
	sqrtEll := math.Sqrt(float64(ell))
	for i := 0; i < ell; i++ {
		ri := b.Row(i)
		n := mat.Norm2(ri)
		if n == 0 {
			continue
		}
		f := froA / (sqrtEll * n)
		for j := range ri {
			ri[j] *= f
		}
	}
	return b
}

// SampleOfflineWR draws ℓ rows from a with replacement, with
// probability proportional to squared norms, and returns the rescaled
// approximation (Section 3, "row sampling"). Used for the Figure 6
// offline experiment.
func SampleOfflineWR(a *mat.Dense, ell int, rng *rand.Rand) *mat.Dense {
	n := a.Rows()
	if n == 0 || ell < 1 {
		return mat.NewDense(0, 0)
	}
	weights := make([]float64, n)
	var total float64
	for i := 0; i < n; i++ {
		weights[i] = mat.SqNorm(a.Row(i))
		total += weights[i]
	}
	if total == 0 {
		return mat.NewDense(0, 0)
	}
	rows := make([][]float64, 0, ell)
	for k := 0; k < ell; k++ {
		t := rng.Float64() * total
		idx := 0
		for ; idx < n-1; idx++ {
			t -= weights[idx]
			if t <= 0 {
				break
			}
		}
		rows = append(rows, a.RowCopy(idx))
	}
	return rescaleWR(rows, total)
}

// SampleOfflineWOR draws min(ℓ, #non-zero rows) rows from a without
// replacement, with probability proportional to squared norms, and
// returns the uniformly rescaled approximation of Section 3
// (every sampled row scaled by ‖A‖_F/‖A_S‖_F).
func SampleOfflineWOR(a *mat.Dense, ell int, rng *rand.Rand) *mat.Dense {
	rows, total := offlineWORRows(a, ell, rng)
	if rows == nil {
		return mat.NewDense(0, 0)
	}
	return rescaleWOR(rows, total)
}

// SampleOfflineWORPerRow is the paper's *implemented* SWOR estimator
// (the query step of Algorithm 5.2 rescales each sampled row
// individually by ‖A‖_F/(√ℓ‖a‖), exactly like SWR). On skew-normed
// windows this caps every always-included heavy row at ‖A‖²_F/ℓ mass,
// which is what makes the covariance error *grow* with ℓ in Figure 6.
// It is provided to reproduce that experiment faithfully.
func SampleOfflineWORPerRow(a *mat.Dense, ell int, rng *rand.Rand) *mat.Dense {
	rows, total := offlineWORRows(a, ell, rng)
	if rows == nil {
		return mat.NewDense(0, 0)
	}
	return rescaleWR(rows, total)
}

// offlineWORRows draws the WOR sample itself: min(ℓ, #non-zero) rows
// with probability proportional to squared norms, plus ‖A‖²_F.
func offlineWORRows(a *mat.Dense, ell int, rng *rand.Rand) ([][]float64, float64) {
	n := a.Rows()
	if n == 0 || ell < 1 {
		return nil, 0
	}
	// Priority sampling: top-ℓ keys give a norm-proportional WOR sample.
	var total float64
	items := make([]keyedIndex, 0, n)
	for i := 0; i < n; i++ {
		w := mat.SqNorm(a.Row(i))
		if w == 0 {
			continue
		}
		total += w
		items = append(items, keyedIndex{key: PriorityKey(rng, w), idx: i})
	}
	if len(items) == 0 {
		return nil, 0
	}
	// Partial selection of the ℓ largest keys.
	if ell > len(items) {
		ell = len(items)
	}
	topKSelect(items, ell)
	rows := make([][]float64, ell)
	for k := 0; k < ell; k++ {
		rows[k] = a.RowCopy(items[k].idx)
	}
	return rows, total
}

type keyedIndex struct {
	key float64
	idx int
}

// topKSelect partially sorts items so the k largest keys occupy the
// prefix, using quickselect.
func topKSelect(items []keyedIndex, k int) {
	lo, hi := 0, len(items)-1
	for lo < hi {
		p := items[(lo+hi)/2].key
		i, j := lo, hi
		for i <= j {
			for items[i].key > p {
				i++
			}
			for items[j].key < p {
				j--
			}
			if i <= j {
				items[i], items[j] = items[j], items[i]
				i++
				j--
			}
		}
		if k-1 <= j {
			hi = j
		} else if k-1 >= i {
			lo = i
		} else {
			break
		}
	}
}
