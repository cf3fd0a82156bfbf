package core

import (
	"math"
	"math/rand"
	"sort"

	"swsketch/internal/mat"
	"swsketch/internal/stream"
	"swsketch/internal/trace"
	"swsketch/internal/window"
)

// sworCandidate extends candidate with the rank counter of Algorithm
// 5.2: rank is 1 plus the number of higher-priority rows that arrived
// after this one. A row stays a candidate exactly while rank ≤ ℓ.
type sworCandidate struct {
	candidate
	rank int
}

// SWOR samples ℓ rows without replacement, with probability
// proportional to squared norms, over a sliding window (Algorithm
// 5.2). A single candidate queue holds every row that is currently
// among the top-ℓ priorities of some window suffix; the expected queue
// length is O(ℓ·log NR) (Lemma 5.2). SWOR works for both window types.
//
// Scaling: the paper's implementation (the query step of Section 5.1)
// rescales each sampled row individually by ‖A‖_F/(√ℓ‖a‖) — the same
// factor as SWR. That choice is what produces the Figure 6 behaviour
// on skew-normed windows. Setting UniformScale switches to the
// theoretically clean Section 3 estimator that scales the whole sample
// by ‖A‖_F/‖A_S‖_F.
type SWOR struct {
	spec window.Spec
	d    int
	ell  int
	rng  *rand.Rand
	// queue holds candidates oldest-first.
	queue []sworCandidate
	norms window.NormTracker

	// UniformScale selects the Section 3 WOR estimator instead of the
	// paper's per-row rescaling.
	UniformScale bool
	// All makes Query answer with every candidate row (the paper's
	// SWOR-ALL variant) instead of only the top-ℓ sample.
	All bool

	lastT float64
	seen  bool
	tr    *trace.Tracer
}

// SetTracer attaches a tracer: ingests that evict candidates emit
// sampler_evict events, and an EH-backed norm tracker (if attached
// first) emits eh_merge events.
func (s *SWOR) SetTracer(tr *trace.Tracer) {
	s.tr = tr
	if t, ok := s.norms.(trace.Traceable); ok {
		t.SetTracer(tr)
	}
}

// NewSWOR returns a without-replacement sampler of ℓ rows over
// dimension d. It panics with checkSampler's error.
func NewSWOR(spec window.Spec, ell, d int, seed int64) *SWOR {
	must(checkSampler("SWOR", spec, ell, d))
	return &SWOR{
		spec:  spec,
		d:     d,
		ell:   ell,
		rng:   rand.New(rand.NewSource(seed)),
		norms: window.NewExactNorms(spec),
	}
}

// NewSWORAll returns the SWOR-ALL variant, which uses every candidate
// row (uniformly rescaled) as the approximation.
func NewSWORAll(spec window.Spec, ell, d int, seed int64) *SWOR {
	s := NewSWOR(spec, ell, d, seed)
	s.All = true
	s.UniformScale = true
	return s
}

// SetNormTracker replaces the Frobenius-mass tracker. Call before the
// first Update.
func (s *SWOR) SetNormTracker(nt window.NormTracker) { s.norms = nt }

// Update feeds one row (Algorithm 5.2): expire, bump the rank of every
// candidate the new priority beats, evict ranks beyond ℓ, append.
func (s *SWOR) Update(row []float64, t float64) {
	checkWidth("SWOR", row, s.d)
	must(checkRow("SWOR", mat.SqNorm(row), t, s.lastT, s.seen, 0, 0))
	if w := s.ingestRow(row, t); w > 0 {
		s.norms.Add(t, w)
	}
}

// UpdateBatch feeds rows in order, validating once and folding the
// batch's masses into the norm tracker in one call; priority keys are
// drawn in the same order as repeated Update calls, so the candidate
// queue is identical.
func (s *SWOR) UpdateBatch(rows [][]float64, times []float64) {
	must(s.CheckBatch(rows, times))
	ts := make([]float64, 0, len(rows))
	ws := make([]float64, 0, len(rows))
	for i, r := range rows {
		if w := s.ingestRow(r, times[i]); w > 0 {
			ts = append(ts, times[i])
			ws = append(ws, w)
		}
	}
	s.norms.AddBatch(ts, ws)
}

// CheckBatch implements TenantSketch.
func (s *SWOR) CheckBatch(rows [][]float64, times []float64) error {
	return checkBatch("SWOR", rows, times, s.d, s.lastT, s.seen, 0, 0)
}

// Clock implements TenantSketch.
func (s *SWOR) Clock() (float64, bool) { return s.lastT, s.seen }

// ingestRow runs one Algorithm 5.2 step, returning the row's squared
// norm (0 when it carried no mass); norm-tracker accounting is the
// caller's.
func (s *SWOR) ingestRow(row []float64, t float64) float64 {
	s.lastT, s.seen = t, true
	expired := s.expire(s.spec.Cutoff(t))
	w := mat.SqNorm(row)
	if w == 0 {
		if expired > 0 {
			s.tr.Emit(s.Name(), trace.KindSamplerEvict, t, 0, float64(expired))
		}
		return 0
	}
	key := stream.PriorityKey(s.rng, w)

	before := len(s.queue)
	kept := s.queue[:0]
	for _, c := range s.queue {
		if key > c.key {
			c.rank++
		}
		if c.rank <= s.ell {
			kept = append(kept, c)
		}
	}
	s.queue = kept
	if bumped := before - len(kept); bumped > 0 || expired > 0 {
		s.tr.Emit(s.Name(), trace.KindSamplerEvict, t, float64(bumped), float64(expired))
	}
	r := make([]float64, s.d)
	copy(r, row)
	s.queue = append(s.queue, sworCandidate{candidate: candidate{row: r, t: t, w: w, key: key}, rank: 1})
	return w
}

func (s *SWOR) expire(cutoff float64) int {
	drop := 0
	for drop < len(s.queue) && s.queue[drop].t <= cutoff {
		drop++
	}
	if drop > 0 {
		s.queue = s.queue[drop:]
	}
	return drop
}

// Query returns the rescaled sample for the window ending at t.
func (s *SWOR) Query(t float64) *mat.Dense {
	s.expire(s.spec.Cutoff(t))
	froSq := s.norms.FroSq(t)
	if froSq <= 0 || len(s.queue) == 0 {
		return mat.NewDense(0, s.d)
	}

	chosen := make([]candidate, 0, s.ell)
	if s.All {
		for _, c := range s.queue {
			chosen = append(chosen, c.candidate)
		}
	} else {
		// The WOR sample is the top-ℓ priorities among live candidates.
		byKey := make([]sworCandidate, len(s.queue))
		copy(byKey, s.queue)
		sort.Slice(byKey, func(i, j int) bool { return byKey[i].key > byKey[j].key })
		take := s.ell
		if take > len(byKey) {
			take = len(byKey)
		}
		for _, c := range byKey[:take] {
			chosen = append(chosen, c.candidate)
		}
	}

	out := mat.NewDense(len(chosen), s.d)
	if s.UniformScale {
		var sampleSq float64
		for _, c := range chosen {
			sampleSq += c.w
		}
		f := math.Sqrt(froSq / sampleSq)
		for i, c := range chosen {
			dst := out.Row(i)
			for j, v := range c.row {
				dst[j] = f * v
			}
		}
		return out
	}
	fro := math.Sqrt(froSq)
	sqrtEll := math.Sqrt(float64(len(chosen)))
	for i, c := range chosen {
		f := fro / (sqrtEll * math.Sqrt(c.w))
		dst := out.Row(i)
		for j, v := range c.row {
			dst[j] = f * v
		}
	}
	return out
}

// RowsStored reports the candidate-queue length.
func (s *SWOR) RowsStored() int { return len(s.queue) }

// Stats implements Introspector: candidate-queue depth (the quantity
// Lemma 5.2 bounds), the rank distribution's extremes, and the norm
// tracker's size.
func (s *SWOR) Stats() map[string]float64 {
	maxRank := 0
	for _, c := range s.queue {
		if c.rank > maxRank {
			maxRank = c.rank
		}
	}
	m := map[string]float64{
		"ell":        float64(s.ell),
		"candidates": float64(len(s.queue)),
		"rank_max":   float64(maxRank),
	}
	trackerStats(m, s.norms)
	return m
}

var _ Introspector = (*SWOR)(nil)

// Name implements WindowSketch.
func (s *SWOR) Name() string {
	if s.All {
		return "SWOR-ALL"
	}
	return "SWOR"
}

// Dim returns the row dimension d.
func (s *SWOR) Dim() int { return s.d }

var _ TenantSketch = (*SWOR)(nil)

// UpdateSparse ingests a sparse row by densifying it (see
// SWR.UpdateSparse).
func (s *SWOR) UpdateSparse(row mat.SparseRow, t float64) {
	checkSparseWidth("SWOR", row, s.d)
	s.Update(row.Dense(s.d), t)
}

var _ SparseUpdater = (*SWOR)(nil)
