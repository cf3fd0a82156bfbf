package core

import (
	"fmt"
	"math"

	"swsketch/internal/mat"
	"swsketch/internal/stream"
	"swsketch/internal/trace"
)

// DS-FD is the dump-snapshot FrequentDirections framework from
// "Optimal Matrix Sketching over Sliding Windows" (the successor to
// the SIGMOD-2016 LM/DI frameworks this package reproduces). Where LM
// keeps Θ(log εNR) levels of ℓ-row block sketches and DI keeps L
// dyadic levels, DS-FD keeps O(1) *frames*, each a single FD sketch,
// and pays for expiry with small truncated prefix *snapshots* instead
// of whole parallel sketches — the structural change that removes the
// logarithmic factor from the space bound.
//
// The error budget is θ = N·R/ℓ (the reference harness's
// error_threshold), with N the window length, R the squared-row-norm
// bound, and ℓ the sketch size. Three mechanisms partition it:
//
//   - Dump: each frame accumulates the λ its FD shrinks charge
//     (stream.FD.Delta, a certified covariance-error bound). When a
//     frame's Σλ crosses θ/2 it is frozen — its final state is kept
//     verbatim — and a fresh frame opens. Because every charged λ
//     removes ≥ ℓ/2·λ of squared Frobenius mass, a frozen frame covers
//     ≥ θℓ/4 = N·R/4 of stream mass, so at most O(1) frames intersect
//     any window.
//   - Snapshot: every θ/2 of ingested mass the active frame records a
//     truncated copy of its current state — only the directions with
//     squared singular value above θ/4 survive, so a snapshot holds
//     O(‖frame‖²_F/θ) ≤ O(ℓ) rows and usually far fewer. Snapshots are
//     the subtraction points expiry needs.
//   - Subtract: at query time only the oldest live frame can straddle
//     the window boundary. Its expired prefix is removed by forming
//     the indefinite difference FᵀF − BᵀB between the frame state F
//     and the newest snapshot B taken before the cutoff, via an
//     eigendecomposition on the small (rows(F)+rows(B))² signed Gram —
//     never the d×d side. Younger frames lie entirely inside the
//     window and contribute their states whole; everything merges
//     oldest-first into a fresh ℓ-row FD.
//
// Per query the error decomposes as: the straddler's shrink charge
// (≤ θ/2 by the dump rule), the unsnapshotted over-count (≤ θ/2 of
// mass by the snapshot cadence), the snapshot truncation (≤ θ/4,
// spectral norm of an orthogonal tail), and the final merge's own FD
// guarantee — each a constant fraction of θ.
//
// DS-FD supports sequence windows only (like DI) but does not need R
// a priori: with R unset it tracks the running maximum squared row
// norm, growing θ monotonically, which keeps every decision already
// made valid. It is fully deterministic, so batch ingest and
// snapshot/restore are bit-exact.

// Budget split: fractions of θ spent by each mechanism. They are
// implementation constants rather than config — the guarantee shape is
// the same for any constant split, and a fixed split keeps snapshot
// bytes comparable across deployments.
const (
	dsfdDumpFrac  = 0.5  // freeze a frame when its Σλ ≥ θ/2
	dsfdSnapFrac  = 0.5  // snapshot every θ/2 of ingested mass
	dsfdTruncFrac = 0.25 // snapshots keep directions with σ² > θ/4
)

// DSFDConfig parameterises the dump-snapshot FD framework.
type DSFDConfig struct {
	// N is the sequence window size (rows).
	N int
	// Ell is the sketch size ℓ: the query answer has at most ℓ rows
	// and the error threshold is θ = N·R/ℓ.
	Ell int
	// R bounds the squared norm of every row. 0 means adaptive: the
	// sketch tracks the running maximum, and θ grows with it. When
	// set, rows violating the bound (beyond RSlack) panic, as in DI.
	R float64
	// RSlack is the multiplicative tolerance on a declared R before
	// Update panics (default 1+1e-9). Ignored when R is adaptive.
	RSlack float64
	// FD is the FastFD tuning applied to every frame sketch.
	FD stream.FDOpts
}

// withDefaults resolves the zero-value defaults of RSlack and FD.
func (c DSFDConfig) withDefaults() DSFDConfig {
	if c.RSlack == 0 {
		c.RSlack = 1 + 1e-9
	}
	c.FD = c.FD.Normalize()
	return c
}

// check states DS-FD's limits, its frame sketches' FD limits included,
// for rows of dimension d and a config with its defaults resolved;
// NewDSFD panics with its error and the decoder returns it.
func (c DSFDConfig) check(d int) error {
	switch {
	case c.N < 1:
		return fmt.Errorf("core: DSFD needs window size N ≥ 1, got %d", c.N)
	case !(c.R >= 0) || math.IsInf(c.R, 0):
		return fmt.Errorf("core: DSFD needs a finite norm bound R ≥ 0 (0 = adaptive), got %v", c.R)
	case !(c.RSlack >= 1) || math.IsInf(c.RSlack, 0):
		return fmt.Errorf("core: DSFD needs a finite RSlack ≥ 1, got %v", c.RSlack)
	}
	return stream.CheckFD(c.Ell, d, c.FD)
}

// dsSnap is one truncated prefix snapshot: rows holds the directions
// of the frame state at time t whose squared singular values exceeded
// the truncation threshold (nil when none did).
type dsSnap struct {
	t    float64
	rows *mat.Dense
}

// dsFrame is one frame of the hierarchy. The active frame's live
// sketch lives on the DSFD struct; final is set when the frame is
// frozen by a dump.
type dsFrame struct {
	start, end float64
	mass       float64 // squared Frobenius mass ingested
	delta      float64 // Σλ charged by the frame's FD shrinks
	snaps      []dsSnap
	final      *mat.Dense // frozen state; nil while active
}

func (f *dsFrame) snapRows() int {
	n := 0
	for _, sn := range f.snaps {
		if sn.rows != nil {
			n += sn.rows.Rows()
		}
	}
	return n
}

// DSFD implements WindowSketch with the dump-snapshot hierarchy.
type DSFD struct {
	cfg DSFDConfig
	d   int

	frames []dsFrame // frozen frames, oldest first
	cur    dsFrame   // the active frame (final == nil)
	fd     *stream.FD

	// deltaMark is the active FD's Delta() at the last ingest, so the
	// frame's own Σλ survives sketch replacement and restore (Delta is
	// not persisted and resets to 0 on both).
	deltaMark float64
	sinceSnap float64 // mass ingested since the last snapshot (or dump)

	rSeen float64 // running max squared row norm (adaptive R)
	lastT float64
	seen  bool

	dumps         uint64
	snapsTaken    uint64
	shrinksFrozen uint64 // shrink count accumulated from dumped frames

	tr *trace.Tracer
}

// NewDSFD builds a dump-snapshot FD sketch over a sequence window of
// cfg.N rows in dimension d. It panics with the config's check error.
func NewDSFD(cfg DSFDConfig, d int) *DSFD {
	cfg = cfg.withDefaults()
	must(cfg.check(d))
	s := &DSFD{cfg: cfg, d: d}
	s.fd = s.mkFD()
	return s
}

// SetTracer attaches a tracer: dumps, snapshots, and expiry emit
// events, and the active frame sketch emits fd_shrink spans.
func (s *DSFD) SetTracer(tr *trace.Tracer) {
	s.tr = tr
	s.fd.SetTracer(tr)
}

func (s *DSFD) mkFD() *stream.FD {
	fd := stream.NewFDOpts(s.cfg.Ell, s.d, s.cfg.FD)
	fd.SetTracer(s.tr)
	return fd
}

// rEff is the effective squared-row-norm bound: the declared R, or the
// running maximum when adaptive.
func (s *DSFD) rEff() float64 {
	if s.cfg.R > 0 {
		return s.cfg.R
	}
	return s.rSeen
}

// theta is the error threshold θ = N·R/ℓ the budget is split over.
func (s *DSFD) theta() float64 {
	return float64(s.cfg.N) * s.rEff() / float64(s.cfg.Ell)
}

// Update feeds one row; t must be the row's stream index (sequence
// windows only, like DI).
func (s *DSFD) Update(row []float64, t float64) {
	checkWidth("DSFD", row, s.d)
	w := rowSqNorm(row)
	must(checkRow("DSFD", w, t, s.lastT, s.seen, s.cfg.R, s.cfg.RSlack))
	s.ingest(row, w, t)
}

// UpdateBatch ingests rows in order with one up-front validation pass;
// dump and snapshot decisions fall exactly as under row-at-a-time
// Update, so the resulting state is bit-identical.
func (s *DSFD) UpdateBatch(rows [][]float64, times []float64) {
	must(s.CheckBatch(rows, times))
	for i, r := range rows {
		s.ingest(r, rowSqNorm(r), times[i])
	}
}

// CheckBatch implements TenantSketch; with a declared R > 0, rows are
// held to it.
func (s *DSFD) CheckBatch(rows [][]float64, times []float64) error {
	return checkBatch("DSFD", rows, times, s.d, s.lastT, s.seen, s.cfg.R, s.cfg.RSlack)
}

// Clock implements TenantSketch.
func (s *DSFD) Clock() (float64, bool) { return s.lastT, s.seen }

// UpdateSparse ingests a sparse row, equivalent to Update on its dense
// form (the frame sketch stores rows dense, so the row is scattered).
func (s *DSFD) UpdateSparse(row mat.SparseRow, t float64) {
	checkSparseWidth("DSFD", row, s.d)
	w := row.SqNorm()
	must(checkRow("DSFD", w, t, s.lastT, s.seen, s.cfg.R, s.cfg.RSlack))
	s.ingest(row.Dense(s.d), w, t)
}

func rowSqNorm(row []float64) float64 {
	w := 0.0
	for _, v := range row {
		w += v * v
	}
	return w
}

// ingest does not retain row.
func (s *DSFD) ingest(row []float64, w, t float64) {
	s.lastT, s.seen = t, true
	if w == 0 {
		return // zero rows carry no mass; they only advance the clock
	}
	if w > s.rSeen {
		s.rSeen = w
	}
	s.expire(t - float64(s.cfg.N))
	if s.cur.mass == 0 {
		s.cur.start = t
	}

	s.fd.Update(row)
	s.cur.end = t
	s.cur.mass += w
	s.sinceSnap += w
	if d := s.fd.Delta(); d != s.deltaMark {
		s.cur.delta += d - s.deltaMark
		s.deltaMark = d
	}

	th := s.theta()
	if s.cur.delta >= dsfdDumpFrac*th {
		s.dump(t)
	} else if s.sinceSnap >= dsfdSnapFrac*th {
		s.snapshot(t)
	}
}

// dump freezes the active frame — its current sketch state becomes the
// frame's final — and opens a fresh frame with an empty sketch.
func (s *DSFD) dump(t float64) {
	fr := s.cur
	fr.final = s.fd.Matrix()
	s.frames = append(s.frames, fr)
	s.shrinksFrozen += s.fd.Shrinks()
	s.dumps++
	s.tr.Emit("DS-FD", trace.KindDSFDDump, t, float64(fr.final.Rows()), fr.delta)
	s.fd = s.mkFD()
	s.deltaMark = 0
	s.sinceSnap = 0
	s.cur = dsFrame{}
}

// snapshot records a truncated copy of the active frame's state: only
// directions with squared singular value above the truncation
// threshold survive, bounding snapshot rows by the frame mass over
// θ/4. The dropped tail is orthogonal to the kept part, so truncation
// adds at most θ/4 to the spectral error of any later subtraction.
func (s *DSFD) snapshot(t float64) {
	rows := truncateTop(s.fd.Matrix(), dsfdTruncFrac*s.theta())
	s.cur.snaps = append(s.cur.snaps, dsSnap{t: t, rows: rows})
	s.snapsTaken++
	kept := 0
	if rows != nil {
		kept = rows.Rows()
	}
	s.tr.Emit("DS-FD", trace.KindDSFDSnapshot, t, float64(kept), s.sinceSnap)
	s.sinceSnap = 0
}

// truncateTop returns the rows of m's top directions with squared
// singular value strictly above tau (nil when none qualify), via an
// eigendecomposition of the small m·mᵀ Gram side. Row i of the result
// is σᵢ·vᵢᵀ, so the result's Gram is the spectral truncation of mᵀm.
func truncateTop(m *mat.Dense, tau float64) *mat.Dense {
	n := m.Rows()
	if n == 0 {
		return nil
	}
	vals, u := mat.EigenSym(m.GramT())
	kept := 0
	for kept < len(vals) && vals[kept] > tau && vals[kept] > 0 {
		kept++
	}
	if kept == 0 {
		return nil
	}
	ut := mat.NewDense(kept, n)
	mat.TransposeInto(ut, u, kept)
	out := mat.NewDense(kept, m.Cols())
	mat.MulTo(out, ut, m)
	return out
}

// trimSnaps drops the snapshots of fr that precede the newest one
// taken at or before cutoff — that one stays: it is the frame's
// subtraction point until the cutoff passes the next snapshot.
func trimSnaps(fr *dsFrame, cutoff float64) int {
	j := -1
	for k := range fr.snaps {
		if fr.snaps[k].t <= cutoff {
			j = k
		} else {
			break
		}
	}
	if j < 1 {
		return 0
	}
	fr.snaps = append([]dsSnap(nil), fr.snaps[j:]...)
	return j
}

// expire drops frozen frames that lie entirely outside the window,
// trims superseded snapshots, and resets the active frame when every
// row it holds has expired.
func (s *DSFD) expire(cutoff float64) {
	framesDropped, snapsDropped := 0, 0
	drop := 0
	for drop < len(s.frames) && s.frames[drop].end <= cutoff {
		snapsDropped += len(s.frames[drop].snaps)
		drop++
	}
	if drop > 0 {
		s.frames = s.frames[drop:]
		framesDropped = drop
	}
	for i := range s.frames {
		snapsDropped += trimSnaps(&s.frames[i], cutoff)
	}
	if s.cur.mass > 0 && s.cur.end <= cutoff {
		framesDropped++
		snapsDropped += len(s.cur.snaps)
		s.fd = s.mkFD()
		s.deltaMark = 0
		s.sinceSnap = 0
		s.cur = dsFrame{}
	} else {
		snapsDropped += trimSnaps(&s.cur, cutoff)
	}
	if framesDropped > 0 || snapsDropped > 0 {
		s.tr.Emit("DS-FD", trace.KindDSFDExpire, cutoff, float64(framesDropped), float64(snapsDropped))
	}
}

// subtractPoint returns the newest snapshot of fr taken at or before
// cutoff, or nil.
func subtractPoint(fr *dsFrame, cutoff float64) *mat.Dense {
	var b *mat.Dense
	for k := range fr.snaps {
		if fr.snaps[k].t > cutoff {
			break
		}
		b = fr.snaps[k].rows
	}
	return b
}

// Query merges the live frames — the oldest with its expired prefix
// subtracted off — into a fresh ℓ-row FD and returns its state.
func (s *DSFD) Query(t float64) *mat.Dense {
	cutoff := t - float64(s.cfg.N)
	s.expire(cutoff)

	curStraddles := s.cur.mass > 0 && s.cur.start <= cutoff
	if len(s.frames) == 0 && !curStraddles {
		// Single non-straddling frame: its sketch is the whole answer,
		// no merge pass needed (and exact while the frame is raw).
		return s.fd.Matrix()
	}

	acc := s.mkFD()
	for i := range s.frames {
		state := s.frames[i].final
		if i == 0 && s.frames[i].start <= cutoff {
			if b := subtractPoint(&s.frames[i], cutoff); b != nil && b.Rows() > 0 {
				state = subtractSketch(state, b)
			}
		}
		if state.Rows() > 0 {
			acc.UpdateDense(state)
		}
	}
	if s.cur.mass > 0 {
		state := s.fd.Matrix()
		if curStraddles {
			// Only possible when no frozen frame survives (frames are
			// time-ordered, so any earlier frame would straddle first).
			if b := subtractPoint(&s.cur, cutoff); b != nil && b.Rows() > 0 {
				state = subtractSketch(state, b)
			}
		}
		if state.Rows() > 0 {
			acc.UpdateDense(state)
		}
	}
	return acc.Matrix()
}

// subtractSketch returns rows Y with YᵀY equal to the positive part of
// FᵀF − BᵀB. Both Grams live in the row space of Z = [F; B], so the
// difference is Zᵀ·S·Z with S = diag(+1…,−1…); factoring Z through the
// eigenbasis of the small k×k Gram Z·Zᵀ (k = rows(F)+rows(B)) reduces
// the problem to a k×k indefinite eigendecomposition — the d×d side is
// never formed. Negative eigenvalues (B exceeding F along a direction,
// possible only through floating-point round-off here) are clamped.
func subtractSketch(f, b *mat.Dense) *mat.Dense {
	d := f.Cols()
	if f.Rows() == 0 {
		return mat.NewDense(0, d)
	}
	k1 := f.Rows()
	z := mat.Stack(f, b)
	k := z.Rows()

	vals, u := mat.EigenSym(z.GramT())
	if len(vals) == 0 || vals[0] <= 0 {
		return mat.NewDense(0, d)
	}
	tol := vals[0] * 1e-12
	r := 0
	for r < len(vals) && vals[r] > tol {
		r++
	}

	// Q = Λ_r^{-1/2}·U_rᵀ·Z has orthonormal rows spanning Z's row space.
	ut := mat.NewDense(r, k)
	mat.TransposeInto(ut, u, r)
	q := mat.NewDense(r, d)
	mat.MulTo(q, ut, z)
	for i := 0; i < r; i++ {
		inv := 1 / math.Sqrt(vals[i])
		qi := q.Row(i)
		for j := range qi {
			qi[j] *= inv
		}
	}

	// M = Λ^{1/2}·U_rᵀ·S·U_r·Λ^{1/2}, so that Zᵀ·S·Z = Qᵀ·M·Q.
	m := mat.NewDense(r, r)
	md := m.Data()
	for t := 0; t < k; t++ {
		sign := 1.0
		if t >= k1 {
			sign = -1
		}
		urow := u.Row(t)
		for i := 0; i < r; i++ {
			si := sign * urow[i]
			mi := md[i*r:]
			for j := 0; j < r; j++ {
				mi[j] += si * urow[j]
			}
		}
	}
	for i := 0; i < r; i++ {
		for j := 0; j < r; j++ {
			md[i*r+j] *= math.Sqrt(vals[i] * vals[j])
		}
	}

	vals2, w := mat.EigenSym(m)
	if len(vals2) == 0 || vals2[0] <= 0 {
		return mat.NewDense(0, d)
	}
	tol2 := vals2[0] * 1e-12
	kept := 0
	for kept < len(vals2) && vals2[kept] > tol2 {
		kept++
	}
	// Y rows: √μ_j · (W's column j)ᵀ·Q for the positive eigenpairs.
	y := mat.NewDense(kept, d)
	for j := 0; j < kept; j++ {
		scale := math.Sqrt(vals2[j])
		yr := y.Row(j)
		for i := 0; i < r; i++ {
			c := scale * w.Row(i)[j]
			if c == 0 {
				continue
			}
			qi := q.Row(i)
			for x := range yr {
				yr[x] += c * qi[x]
			}
		}
	}
	return y
}

// RowsStored reports the ℓ rows of the active sketch (when occupied)
// plus the rows of every frozen frame state and live snapshot — the
// framework's whole footprint in the paper's space measure.
func (s *DSFD) RowsStored() int {
	n := 0
	if s.cur.mass > 0 {
		n = s.fd.RowsStored()
	}
	n += s.cur.snapRows()
	for i := range s.frames {
		n += s.frames[i].final.Rows()
		n += s.frames[i].snapRows()
	}
	return n
}

// Frames reports the number of live frames including the active one
// (for tests and instrumentation).
func (s *DSFD) Frames() int {
	n := len(s.frames)
	if s.cur.mass > 0 {
		n++
	}
	return n
}

// Name implements WindowSketch.
func (s *DSFD) Name() string { return "DS-FD" }

// Dim returns the row dimension d.
func (s *DSFD) Dim() int { return s.d }

// Stats implements Introspector: the frame/snapshot hierarchy shape,
// the live error budget (θ and the active frame's spent Σλ), dump and
// snapshot counters, the effective norm bound, and the active sketch's
// shrink instrumentation.
func (s *DSFD) Stats() map[string]float64 {
	snaps, snapRows := len(s.cur.snaps), s.cur.snapRows()
	frozenRows := 0
	for i := range s.frames {
		snaps += len(s.frames[i].snaps)
		snapRows += s.frames[i].snapRows()
		frozenRows += s.frames[i].final.Rows()
	}
	m := map[string]float64{
		"ell":             float64(s.cfg.Ell),
		"window_n":        float64(s.cfg.N),
		"theta":           s.theta(),
		"r_effective":     s.rEff(),
		"r_adaptive":      b2f(s.cfg.R == 0),
		"frames":          float64(s.Frames()),
		"frames_frozen":   float64(len(s.frames)),
		"frozen_rows":     float64(frozenRows),
		"snapshots_live":  float64(snaps),
		"snapshot_rows":   float64(snapRows),
		"frame_mass":      s.cur.mass,
		"frame_delta":     s.cur.delta,
		"since_snap":      s.sinceSnap,
		"dumps":           float64(s.dumps),
		"snapshots_taken": float64(s.snapsTaken),
		"fd_shrinks":      float64(s.shrinksFrozen + s.fd.Shrinks()),
		"fd_amortization": s.fd.Amortization(),
		"fd_buffer":       float64(s.fd.BufferFactor()),
		"fd_alpha":        s.fd.Alpha(),
	}
	return m
}

var (
	_ TenantSketch  = (*DSFD)(nil)
	_ Introspector  = (*DSFD)(nil)
	_ SparseUpdater = (*DSFD)(nil)
)
