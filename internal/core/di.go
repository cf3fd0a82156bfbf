package core

import (
	"fmt"
	"math"

	"swsketch/internal/mat"
	"swsketch/internal/stream"
	"swsketch/internal/trace"
)

// diBlock is a completed block of the Dyadic Interval framework. A
// level-i block covers exactly 2^{i-1} consecutive level-1 blocks;
// startIdx/endIdx are the (1-based) level-1 block indices it spans and
// startT/endT the timestamps of its first and last row.
type diBlock struct {
	startIdx, endIdx int
	startT, endT     float64
	sk               stream.Sketch
}

// DIConfig parameterises the Dyadic Interval framework.
type DIConfig struct {
	// N is the sequence window size (rows).
	N int
	// R bounds the squared norm of every row (rows must satisfy
	// 1 ≤ ‖a‖² ≤ R up to RSlack).
	R float64
	// L is the number of levels; the paper sets L = ⌈log₂(R/ε)⌉. The
	// level-1 block mass capacity is N·R/2^L.
	L int
	// Ell is the target row count of the query answer; the level-i
	// sketch gets ≈ Ell/2^{L-i+1} rows (level L gets Ell/2), matching
	// the paper's experimental setup.
	Ell int
	// MinEll floors the per-level sketch size (default 4).
	MinEll int
	// RSlack is the multiplicative tolerance on R before Update
	// panics (default 1+1e-9, absorbing float round-off on rows
	// normalised to exactly R).
	RSlack float64
}

// withDefaults resolves the zero-value defaults of MinEll and RSlack.
func (c DIConfig) withDefaults() DIConfig {
	if c.MinEll == 0 {
		c.MinEll = 4
	}
	if c.RSlack == 0 {
		c.RSlack = 1 + 1e-9
	}
	return c
}

// validate resolves the defaults and panics with check's error.
func (c DIConfig) validate() DIConfig {
	c = c.withDefaults()
	must(c.check())
	return c
}

// check states DI's limits on a config with its defaults resolved; the
// constructors panic with its error and the DI-AMM decoder returns it.
func (c DIConfig) check() error {
	switch {
	case c.N < 1:
		return fmt.Errorf("core: DI needs window size N ≥ 1, got %d", c.N)
	case !(c.R >= 1) || math.IsInf(c.R, 0):
		return fmt.Errorf("core: DI needs a finite max squared row norm R ≥ 1, got %v", c.R)
	case c.L < 1 || c.L > 26:
		return fmt.Errorf("core: DI needs levels L in [1, 26], got %d", c.L)
	case c.Ell < 2:
		return fmt.Errorf("core: DI needs ell ≥ 2, got %d", c.Ell)
	case c.MinEll < 1:
		return fmt.Errorf("core: DI needs MinEll ≥ 1, got %d", c.MinEll)
	case !(c.RSlack >= 1) || math.IsInf(c.RSlack, 0):
		return fmt.Errorf("core: DI needs a finite RSlack ≥ 1, got %v", c.RSlack)
	}
	return nil
}

// levelEll returns the sketch size for (1-based) level i.
func (c DIConfig) levelEll(i int) int {
	ell := c.Ell >> uint(c.L-i+1)
	if ell < c.MinEll {
		ell = c.MinEll
	}
	return ell
}

// fdLevelEll is levelEll, at least the 2 rows FD and COD need.
func (c DIConfig) fdLevelEll(i int) int { return max(c.levelEll(i), 2) }

// DI is the Dyadic Interval framework of Section 7: it converts an
// arbitrary streaming sketch into a sequence-window sketch. The stream
// is cut into level-1 blocks of mass ≈ N·R/2^L; level-i blocks are
// aligned unions of 2^{i-1} level-1 blocks, built by feeding every row
// into one active sketch per level and closing active blocks on the
// dyadic boundaries of a binary counter. A query covers the window
// with at most 2 completed blocks per level plus the level-1 active
// rows and concatenates their sketches (decomposability, Lemma 7.1).
//
// DI only supports sequence-based windows (the dyadic structure cannot
// shrink or grow) and must know the norm bound R a priori.
type DI struct {
	cfg     DIConfig
	d       int
	factory func(level int, d int) stream.Sketch
	name    string
	// fdOpts is the FastFD tuning baked into DI-FD's factory, recorded
	// so a snapshot rebuilds an identically tuned factory; zero
	// elsewhere.
	fdOpts stream.FDOpts

	cap1 float64 // level-1 block mass capacity

	// levels[i] holds completed blocks of level i+1, oldest first.
	levels [][]diBlock
	// actives[i] is the open sketch of level i+1; activeStartT[i]
	// records the timestamp of its first row.
	actives      []stream.Sketch
	activeStartT []float64
	activeRows   []int // rows fed into each active since it opened

	m        int     // completed level-1 blocks so far
	curSize  float64 // mass of the open level-1 block
	curStart float64 // timestamp of the open level-1 block's first row
	lastT    float64
	seen     bool
	// raw holds the open level-1 block's rows while they fit in the
	// level-1 sketch budget, so small open blocks are answered exactly;
	// once the block outgrows the budget (possible when row masses are
	// far below cap1) rawOverflow is set and queries fall back to the
	// level-1 active sketch, keeping space bounded.
	raw         []mat.SparseRow
	rawTimes    []float64
	rawOverflow bool
	rawCap      int

	// normMin/normMax track the smallest and largest nonzero squared
	// row norms seen, giving the observed norm ratio R̂ that Stats
	// reports next to the declared bound (Section 7's space profile
	// depends on R; operators want to see how tight the declaration
	// is).
	normMin, normMax float64

	tr *trace.Tracer
}

// SetTracer attaches a tracer: block closes, retires, and raw-buffer
// overflows emit events. The per-level active sketches (created at
// construction) pick up the tracer too, so FD-backed levels emit
// fd_shrink spans from here on.
func (s *DI) SetTracer(tr *trace.Tracer) {
	s.tr = tr
	for _, a := range s.actives {
		if t, ok := a.(trace.Traceable); ok {
			t.SetTracer(tr)
		}
	}
}

// mkSketch builds a per-level sketch via the factory and attaches the
// tracer when the sketch supports it.
func (s *DI) mkSketch(level int) stream.Sketch {
	sk := s.factory(level, s.d)
	if t, ok := sk.(trace.Traceable); ok {
		t.SetTracer(s.tr)
	}
	return sk
}

// NewDI builds a Dyadic Interval sketch from a per-level streaming
// sketch factory.
func NewDI(cfg DIConfig, d int, name string, factory func(level, d int) stream.Sketch) *DI {
	di := newDI(cfg, d, name, factory)
	di.openActives()
	return di
}

// openActives gives every level a fresh active sketch.
func (s *DI) openActives() {
	for i := range s.actives {
		s.actives[i] = s.factory(i+1, s.d)
	}
}

// newDI builds a DI whose per-level active sketches are still nil, for
// NewDI to open or a restore to fill from its snapshot.
func newDI(cfg DIConfig, d int, name string, factory func(level, d int) stream.Sketch) *DI {
	cfg = cfg.validate()
	if d < 1 {
		panic(fmt.Sprintf("core: DI needs d ≥ 1, got %d", d))
	}
	di := &DI{
		cfg:     cfg,
		d:       d,
		factory: factory,
		name:    name,
		cap1:    float64(cfg.N) * cfg.R / math.Pow(2, float64(cfg.L)),
		levels:  make([][]diBlock, cfg.L),
	}
	di.actives = make([]stream.Sketch, cfg.L)
	di.activeStartT = make([]float64, cfg.L)
	di.activeRows = make([]int, cfg.L)
	// Keep open-block rows raw while they fit within one full answer's
	// budget; beyond that the level-1 active sketch stands in.
	di.rawCap = cfg.Ell
	return di
}

// NewDIFD builds DI over FrequentDirections: the paper's DI-FD
// (Corollary 7.1), the most space-efficient choice when R is small.
func NewDIFD(cfg DIConfig, d int) *DI {
	return NewDIFDOpts(cfg, d, stream.FDOpts{})
}

// NewDIFDOpts builds DI-FD with FastFD ingest tuning applied to every
// per-level sketch (see stream.FDOpts). The zero FDOpts reproduces
// NewDIFD exactly. It panics with checkDIFD's error.
func NewDIFDOpts(cfg DIConfig, d int, o stream.FDOpts) *DI {
	s := newDIFD(cfg, d, o)
	s.openActives()
	return s
}

// newDIFD builds a DI-FD whose per-level actives are still nil, for
// NewDIFDOpts to open or a restore to fill from its snapshot.
func newDIFD(cfg DIConfig, d int, o stream.FDOpts) *DI {
	c := cfg.withDefaults()
	o = o.Normalize()
	must(checkDIFD(c, d, o))
	s := newDI(c, d, "DI-FD", func(level, dim int) stream.Sketch {
		return stream.NewFDOpts(c.fdLevelEll(level), dim, o)
	})
	s.fdOpts = o
	return s
}

// checkDIFD states DI-FD's limits: DI's and its largest (top-level)
// FD's.
func checkDIFD(c DIConfig, d int, o stream.FDOpts) error {
	if err := c.check(); err != nil {
		return err
	}
	return stream.CheckFD(c.fdLevelEll(c.L), d, o)
}

// NewDIRP builds DI over random projections: the appendix's DI-RP
// (Corollary A.2).
func NewDIRP(cfg DIConfig, d int, seed int64) *DI {
	c := cfg.validate()
	next := seed
	return NewDI(cfg, d, "DI-RP", func(level, dim int) stream.Sketch {
		next++
		return stream.NewRP(c.levelEll(level), dim, next)
	})
}

// NewDIHash builds DI over feature hashing: the appendix's DI-HASH
// (Corollary A.3).
func NewDIHash(cfg DIConfig, d int, seed uint64) *DI {
	c := cfg.validate()
	fam := stream.NewHashFamily(seed)
	return NewDI(cfg, d, "DI-HASH", func(level, dim int) stream.Sketch {
		return fam.NewSketch(c.levelEll(level), dim)
	})
}

// Update implements Algorithm 7.1: expire, feed the row into every
// level's active sketch, and close active blocks on dyadic boundaries
// when the level-1 block fills up.
func (s *DI) Update(row []float64, t float64) {
	checkWidth("DI", row, s.d)
	must(checkRow("DI", mat.SqNorm(row), t, s.lastT, s.seen, s.cfg.R, s.cfg.RSlack))
	s.ingest(mat.SparseFromDense(row), t)
}

// UpdateBatch ingests rows in order with one up-front validation pass;
// the dyadic counter advances exactly as under row-at-a-time Update.
func (s *DI) UpdateBatch(rows [][]float64, times []float64) {
	must(s.CheckBatch(rows, times))
	for i, r := range rows {
		s.ingest(mat.SparseFromDense(r), times[i])
	}
}

// CheckBatch implements TenantSketch; rows are held to the declared R.
func (s *DI) CheckBatch(rows [][]float64, times []float64) error {
	return checkBatch("DI", rows, times, s.d, s.lastT, s.seen, s.cfg.R, s.cfg.RSlack)
}

// Clock implements TenantSketch.
func (s *DI) Clock() (float64, bool) { return s.lastT, s.seen }

// UpdateSparse ingests a sparse row, equivalent to Update on its dense
// form; the open block stores it sparsely and the per-level active
// sketches use their O(nnz) paths. The row's slices are copied.
func (s *DI) UpdateSparse(row mat.SparseRow, t float64) {
	checkSparseWidth("DI", row, s.d)
	must(checkRow("DI", row.SqNorm(), t, s.lastT, s.seen, s.cfg.R, s.cfg.RSlack))
	idx := make([]int, len(row.Idx))
	val := make([]float64, len(row.Val))
	copy(idx, row.Idx)
	copy(val, row.Val)
	s.ingest(mat.SparseRow{Idx: idx, Val: val}, t)
}

// ingest owns r (already copied).
func (s *DI) ingest(r mat.SparseRow, t float64) {
	s.lastT, s.seen = t, true
	w := r.SqNorm()
	if w == 0 {
		return // zero rows carry no mass; they only advance the clock
	}
	if s.normMin == 0 || w < s.normMin {
		s.normMin = w
	}
	if w > s.normMax {
		s.normMax = w
	}
	s.expire(t - float64(s.cfg.N))
	if len(s.raw) == 0 {
		s.curStart = t
	}

	if !s.rawOverflow {
		if len(s.raw) < s.rawCap {
			s.raw = append(s.raw, r)
			s.rawTimes = append(s.rawTimes, t)
		} else {
			s.tr.Emit(s.name, trace.KindDIRawOverflow, t, float64(len(s.raw)), 0)
			s.raw, s.rawTimes, s.rawOverflow = nil, nil, true
		}
	}
	for i := range s.actives {
		if s.activeRows[i] == 0 {
			s.activeStartT[i] = t
		}
		feedOne(s.actives[i], r, s.d)
		s.activeRows[i]++
	}
	s.curSize += w

	if s.curSize > s.cap1 {
		s.closeBlocks(t)
	}
}

// feedOne streams one sparse row into a sketch via its sparse path
// when available.
func feedOne(sk stream.Sketch, r mat.SparseRow, d int) {
	if su, ok := sk.(stream.SparseUpdatable); ok {
		su.UpdateSparse(r)
		return
	}
	sk.Update(r.Dense(d))
}

// closeBlocks runs the binary counter: the level-1 block just
// completed is block m+1; level i closes whenever (m+1) is a multiple
// of 2^{i-1}.
func (s *DI) closeBlocks(endT float64) {
	s.m++
	for i := 0; i < s.cfg.L; i++ {
		span := 1 << uint(i) // 2^{(i+1)-1} level-1 blocks per level-(i+1) block
		if s.m%span != 0 {
			continue
		}
		blk := diBlock{
			startIdx: s.m - span + 1,
			endIdx:   s.m,
			startT:   s.activeStartT[i],
			endT:     endT,
			sk:       s.actives[i],
		}
		s.levels[i] = append(s.levels[i], blk)
		s.tr.Emit(s.name, trace.KindDIClose, endT, float64(i+1), float64(s.m))
		s.actives[i] = s.mkSketch(i + 1)
		s.activeRows[i] = 0
	}
	// Open a fresh level-1 block.
	s.curSize = 0
	s.raw, s.rawTimes, s.rawOverflow = nil, nil, false
}

// expire removes completed blocks that lie entirely outside (cutoff, t].
func (s *DI) expire(cutoff float64) {
	dropped := 0
	for i := range s.levels {
		lv := s.levels[i]
		drop := 0
		for drop < len(lv) && lv[drop].endT <= cutoff {
			drop++
		}
		if drop > 0 {
			s.levels[i] = lv[drop:]
			dropped += drop
		}
	}
	if dropped > 0 && s.tr.Enabled() {
		oldest := s.m + 1
		if lv1 := s.levels[0]; len(lv1) > 0 {
			oldest = lv1[0].startIdx
		}
		s.tr.Emit(s.name, trace.KindDIRetire, cutoff, float64(dropped), float64(oldest))
	}
}

// Query implements Algorithm 7.2: cover the window's completed
// level-1 block range with the largest aligned dyadic blocks, then add
// the open level-1 rows; concatenate all selected sketches.
func (s *DI) Query(t float64) *mat.Dense {
	cutoff := t - float64(s.cfg.N)
	s.expire(cutoff)

	// Smallest completed level-1 block index fully inside the window.
	lo := s.m + 1
	for _, b := range s.levels[0] {
		if b.startT > cutoff {
			lo = b.startIdx
			break
		}
	}
	// The open level-1 block: exact raw rows (filtered by the cutoff)
	// while they fit the level-1 budget, otherwise the level-1 active
	// sketch — skipped entirely once the whole open block has expired.
	if s.rawOverflow {
		var open stream.Sketch
		if s.activeRows[0] > 0 && s.lastT > cutoff {
			open = s.actives[0]
		}
		return s.cover(lo, s.m, open, nil)
	}
	live := 0
	for live < len(s.raw) && s.rawTimes[live] <= cutoff {
		live++
	}
	return s.cover(lo, s.m, nil, s.raw[live:])
}

// cover is the answer both queries build: the completed level-1 blocks
// [lo, hi] tiled by the largest aligned dyadic blocks, then the open
// level-1 block's share — its active sketch when open is non-nil, and
// the raw rows — stacked in one allocation.
func (s *DI) cover(lo, hi int, open stream.Sketch, raw []mat.SparseRow) *mat.Dense {
	var parts []*mat.Dense
	for pos := lo; pos <= hi; {
		// Largest aligned span starting at pos that fits within hi.
		span := 1
		for span*2 <= hi-pos+1 && (pos-1)%(span*2) == 0 {
			span *= 2
		}
		blk := s.findBlock(pos, pos+span-1)
		for blk == nil && span > 1 {
			// The aligned block may have been expired at a high level
			// while its halves survive, or never formed; fall back.
			span /= 2
			blk = s.findBlock(pos, pos+span-1)
		}
		if blk == nil {
			// No completed block covers pos (expired): skip it. Its
			// rows are the expiring-block error the analysis budgets.
			pos++
			continue
		}
		parts = append(parts, blk.sk.Matrix())
		pos += span
	}
	if open != nil {
		parts = append(parts, open.Matrix())
	}
	n := len(raw)
	for _, p := range parts {
		n += p.Rows()
	}
	out := mat.NewDense(n, s.d)
	off := 0
	for _, p := range parts {
		off += copy(out.Data()[off:], p.Data())
	}
	for i, r := range raw {
		r.ScatterTo(out.Row(n - len(raw) + i))
	}
	return out
}

// findBlock returns the completed block spanning exactly level-1
// blocks [lo, hi], or nil. A level is one gapless, aligned run in order
// (closeBlocks appends, expire drops a prefix, the decoder checks), so
// the block's index follows from the level's first startIdx.
func (s *DI) findBlock(lo, hi int) *diBlock {
	span := hi - lo + 1
	level := 0
	for 1<<uint(level) < span {
		level++
	}
	if 1<<uint(level) != span || level >= s.cfg.L || len(s.levels[level]) == 0 {
		return nil
	}
	lv := s.levels[level]
	j := (lo - lv[0].startIdx) / span
	if lo < lv[0].startIdx || j >= len(lv) || lv[j].startIdx != lo {
		return nil
	}
	return &lv[j]
}

// RowsStored reports rows across all completed block sketches, the
// active sketches, and the open raw rows.
func (s *DI) RowsStored() int {
	n := len(s.raw)
	if s.rawOverflow {
		n = 0 // the level-1 active sketch (counted below) answers instead
	}
	for i := range s.levels {
		for j := range s.levels[i] {
			n += s.levels[i][j].sk.RowsStored()
		}
	}
	for i := range s.actives {
		if s.activeRows[i] > 0 {
			n += s.actives[i].RowsStored()
		}
	}
	return n
}

// CompletedBlocks reports the number of completed level-1 blocks (for
// tests).
func (s *DI) CompletedBlocks() int { return s.m }

// Dim returns the row dimension d.
func (s *DI) Dim() int { return s.d }

// Name implements WindowSketch.
func (s *DI) Name() string { return s.name }

// Stats implements Introspector: dyadic-tree occupancy (completed
// blocks per level, closed level-1 blocks), open-block fill, the
// declared norm bound R next to the observed norm-ratio estimate
// R̂ = max‖a‖²/min‖a‖², and — when the per-level sketches expose a
// shrink count (FD does) — the total shrinks across live sketches.
func (s *DI) Stats() map[string]float64 {
	m := map[string]float64{
		"levels":           float64(s.cfg.L),
		"l1_blocks_closed": float64(s.m),
		"open_rows":        float64(len(s.raw)),
		"open_mass":        s.curSize,
		"raw_overflow":     b2f(s.rawOverflow),
		"declared_r":       s.cfg.R,
	}
	if s.normMin > 0 {
		m["norm_sq_min"] = s.normMin
		m["norm_sq_max"] = s.normMax
		m["norm_ratio"] = s.normMax / s.normMin
	}
	blocks, shrinks := 0, uint64(0)
	haveShrinks := false
	amort := 0.0
	addShrinks := func(sk stream.Sketch) {
		if sc, ok := sk.(interface{ Shrinks() uint64 }); ok {
			shrinks += sc.Shrinks()
			haveShrinks = true
		}
		if am, ok := sk.(interface{ Amortization() float64 }); ok {
			if a := am.Amortization(); a > amort {
				amort = a
			}
		}
	}
	for i := range s.levels {
		m[fmt.Sprintf("level%d_blocks", i+1)] = float64(len(s.levels[i]))
		blocks += len(s.levels[i])
		for j := range s.levels[i] {
			addShrinks(s.levels[i][j].sk)
		}
	}
	m["completed_blocks"] = float64(blocks)
	for i := range s.actives {
		if s.activeRows[i] > 0 {
			addShrinks(s.actives[i])
		}
	}
	if haveShrinks {
		m["fd_shrinks"] = float64(shrinks)
		m["fd_amortization"] = amort
	}
	return m
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

var (
	_ TenantSketch = (*DI)(nil)
	_ Introspector = (*DI)(nil)
)

// NewDIISVD builds DI over the truncated incremental-SVD heuristic —
// a demonstration that the framework hosts *arbitrary* streaming
// sketches, guarantees or not (Section 7's claim). The resulting
// window sketch inherits iSVD's lack of worst-case bounds.
func NewDIISVD(cfg DIConfig, d int) *DI {
	c := cfg.validate()
	return NewDI(cfg, d, "DI-ISVD", func(level, dim int) stream.Sketch {
		return stream.NewISVD(max(c.levelEll(level)/2, 2), dim)
	})
}

// QueryRange returns an approximation for the rows with timestamps in
// (from, to], where the interval must lie inside the current window
// (to ≤ last update time, from ≥ to−N). This is a capability unique to
// the dyadic structure among the paper's sketches: the same completed
// blocks that answer the full window also tile any sub-range, with the
// resolution of a level-1 block at the edges. LM cannot answer this
// (its blocks telescope toward the past); the samplers cannot either
// (their candidate sets are tuned to suffixes).
func (s *DI) QueryRange(from, to float64) *mat.Dense {
	if from >= to {
		panic(fmt.Sprintf("core: DI range (%v, %v] is empty", from, to))
	}
	if s.seen && to > s.lastT {
		to = s.lastT
	}
	if lo := s.lastT - float64(s.cfg.N); s.seen && from < lo {
		panic(fmt.Sprintf("core: DI range start %v outside the window (≥ %v)", from, lo))
	}
	s.expire(s.lastT - float64(s.cfg.N))

	// Completed level-1 blocks fully inside (from, to].
	lo, hi := s.m+1, 0
	for _, b := range s.levels[0] {
		if b.startT > from && b.endT <= to {
			lo, hi = min(lo, b.startIdx), max(hi, b.endIdx)
		}
	}
	// The open block's share: its raw rows inside the range, or — once
	// they overflowed — its sketch when the whole open block falls
	// inside the range.
	if s.rawOverflow {
		var open stream.Sketch
		if s.activeRows[0] > 0 && to >= s.lastT && from < s.curStart {
			open = s.actives[0]
		}
		return s.cover(lo, hi, open, nil)
	}
	var rows []mat.SparseRow
	for i, r := range s.raw {
		if s.rawTimes[i] > from && s.rawTimes[i] <= to {
			rows = append(rows, r)
		}
	}
	return s.cover(lo, hi, nil, rows)
}
