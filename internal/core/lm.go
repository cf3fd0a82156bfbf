package core

import (
	"fmt"
	"math"

	"swsketch/internal/mat"
	"swsketch/internal/stream"
	"swsketch/internal/trace"
	"swsketch/internal/window"
)

// lmBlock is one block of the Logarithmic Method. A block covers a
// contiguous span of rows; its "size" is the total squared norm it
// covers. Fresh blocks (the active block and large-norm singleton
// blocks) hold their rows raw; the first merge converts them into a
// streaming sketch — the fast path that gives LM-FD its O(d·log εNR)
// amortised update cost.
type lmBlock struct {
	sk           stream.Mergeable // nil while the block is raw
	raw          []mat.SparseRow  // raw rows when sk == nil (sparse storage)
	rawTimes     []float64        // arrival times of the raw rows
	start, end   float64
	size         float64
	singletonCap float64 // > 0 marks a single oversized row of that mass
}

// sketch materialises the block's mergeable sketch, converting raw
// rows on first use.
func (b *lmBlock) sketch(factory stream.MergeableFactory, d int) stream.Mergeable {
	if b.sk == nil {
		b.sk = factory(d)
		feedRows(b.sk, b.raw, d)
		b.raw, b.rawTimes = nil, nil
	}
	return b.sk
}

// feedRows streams sparse rows into a sketch, using its sparse ingest
// path when available.
func feedRows(sk stream.Sketch, rows []mat.SparseRow, d int) {
	if su, ok := sk.(stream.SparseUpdatable); ok {
		for _, r := range rows {
			su.UpdateSparse(r)
		}
		return
	}
	for _, r := range rows {
		sk.Update(r.Dense(d))
	}
}

// rows reports the block's space usage in rows.
func (b *lmBlock) rows() int {
	if b.sk != nil {
		return b.sk.RowsStored()
	}
	return len(b.raw)
}

// mergeFrom absorbs o into b, combining spans, sizes, and sketches.
func (b *lmBlock) mergeFrom(o *lmBlock, factory stream.MergeableFactory, d int) {
	b.sketch(factory, d).Merge(o.sketch(factory, d))
	if o.start < b.start {
		b.start = o.start
	}
	if o.end > b.end {
		b.end = o.end
	}
	b.size += o.size
	b.singletonCap = 0
}

// LM is the Logarithmic Method of Section 6: it maintains levels of
// exponentially growing blocks, each holding a mergeable streaming
// sketch of size ℓ, with b blocks per level. Level-i blocks have mass
// in [2^{i-1}ℓ, 2^i ℓ]; when a level exceeds b blocks its two oldest
// blocks merge into the next level. A query merges every live block
// into one sketch of size ℓ. LM works for both sequence- and
// time-based windows; its error guarantee is ε with b = Θ(1/ε) blocks
// per level and per-block sketches of error ε/8 (Theorem 6.1).
//
// Rows with squared norm ≥ ℓ ride as singleton blocks: they stay
// unmerged (and exact) until promoted to a level whose block capacity
// 2^i·ℓ covers their mass, after which they merge like regular blocks
// (the "Remark" of Section 6.2).
type LM struct {
	spec    window.Spec
	d       int
	ell     float64 // block mass threshold (= per-block sketch rows for FD)
	b       int     // blocks per level
	factory stream.MergeableFactory
	// fdOpts is the FastFD tuning baked into the factory — recorded so
	// snapshots can rebuild an identically-tuned factory on restore.
	// Meaningful for LM-FD only; zero elsewhere.
	fdOpts stream.FDOpts

	// levels[0] is level 1 (most recent); each level holds blocks
	// oldest-first. The active block is separate.
	levels [][]lmBlock
	active lmBlock
	name   string
	lastT  float64
	seen   bool

	// merges counts block merges performed by rebalance and snapshots
	// the MarshalBinary calls — structural churn counters surfaced by
	// Stats for operational monitoring.
	merges    uint64
	snapshots uint64

	// free holds block FDs no block references any more, reset for
	// reuse; mkSketch draws from it before calling the factory. See
	// recycle for which sketches qualify.
	free []*stream.FD

	// memo is the last Query answer. An answer depends only on the
	// block structure, so it stays valid until an ingested row or an
	// expiry changes that structure; until then Query returns a copy of
	// it instead of merging again. It is derived data: never persisted,
	// so a restored LM starts without one.
	memo *mat.Dense

	tr *trace.Tracer
}

// SetTracer attaches a tracer: structural transitions (active-block
// closes, merges, singleton promotions, expiry) emit events, and every
// block sketch, held now or created later, emits into it (FD blocks
// emit fd_shrink spans). A restore re-attaches it the same way.
func (l *LM) SetTracer(tr *trace.Tracer) {
	l.tr = tr
	for i := range l.levels {
		for j := range l.levels[i] {
			if t, ok := l.levels[i][j].sk.(trace.Traceable); ok {
				t.SetTracer(tr)
			}
		}
	}
}

// mkSketch builds a block sketch, reusing a recycled one when the free
// list has one, and attaches the tracer when the sketch supports it.
// All block-sketch creation goes through here (or through mergeFrom,
// which receives it bound).
func (l *LM) mkSketch(d int) stream.Mergeable {
	var sk stream.Mergeable
	if n := len(l.free); n > 0 {
		sk = l.free[n-1]
		l.free[n-1] = nil
		l.free = l.free[:n-1]
	} else {
		sk = l.factory(d)
	}
	if t, ok := sk.(trace.Traceable); ok {
		t.SetTracer(l.tr)
	}
	return sk
}

// recycle puts a block sketch that nothing references any more on the
// free list, so steady-state ingest stops allocating a fresh sketch
// per merge. Only FDs of exactly the factory's shape (ℓ, d, b, α)
// qualify: a reset FD is then indistinguishable from a new one. A
// factory passed to NewLM may build FDs of another shape; an RP block's
// random stream is seeded at construction, so reusing one would change
// answers; HASH and COD blocks have no reset. The list holds at most
// 2b+4 sketches, more than one rebalance frees.
func (l *LM) recycle(sk stream.Mergeable) {
	fd, ok := sk.(*stream.FD)
	if !ok || len(l.free) >= 2*l.b+4 || fd.Ell() != int(l.ell) || fd.Dim() != l.d ||
		fd.BufferFactor() != l.fdOpts.Buffer || fd.Alpha() != l.fdOpts.Alpha {
		return
	}
	fd.Reset()
	l.free = append(l.free, fd)
}

// NewLM builds a Logarithmic Method sketch from any mergeable
// streaming-sketch factory. ell is both the active block's mass
// threshold and the nominal per-block sketch size; b is the number of
// blocks per level (≈ 8/ε in the analysis). It panics with checkLM's
// error.
func NewLM(spec window.Spec, d int, ell float64, b int, name string, factory stream.MergeableFactory) *LM {
	must(checkLM(spec, d, ell, b))
	return &LM{spec: spec, d: d, ell: ell, b: b, factory: factory, name: name}
}

// checkLM states LM's limits; b ≥ 2 because a full level merges its two
// oldest blocks (Section 6).
func checkLM(spec window.Spec, d int, ell float64, b int) error {
	switch {
	case d < 1:
		return fmt.Errorf("core: LM needs dimension d ≥ 1, got %d", d)
	case !(ell >= 1) || math.IsInf(ell, 0):
		return fmt.Errorf("core: LM needs a finite ell ≥ 1, got %v", ell)
	case b < 2:
		return fmt.Errorf("core: LM needs b ≥ 2 blocks per level, got %d", b)
	}
	return spec.Check()
}

// checkLMFD states LM-FD's limits: LM's, an integral ℓ, and its block
// FDs', checked when the LM is built rather than on its first merge.
func checkLMFD(spec window.Spec, d int, ell float64, b int, o stream.FDOpts) error {
	if err := checkLM(spec, d, ell, b); err != nil {
		return err
	}
	if ell != math.Trunc(ell) || ell > math.MaxInt32 {
		return fmt.Errorf("core: LM-FD needs an integral ell, got %v", ell)
	}
	return stream.CheckFD(int(ell), d, o)
}

// NewLMFD builds LM over FrequentDirections blocks of ℓ rows: the
// paper's LM-FD (Corollary 6.1), its recommended general-purpose
// sliding-window sketch.
func NewLMFD(spec window.Spec, d, ell, b int) *LM {
	return NewLMFDOpts(spec, d, ell, b, stream.FDOpts{})
}

// NewLMFDOpts builds LM-FD with FastFD ingest tuning applied to every
// block sketch: o.Buffer widens each block's working buffer for
// amortized shrinks and o.Alpha tunes the shrink cadence. The zero
// FDOpts reproduces NewLMFD exactly (including snapshot bytes); the
// covariance guarantee holds for any valid (b, α). It panics with
// checkLMFD's error.
func NewLMFDOpts(spec window.Spec, d, ell, b int, o stream.FDOpts) *LM {
	o = o.Normalize()
	must(checkLMFD(spec, d, float64(ell), b, o))
	l := NewLM(spec, d, float64(ell), b, "LM-FD", func(dim int) stream.Mergeable {
		return stream.NewFDOpts(ell, dim, o)
	})
	l.fdOpts = o
	return l
}

// NewLMHash builds LM over feature-hashing blocks of ℓ buckets: the
// appendix's LM-HASH (Corollary A.1). All blocks share one hash
// family, which is what makes their merges exact additions.
func NewLMHash(spec window.Spec, d, ell, b int, seed uint64) *LM {
	fam := stream.NewHashFamily(seed)
	return NewLM(spec, d, float64(ell), b, "LM-HASH", func(dim int) stream.Mergeable {
		return fam.NewSketch(ell, dim)
	})
}

// Update implements Algorithm 6.1.
func (l *LM) Update(row []float64, t float64) {
	checkWidth("LM", row, l.d)
	must(checkRow("LM", mat.SqNorm(row), t, l.lastT, l.seen, 0, 0))
	l.ingest(mat.SparseFromDense(row), t)
}

// UpdateBatch ingests rows in order with one up-front validation pass.
// Expiry and level rebalancing run per row exactly as under Update, so
// the resulting block structure (and hence every query answer) is
// identical to row-at-a-time ingestion.
func (l *LM) UpdateBatch(rows [][]float64, times []float64) {
	must(l.CheckBatch(rows, times))
	for i, r := range rows {
		l.ingest(mat.SparseFromDense(r), times[i])
	}
}

// CheckBatch implements TenantSketch.
func (l *LM) CheckBatch(rows [][]float64, times []float64) error {
	return checkBatch("LM", rows, times, l.d, l.lastT, l.seen, 0, 0)
}

// Clock implements TenantSketch.
func (l *LM) Clock() (float64, bool) { return l.lastT, l.seen }

// UpdateSparse ingests a sparse row, equivalent to Update on its dense
// form but storing the raw-block copy sparsely — the memory and
// sketch-feed win for high-dimensional sparse streams. The row's
// slices are copied.
func (l *LM) UpdateSparse(row mat.SparseRow, t float64) {
	checkSparseWidth("LM", row, l.d)
	must(checkRow("LM", row.SqNorm(), t, l.lastT, l.seen, 0, 0))
	idx := make([]int, len(row.Idx))
	val := make([]float64, len(row.Val))
	copy(idx, row.Idx)
	copy(val, row.Val)
	l.ingest(mat.SparseRow{Idx: idx, Val: val}, t)
}

// ingest owns r (already copied).
func (l *LM) ingest(r mat.SparseRow, t float64) {
	l.lastT, l.seen = t, true
	l.memo = nil
	l.expire(l.spec.Cutoff(t))

	w := r.SqNorm()
	if w == 0 {
		return
	}

	if w >= l.ell {
		// Oversized row: close the active block first (to preserve
		// arrival order across blocks), then push a singleton block.
		l.closeActive(t)
		l.pushLevel1(singletonBlock(r, t, w))
		l.rebalance()
		return
	}

	if len(l.active.raw) == 0 {
		l.active.start = t
	}
	l.active.raw = append(l.active.raw, r)
	l.active.rawTimes = append(l.active.rawTimes, t)
	l.active.end = t
	l.active.size += w
	if l.active.size > l.ell {
		l.closeActive(t)
		l.rebalance()
	}
}

// singletonBlock wraps an oversized row of mass w as its own block.
// Almost every row of a high-mass stream takes this path, so the row
// and its time share one allocation: the block's two slices view the
// arrays of one small struct.
func singletonBlock(r mat.SparseRow, t, w float64) lmBlock {
	one := &struct {
		row [1]mat.SparseRow
		t   [1]float64
	}{row: [1]mat.SparseRow{r}, t: [1]float64{t}}
	return lmBlock{raw: one.row[:], rawTimes: one.t[:], start: t, end: t, size: w, singletonCap: w}
}

// closeActive moves a non-empty active block to level 1.
func (l *LM) closeActive(t float64) {
	if len(l.active.raw) == 0 {
		return
	}
	blk := l.active
	l.active = lmBlock{start: t, end: t}
	l.tr.Emit(l.name, trace.KindLMClose, t, float64(len(blk.raw)), blk.size)
	l.pushLevel1(blk)
}

func (l *LM) pushLevel1(blk lmBlock) {
	if len(l.levels) == 0 {
		l.levels = append(l.levels, nil)
	}
	l.levels[0] = append(l.levels[0], blk)
}

// rebalance restores the ≤ b blocks-per-level invariant bottom-up:
// while a level overflows, its two oldest blocks merge into a block of
// the next level (levels[i] is paper level i+1, with block mass
// capacity 2^{i+1}·ℓ). A singleton block whose mass exceeds the next
// level's capacity is promoted alone — the Section 6.2 remark — until
// a level large enough to absorb it is reached.
func (l *LM) rebalance() {
	for i := 0; i < len(l.levels); i++ {
		for len(l.levels[i]) > l.b {
			capacity := l.ell * float64(uint64(1)<<uint(i+1))
			lv := l.levels[i]
			if lv[0].singletonCap > capacity || lv[1].singletonCap > capacity {
				// One of the two oldest cannot merge at this level:
				// promote the oldest alone, preserving arrival order.
				promoted := lv[0]
				l.popFront(i, 1)
				l.tr.Emit(l.name, trace.KindLMPromote, promoted.end, float64(i+1), promoted.size)
				l.appendLevel(i+1, promoted)
				continue
			}
			lv[0].mergeFrom(&lv[1], l.mkSketch, l.d)
			l.recycle(lv[1].sk)
			l.merges++
			merged := lv[0]
			l.popFront(i, 2)
			l.tr.Emit(l.name, trace.KindLMMerge, merged.end, float64(i+1), merged.size)
			l.appendLevel(i+1, merged)
		}
	}
}

func (l *LM) appendLevel(i int, blk lmBlock) {
	for len(l.levels) <= i {
		l.levels = append(l.levels, nil)
	}
	l.levels[i] = append(l.levels[i], blk)
}

// popFront drops the k oldest blocks of level i by copying the rest
// down, so the level keeps its storage for the next append (slicing
// the front off would strand that capacity). The vacated slots are
// cleared so they pin no sketch or raw rows.
func (l *LM) popFront(i, k int) {
	lv := l.levels[i]
	n := copy(lv, lv[k:])
	clear(lv[n:])
	l.levels[i] = lv[:n]
}

// expire removes blocks that lie entirely outside the window and
// trims expired rows out of the (raw, timestamped) active block.
// Levels hold blocks oldest-first, so expiry pops from each level's
// front; a sketched block that merely straddles the cutoff is kept
// whole — its stale rows are the algorithm's budgeted expiring-block
// error. Emptied trailing levels are dropped.
func (l *LM) expire(cutoff float64) {
	dropped := 0
	for i := range l.levels {
		lv := l.levels[i]
		drop := 0
		for drop < len(lv) && lv[drop].end <= cutoff {
			drop++
		}
		if drop > 0 {
			for j := range lv[:drop] {
				l.recycle(lv[j].sk)
			}
			l.popFront(i, drop)
			dropped += drop
		}
	}
	for n := len(l.levels); n > 0 && len(l.levels[n-1]) == 0; n = len(l.levels) {
		l.levels = l.levels[:n-1]
	}
	// The active block is raw, so it can be trimmed exactly.
	a := &l.active
	drop := 0
	for drop < len(a.raw) && a.rawTimes[drop] <= cutoff {
		a.size -= a.raw[drop].SqNorm()
		drop++
	}
	if drop > 0 {
		a.raw = a.raw[drop:]
		a.rawTimes = a.rawTimes[drop:]
		if len(a.raw) == 0 {
			a.size = 0
		} else {
			a.start = a.rawTimes[0]
			if a.size < 0 {
				a.size = 0
			}
		}
	}
	if dropped > 0 || drop > 0 {
		l.memo = nil
		l.tr.Emit(l.name, trace.KindLMExpire, cutoff, float64(dropped), float64(drop))
	}
}

// Query implements Algorithm 6.2: merge every live block sketch (plus
// the active block's raw rows) into a fresh sketch of size ℓ. While
// the block structure is unchanged since the last Query, it returns a
// copy of that answer instead.
func (l *LM) Query(t float64) *mat.Dense {
	l.expire(l.spec.Cutoff(t))
	if l.memo != nil {
		return l.memo.Clone()
	}
	acc := l.mkSketch(l.d)
	if h, ok := acc.(*stream.Hash); ok {
		// A hashing accumulator draws identifiers for the raw rows it
		// hashes from the counter its blocks share; rewinding the
		// counter when the query ends keeps the query from shifting
		// the identifiers of later rows.
		defer h.RewindIDs(h.NextID())
	}
	// Merge oldest (highest level) first so FD's shrinking treats the
	// window as a stream in arrival order.
	for i := len(l.levels) - 1; i >= 0; i-- {
		for j := range l.levels[i] {
			blk := &l.levels[i][j]
			if blk.sk == nil {
				// Raw block: feed rows directly; cheaper than building
				// a throwaway sketch.
				feedRows(acc, blk.raw, l.d)
				continue
			}
			acc.Merge(blk.sk)
		}
	}
	feedRows(acc, l.active.raw, l.d)
	l.memo = acc.Matrix()
	l.recycle(acc)
	return l.memo.Clone()
}

// RowsStored reports the total rows across all block sketches, raw
// blocks, and the active block.
func (l *LM) RowsStored() int {
	n := len(l.active.raw)
	for i := range l.levels {
		for j := range l.levels[i] {
			n += l.levels[i][j].rows()
		}
	}
	return n
}

// Levels reports the current number of levels (for tests and
// instrumentation).
func (l *LM) Levels() int { return len(l.levels) }

// blocksAt returns the block count of 1-based level i (0 if absent).
func (l *LM) blocksAt(i int) int {
	if i < 1 || i > len(l.levels) {
		return 0
	}
	return len(l.levels[i-1])
}

// Name implements WindowSketch.
func (l *LM) Name() string { return l.name }

// Dim returns the row dimension d.
func (l *LM) Dim() int { return l.d }

// Stats implements Introspector: level occupancy (total plus one
// level<i>_blocks entry per live level), raw-vs-sketched block split,
// active-block fill, merge and snapshot counters, and — when the block
// sketches expose a shrink count (FD does) — the total shrinks across
// live blocks.
func (l *LM) Stats() map[string]float64 {
	m := map[string]float64{
		"levels":           float64(len(l.levels)),
		"blocks_per_level": float64(l.b),
		"active_rows":      float64(len(l.active.raw)),
		"active_mass":      l.active.size,
		"merges":           float64(l.merges),
		"snapshots":        float64(l.snapshots),
	}
	blocks, rawBlocks, shrinks := 0, 0, uint64(0)
	haveShrinks := false
	amort := 0.0
	for i := range l.levels {
		m[fmt.Sprintf("level%d_blocks", i+1)] = float64(len(l.levels[i]))
		for j := range l.levels[i] {
			blk := &l.levels[i][j]
			blocks++
			if blk.sk == nil {
				rawBlocks++
				continue
			}
			if sc, ok := blk.sk.(interface{ Shrinks() uint64 }); ok {
				shrinks += sc.Shrinks()
				haveShrinks = true
			}
			if am, ok := blk.sk.(interface{ Amortization() float64 }); ok {
				if a := am.Amortization(); a > amort {
					amort = a
				}
			}
		}
	}
	m["blocks"] = float64(blocks)
	m["blocks_raw"] = float64(rawBlocks)
	m["blocks_sketched"] = float64(blocks - rawBlocks)
	if haveShrinks {
		m["fd_shrinks"] = float64(shrinks)
		m["fd_amortization"] = amort
	}
	return m
}

var (
	_ TenantSketch = (*LM)(nil)
	_ Introspector = (*LM)(nil)
)

// NewLMRP builds LM over random-projection blocks. The paper's
// appendix only pairs RP with the DI framework, but RP is mergeable
// too (the sum of projections built from independent random columns is
// a projection of the concatenated stream), so LM-RP is provided as a
// natural extension; it trades LM-FD's determinism for O(ℓd) updates
// with no SVD in the merge path.
func NewLMRP(spec window.Spec, d, ell, b int, seed int64) *LM {
	next := seed
	return NewLM(spec, d, float64(ell), b, "LM-RP", func(dim int) stream.Mergeable {
		next++
		return stream.NewRP(ell, dim, next)
	})
}
