package core

import (
	"encoding"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"swsketch/internal/mat"
	"swsketch/internal/stream"
	"swsketch/internal/window"
)

func TestNewLMValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewLMFD(window.Seq(10), 0, 8, 4) },
		func() { NewLM(window.Seq(10), 3, 0, 4, "x", nil) },
		func() { NewLM(window.Seq(10), 3, 8, 1, "x", nil) },
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

func TestLMRowLengthPanics(t *testing.T) {
	l := NewLMFD(window.Seq(10), 3, 8, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	l.Update([]float64{1}, 0)
}

func TestLMFDExactForTinyStream(t *testing.T) {
	// Fewer rows than one block: everything stays raw and exact.
	l := NewLMFD(window.Seq(100), 3, 16, 4)
	ex := window.NewExact(window.Seq(100), 3)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10; i++ {
		row := randRow(rng, 3)
		l.Update(row, float64(i))
		ex.Update(row, float64(i))
	}
	if e := ex.CovaErr(l.Query(9)); e > 1e-9 {
		t.Fatalf("tiny stream error = %v, want ~0", e)
	}
}

func TestLMLevelInvariant(t *testing.T) {
	// No level may exceed b blocks after an update.
	rng := rand.New(rand.NewSource(2))
	b := 4
	l := NewLMFD(window.Seq(2000), 4, 8, b)
	for i := 0; i < 3000; i++ {
		l.Update(randRow(rng, 4), float64(i))
		for lv := 1; lv <= l.Levels(); lv++ {
			if n := l.blocksAt(lv); n > b {
				t.Fatalf("at t=%d: level %d has %d blocks > b=%d", i, lv, n, b)
			}
		}
	}
	if l.Levels() < 2 {
		t.Fatalf("expected multiple levels, got %d", l.Levels())
	}
}

func TestLMFDErrorReasonable(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	spec := window.Seq(500)
	l := NewLMFD(spec, 8, 32, 8)
	ex := window.NewExact(spec, 8)
	var errSum float64
	cnt := 0
	for i := 0; i < 3000; i++ {
		row := randRow(rng, 8)
		l.Update(row, float64(i))
		ex.Update(row, float64(i))
		if i > 500 && i%250 == 0 {
			errSum += ex.CovaErr(l.Query(float64(i)))
			cnt++
		}
	}
	if avg := errSum / float64(cnt); avg > 0.25 {
		t.Fatalf("LM-FD avg error = %v", avg)
	}
}

func TestLMFDErrorDecreasesWithSize(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	d, n, win := 8, 2500, 400
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = randRow(rng, d)
	}
	errAt := func(ell, b int) float64 {
		l := NewLMFD(window.Seq(win), d, ell, b)
		ex := window.NewExact(window.Seq(win), d)
		var e float64
		cnt := 0
		for i := 0; i < n; i++ {
			l.Update(rows[i], float64(i))
			ex.Update(rows[i], float64(i))
			if i >= win && i%200 == 0 {
				e += ex.CovaErr(l.Query(float64(i)))
				cnt++
			}
		}
		return e / float64(cnt)
	}
	coarse, fine := errAt(8, 3), errAt(48, 12)
	if fine >= coarse {
		t.Fatalf("LM-FD error did not decrease with size: %v → %v", coarse, fine)
	}
}

func TestLMApproximatesWindowNotStream(t *testing.T) {
	l := NewLMFD(window.Seq(100), 2, 8, 4)
	for i := 0; i < 600; i++ {
		l.Update([]float64{1, 0}, float64(i))
	}
	for i := 600; i < 1200; i++ {
		l.Update([]float64{0, 1}, float64(i))
	}
	b := l.Query(1199)
	var col0, col1 float64
	for i := 0; i < b.Rows(); i++ {
		col0 += b.At(i, 0) * b.At(i, 0)
		col1 += b.At(i, 1) * b.At(i, 1)
	}
	// The expiring block may retain a little stale mass (that is the
	// ε/2 budget); it must be a small fraction of the window mass.
	if col0 > 20 {
		t.Fatalf("stale mass %v too large (window mass 100)", col0)
	}
	if math.Abs(col1-100) > 35 {
		t.Fatalf("window mass ≈ %v, want ≈ 100", col1)
	}
}

func TestLMTimeWindowIrregularArrivals(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	spec := window.TimeSpan(20.0)
	l := NewLMFD(spec, 6, 24, 8)
	ex := window.NewExact(spec, 6)
	tt := 0.0
	var errSum float64
	cnt := 0
	for i := 0; i < 3000; i++ {
		tt += rng.ExpFloat64() * 0.05
		row := randRow(rng, 6)
		l.Update(row, tt)
		ex.Update(row, tt)
		if i > 500 && i%250 == 0 {
			errSum += ex.CovaErr(l.Query(tt))
			cnt++
		}
	}
	if avg := errSum / float64(cnt); avg > 0.3 {
		t.Fatalf("time-window LM-FD avg error = %v", avg)
	}
}

func TestLMOversizedRowsSingleton(t *testing.T) {
	// Rows with ‖a‖² ≥ ℓ must be kept exactly until high levels; feed a
	// mix and verify error stays sane and no panic occurs.
	rng := rand.New(rand.NewSource(6))
	spec := window.Seq(300)
	ell := 16
	l := NewLMFD(spec, 4, ell, 6)
	ex := window.NewExact(spec, 4)
	for i := 0; i < 1500; i++ {
		row := randRow(rng, 4)
		if i%50 == 0 { // oversized spike: ‖a‖² ≈ 25·ℓ
			f := math.Sqrt(25 * float64(ell) / sqNorm(row))
			for j := range row {
				row[j] *= f
			}
		}
		l.Update(row, float64(i))
		ex.Update(row, float64(i))
	}
	if e := ex.CovaErr(l.Query(1499)); e > 0.3 {
		t.Fatalf("error with oversized rows = %v", e)
	}
}

func sqNorm(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return s
}

func TestLMZeroRowIgnored(t *testing.T) {
	l := NewLMFD(window.Seq(10), 2, 4, 3)
	l.Update([]float64{0, 0}, 0)
	if l.RowsStored() != 0 {
		t.Fatal("zero row should be ignored")
	}
}

func TestLMRowsStoredBounded(t *testing.T) {
	// Space must stay polylogarithmic in the window, not linear.
	rng := rand.New(rand.NewSource(7))
	win := 4000
	l := NewLMFD(window.Seq(win), 4, 16, 6)
	var peak int
	for i := 0; i < 12000; i++ {
		l.Update(randRow(rng, 4), float64(i))
		if n := l.RowsStored(); n > peak {
			peak = n
		}
	}
	if peak > win/2 {
		t.Fatalf("LM-FD peak rows %d is not sublinear in window %d", peak, win)
	}
}

func TestLMHashErrorReasonable(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	spec := window.Seq(500)
	l := NewLMHash(spec, 6, 256, 8, 42)
	ex := window.NewExact(spec, 6)
	var errSum float64
	cnt := 0
	for i := 0; i < 2500; i++ {
		row := randRow(rng, 6)
		l.Update(row, float64(i))
		ex.Update(row, float64(i))
		if i > 500 && i%250 == 0 {
			errSum += ex.CovaErr(l.Query(float64(i)))
			cnt++
		}
	}
	if avg := errSum / float64(cnt); avg > 0.5 {
		t.Fatalf("LM-HASH avg error = %v", avg)
	}
	if l.Name() != "LM-HASH" {
		t.Fatal("Name wrong")
	}
}

// TestLMQueryDoesNotMutate checks that a query leaves no trace: a
// repeated query at the same time answers bit-identically, and a
// sketch that served queries answers exactly like a twin that never
// did once both take the same further updates. LM-HASH's query
// accumulator draws row identifiers from the counter its blocks share,
// so the twin check also pins that the counter is rewound.
func TestLMQueryDoesNotMutate(t *testing.T) {
	for _, c := range []struct {
		name string
		mk   func() *LM
	}{
		{"LM-FD", func() *LM { return NewLMFD(window.Seq(200), 4, 16, 4) }},
		{"LM-HASH", func() *LM { return NewLMHash(window.Seq(200), 4, 16, 4, 5) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(9))
			l, twin := c.mk(), c.mk()
			feed := func(from, to int) {
				for i := from; i < to; i++ {
					row := randRow(rng, 4)
					l.Update(row, float64(i))
					twin.Update(row, float64(i))
				}
			}
			feed(0, 800)
			if !sameMatrixBits(l.Query(799), l.Query(799)) {
				t.Fatal("repeated queries disagree")
			}
			for i := 800; i < 1000; i += 50 {
				feed(i, i+50)
				l.Query(float64(i + 49))
			}
			if !sameMatrixBits(l.Query(999), twin.Query(999)) {
				t.Fatal("a sketch that served queries answers differently from its twin")
			}
		})
	}
}

// TestLMQueryMemoInvalidation pins where the query memo is cleared. It
// interleaves every ingest path (Update, UpdateBatch, UpdateSparse,
// zero rows) with queries at the last ingested time, again at that
// time, and at later times with no ingest between, which expire blocks
// and active rows on their own. Every answer must equal, bit for bit,
// that of a copy restored from a snapshot taken just before the query:
// a restored LM has no memo, so it always merges.
func TestLMQueryMemoInvalidation(t *testing.T) {
	type snapshotter interface {
		WindowSketch
		SparseUpdater
		encoding.BinaryMarshaler
		encoding.BinaryUnmarshaler
	}
	for _, fr := range []struct {
		name string
		mk   func(window.Spec, stream.FDOpts) snapshotter
	}{
		{"lm-fd", func(s window.Spec, o stream.FDOpts) snapshotter { return NewLMFDOpts(s, 4, 6, 2, o) }},
		{"lm-amm", func(s window.Spec, o stream.FDOpts) snapshotter { return NewLMAMMOpts(s, 2, 2, 6, 2, o) }},
	} {
		for _, spec := range []window.Spec{window.Seq(40), window.TimeSpan(12)} {
			for _, tuning := range []struct {
				name string
				fdo  stream.FDOpts
			}{{"classic", stream.FDOpts{}}, {"fast", stream.FDOpts{Buffer: 2, Alpha: 0.5}}} {
				t.Run(fmt.Sprintf("%s/%v/%s", fr.name, spec, tuning.name), func(t *testing.T) {
					sk := fr.mk(spec, tuning.fdo)
					rng := rand.New(rand.NewSource(17))
					now := 0.0
					query := func(at float64) {
						snap, err := sk.MarshalBinary()
						if err != nil {
							t.Fatal(err)
						}
						fresh := fr.mk(spec, tuning.fdo)
						if err := fresh.UnmarshalBinary(snap); err != nil {
							t.Fatal(err)
						}
						if !sameMatrixBits(sk.Query(at), fresh.Query(at)) {
							t.Fatalf("query at t=%v differs from a restored copy's", at)
						}
					}
					// queries asks at the last ingested time twice, then
					// later with no ingest between; ingest resumes there.
					queries := func(later float64) {
						query(now)
						query(now)
						now += later
						query(now)
						query(now)
					}
					scaled := func(scale float64) []float64 {
						r := randRow(rng, 4)
						for j := range r {
							r[j] *= scale
						}
						return r
					}
					// Mass ≈ 4 rows close through the active block,
					// mass ≈ 36 rows (≥ ℓ) become singleton blocks.
					for round := 0; round < 40; round++ {
						scale := []float64{1, 3}[round%2]
						now++
						switch round % 4 {
						case 0:
							sk.Update(scaled(scale), now)
						case 1: // a burst: three rows at one time
							sk.UpdateBatch([][]float64{scaled(scale), scaled(1), scaled(3)}, []float64{now, now, now})
						case 2:
							sk.UpdateSparse(mat.SparseFromDense(scaled(scale)), now)
						case 3:
							sk.Update(make([]float64, 4), now)
						}
						queries(float64(round%3) * spec.Size / 8)
					}
					// Expire the whole window without an ingest, then let
					// dust rows (which never close the active block) age
					// out of an active block with no level beneath it.
					now += spec.Size
					query(now)
					for i := 0; i < 6; i++ {
						now++
						sk.Update(scaled(0.05), now)
						queries(0)
					}
					queries(spec.Size - 3)
					queries(2)
				})
			}
		}
	}
}

func TestLMName(t *testing.T) {
	if NewLMFD(window.Seq(5), 1, 4, 3).Name() != "LM-FD" {
		t.Fatal("Name wrong")
	}
}

func TestLMMassConservation(t *testing.T) {
	// The sum of live block sizes plus the active block must track the
	// window's true mass: within it from below (whole blocks expire
	// only once fully out) and bounded above by window mass plus one
	// straddling block per level.
	rng := rand.New(rand.NewSource(10))
	spec := window.Seq(400)
	ell, b := 16, 4
	l := NewLMFD(spec, 4, ell, b)
	ex := window.NewExact(spec, 4)
	for i := 0; i < 3000; i++ {
		row := randRow(rng, 4)
		l.Update(row, float64(i))
		ex.Update(row, float64(i))
		if i > 400 && i%100 == 0 {
			var tracked float64
			for lv := range l.levels {
				for j := range l.levels[lv] {
					tracked += l.levels[lv][j].size
				}
			}
			tracked += l.active.size
			win := ex.FroSq()
			// One straddling block per level can extend past the window;
			// each is bounded by its level capacity.
			var slack float64
			for lv := range l.levels {
				slack += l.ell * float64(uint64(1)<<uint(lv+1))
			}
			if tracked < win-1e-6 {
				t.Fatalf("at %d: tracked mass %v below window mass %v", i, tracked, win)
			}
			if tracked > win+slack+1e-6 {
				t.Fatalf("at %d: tracked mass %v exceeds window %v + slack %v", i, tracked, win, slack)
			}
		}
	}
}

func TestLMFDAdversarialAccumulatingDirection(t *testing.T) {
	// The stream that destroys truncation-only sketches (one direction
	// accumulating mass below the retained spectrum, see
	// stream.TestISVDNoGuaranteeVsFD) must NOT destroy LM-FD: every
	// block sketch is FD, whose shrinkage accounts for deleted mass, and
	// merges preserve the bound.
	d := 10
	spec := window.Seq(600)
	l := NewLMFD(spec, d, 16, 6)
	ex := window.NewExact(spec, d)
	tt := 0.0
	push := func(row []float64) {
		l.Update(row, tt)
		ex.Update(row, tt)
		tt++
	}
	for i := 0; i < 4; i++ {
		row := make([]float64, d)
		row[i] = 3.9 // strong but below the singleton threshold ℓ=16
		push(row)
	}
	for rep := 0; rep < 596; rep++ {
		row := make([]float64, d)
		row[4] = 1
		push(row)
	}
	// The window now holds mostly the accumulating direction; LM-FD
	// must track it.
	b := l.Query(tt - 1)
	if e := ex.CovaErr(b); e > 0.25 {
		t.Fatalf("LM-FD adversarial error = %v", e)
	}
	unit := make([]float64, d)
	unit[4] = 1
	got := mat.SqNorm(b.MulVec(unit))
	want := ex.Gram().At(4, 4)
	if got < want/2 {
		t.Fatalf("accumulated direction lost: sketch %v vs window %v", got, want)
	}
}

// TestLMRecyclesOnlyFactoryFDs checks the block free list: LM-FD
// refills it from merges, expiry and query accumulators (never past
// 2b+4), while LM-RP and LM-HASH never recycle a block — an RP block's
// random stream is seeded at construction — and an FD of another shape
// is dropped, not reused.
func TestLMRecyclesOnlyFactoryFDs(t *testing.T) {
	feed := func(l *LM, rng *rand.Rand, from, to int) (maxFree int) {
		for i := from; i < to; i++ {
			row := randRow(rng, 4)
			for j := range row {
				row[j] *= 3 // mostly singleton blocks, so merges dominate
			}
			l.Update(row, float64(i))
			if i%50 == 0 {
				l.Query(float64(i))
			}
			maxFree = max(maxFree, len(l.free))
		}
		return maxFree
	}
	rng := rand.New(rand.NewSource(9))
	fd := NewLMFD(window.Seq(200), 4, 8, 3)
	if n := feed(fd, rng, 0, 1500); n == 0 || n > 2*3+4 {
		t.Errorf("LM-FD free list peaked at %d, want 1..%d", n, 2*3+4)
	}
	for _, l := range []*LM{NewLMRP(window.Seq(200), 4, 8, 3, 1), NewLMHash(window.Seq(200), 4, 8, 3, 1)} {
		if n := feed(l, rng, 0, 1500); n != 0 {
			t.Errorf("%s recycled %d block sketches", l.Name(), n)
		}
	}

	// Only the factory's exact shape qualifies: a block restored from a
	// snapshot may carry another ℓ, d or buffer discipline.
	l := NewLMFD(window.Seq(200), 4, 8, 3)
	for _, foreign := range []*stream.FD{
		stream.NewFD(6, 4),
		stream.NewFD(8, 5),
		stream.NewFDOpts(8, 4, stream.FDOpts{Buffer: 2}),
		stream.NewFDOpts(8, 4, stream.FDOpts{Alpha: 0.5}),
	} {
		l.recycle(foreign)
	}
	if len(l.free) != 0 {
		t.Fatalf("recycled %d FDs of a foreign shape", len(l.free))
	}
	l.recycle(stream.NewFD(8, 4))
	if len(l.free) != 1 {
		t.Fatal("did not recycle an FD of the factory's shape")
	}
}
