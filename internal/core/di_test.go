package core

import (
	"math"
	"math/rand"
	"testing"

	"swsketch/internal/window"
)

// unitRow returns a random unit-norm row (R = 1 regime, like BIBD).
func unitRow(rng *rand.Rand, d int) []float64 {
	r := randRow(rng, d)
	n := math.Sqrt(sqNorm(r))
	for i := range r {
		r[i] /= n
	}
	return r
}

func TestDIConfigValidation(t *testing.T) {
	base := DIConfig{N: 100, R: 1, L: 4, Ell: 32}
	for _, mut := range []func(DIConfig) DIConfig{
		func(c DIConfig) DIConfig { c.N = 0; return c },
		func(c DIConfig) DIConfig { c.R = 0.5; return c },
		func(c DIConfig) DIConfig { c.L = 0; return c },
		func(c DIConfig) DIConfig { c.L = 31; return c },
		func(c DIConfig) DIConfig { c.Ell = 1; return c },
	} {
		cfg := mut(base)
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for %+v", cfg)
				}
			}()
			NewDIFD(cfg, 4)
		}()
	}
}

func TestDILevelEll(t *testing.T) {
	c := DIConfig{N: 100, R: 1, L: 4, Ell: 64, MinEll: 4}
	if got := c.levelEll(4); got != 32 {
		t.Fatalf("levelEll(L) = %d, want Ell/2 = 32", got)
	}
	if got := c.levelEll(3); got != 16 {
		t.Fatalf("levelEll(L-1) = %d, want 16", got)
	}
	if got := c.levelEll(1); got != 4 {
		t.Fatalf("levelEll(1) = %d, want floor 4", got)
	}
}

func TestDIRowNormExceedsRPanics(t *testing.T) {
	di := NewDIFD(DIConfig{N: 100, R: 1, L: 3, Ell: 16}, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for norm > R")
		}
	}()
	di.Update([]float64{2, 0}, 0) // ‖a‖² = 4 > R = 1
}

func TestDIRSlackAllowsTolerance(t *testing.T) {
	di := NewDIFD(DIConfig{N: 100, R: 1, L: 3, Ell: 16, RSlack: 4.5}, 2)
	di.Update([]float64{2, 0}, 0) // allowed under slack
}

func TestDIOutOfOrderPanics(t *testing.T) {
	di := NewDIFD(DIConfig{N: 100, R: 1, L: 3, Ell: 16}, 2)
	di.Update([]float64{1, 0}, 5)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	di.Update([]float64{1, 0}, 4)
}

func TestDIZeroRowIgnored(t *testing.T) {
	di := NewDIFD(DIConfig{N: 100, R: 1, L: 3, Ell: 16}, 2)
	di.Update([]float64{0, 0}, 0)
	if di.RowsStored() != 0 {
		t.Fatal("zero row should be ignored")
	}
}

func TestDIExactForTinyStream(t *testing.T) {
	// Before the first block closes, the raw open rows answer exactly.
	di := NewDIFD(DIConfig{N: 1000, R: 1, L: 4, Ell: 32}, 3)
	ex := window.NewExact(window.Seq(1000), 3)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20; i++ {
		row := unitRow(rng, 3)
		di.Update(row, float64(i))
		ex.Update(row, float64(i))
	}
	if e := ex.CovaErr(di.Query(19)); e > 1e-9 {
		t.Fatalf("tiny stream error = %v", e)
	}
}

func TestDIBinaryCounterStructure(t *testing.T) {
	// After m completed level-1 blocks, level i must hold completed
	// blocks covering exactly the aligned ranges, newest last.
	di := NewDIFD(DIConfig{N: 64, R: 1, L: 4, Ell: 32}, 2)
	rng := rand.New(rand.NewSource(2))
	// cap1 = 64·1/16 = 4: each level-1 block closes after mass > 4.
	for i := 0; i < 60; i++ {
		di.Update(unitRow(rng, 2), float64(i))
	}
	if di.CompletedBlocks() == 0 {
		t.Fatal("no level-1 blocks completed")
	}
	for li := range di.levels {
		span := 1 << uint(li)
		for _, b := range di.levels[li] {
			if b.endIdx-b.startIdx+1 != span {
				t.Fatalf("level %d block spans [%d,%d], want span %d", li+1, b.startIdx, b.endIdx, span)
			}
			if (b.startIdx-1)%span != 0 {
				t.Fatalf("level %d block [%d,%d] misaligned", li+1, b.startIdx, b.endIdx)
			}
		}
	}
}

func TestDIFDErrorReasonableUnitNorms(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n, d, win := 4000, 8, 500
	cfg := DIConfig{N: win, R: 1, L: 5, Ell: 64}
	di := NewDIFD(cfg, d)
	ex := window.NewExact(window.Seq(win), d)
	var errSum float64
	cnt := 0
	for i := 0; i < n; i++ {
		row := unitRow(rng, d)
		di.Update(row, float64(i))
		ex.Update(row, float64(i))
		if i > win && i%250 == 0 {
			errSum += ex.CovaErr(di.Query(float64(i)))
			cnt++
		}
	}
	if avg := errSum / float64(cnt); avg > 0.3 {
		t.Fatalf("DI-FD avg error = %v", avg)
	}
}

func TestDIFDErrorDecreasesWithSize(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n, d, win := 3000, 6, 400
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = unitRow(rng, d)
	}
	errAt := func(ell int) float64 {
		di := NewDIFD(DIConfig{N: win, R: 1, L: 5, Ell: ell, MinEll: 2}, d)
		ex := window.NewExact(window.Seq(win), d)
		var e float64
		cnt := 0
		for i := 0; i < n; i++ {
			di.Update(rows[i], float64(i))
			ex.Update(rows[i], float64(i))
			if i >= win && i%200 == 0 {
				e += ex.CovaErr(di.Query(float64(i)))
				cnt++
			}
		}
		return e / float64(cnt)
	}
	coarse, fine := errAt(8), errAt(96)
	if fine >= coarse {
		t.Fatalf("DI-FD error did not decrease with Ell: %v → %v", coarse, fine)
	}
}

func TestDIApproximatesWindowNotStream(t *testing.T) {
	win := 64
	di := NewDIFD(DIConfig{N: win, R: 1, L: 3, Ell: 32}, 2)
	for i := 0; i < 500; i++ {
		di.Update([]float64{1, 0}, float64(i))
	}
	for i := 500; i < 1000; i++ {
		di.Update([]float64{0, 1}, float64(i))
	}
	b := di.Query(999)
	var col0, col1 float64
	for i := 0; i < b.Rows(); i++ {
		col0 += b.At(i, 0) * b.At(i, 0)
		col1 += b.At(i, 1) * b.At(i, 1)
	}
	if col0 > float64(win)/4 {
		t.Fatalf("stale mass %v too large for window %d", col0, win)
	}
	if math.Abs(col1-float64(win)) > float64(win)/2 {
		t.Fatalf("window mass ≈ %v, want ≈ %d", col1, win)
	}
}

func TestDISpaceSublinear(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	win := 4096
	di := NewDIFD(DIConfig{N: win, R: 1, L: 6, Ell: 64}, 4)
	var peak int
	for i := 0; i < 3*win; i++ {
		di.Update(unitRow(rng, 4), float64(i))
		if n := di.RowsStored(); n > peak {
			peak = n
		}
	}
	if peak > win {
		t.Fatalf("DI-FD peak rows %d not sublinear in window %d", peak, win)
	}
}

func TestDIQueryCoverNoOverlapNoGapInCompleted(t *testing.T) {
	// Structural: re-run the query's cover logic and verify the chosen
	// blocks tile [startIdx..m] without overlaps or gaps (except
	// expired prefix positions).
	rng := rand.New(rand.NewSource(6))
	win := 128
	di := NewDIFD(DIConfig{N: win, R: 1, L: 4, Ell: 32}, 3)
	for i := 0; i < 700; i++ {
		di.Update(unitRow(rng, 3), float64(i))
	}
	tQ := 699.0
	cutoff := tQ - float64(win)
	di.expire(cutoff)
	startIdx := di.m + 1
	for _, b := range di.levels[0] {
		if b.startT > cutoff {
			startIdx = b.startIdx
			break
		}
	}
	covered := map[int]bool{}
	pos := startIdx
	for pos <= di.m {
		span := 1
		for span*2 <= di.m-pos+1 && (pos-1)%(span*2) == 0 {
			span *= 2
		}
		blk := di.findBlock(pos, pos+span-1)
		for blk == nil && span > 1 {
			span /= 2
			blk = di.findBlock(pos, pos+span-1)
		}
		if blk == nil {
			pos++
			continue
		}
		for j := blk.startIdx; j <= blk.endIdx; j++ {
			if covered[j] {
				t.Fatalf("block index %d covered twice", j)
			}
			covered[j] = true
		}
		pos += span
	}
	for j := startIdx; j <= di.m; j++ {
		if !covered[j] {
			t.Fatalf("completed level-1 block %d inside window not covered", j)
		}
	}
}

// TestDIFindBlockMatchesScan checks findBlock's index arithmetic
// against a scan of the whole level, for every (lo, span) over the
// completed range and beyond, on a DI whose levels have expired
// prefixes and a decoded copy of it.
func TestDIFindBlockMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	di := NewDIFD(DIConfig{N: 96, R: 1, L: 5, Ell: 16}, 3)
	for i := 0; i < 900; i++ {
		di.Update(unitRow(rng, 3), float64(i))
	}
	di.Query(899)
	if di.levels[0][0].startIdx == 1 || len(di.levels[di.cfg.L-1]) == 0 {
		t.Fatalf("want an expired level-1 prefix and a top-level block; level 1 starts at %d", di.levels[0][0].startIdx)
	}
	blob, err := di.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	decoded := NewDIFD(DIConfig{N: 96, R: 1, L: 5, Ell: 16}, 3)
	if err := decoded.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	for _, s := range []*DI{di, decoded} {
		for level := 0; level <= s.cfg.L; level++ {
			span := 1 << level
			for lo := -span; lo <= s.m+span; lo++ {
				var want *diBlock
				if level < s.cfg.L {
					for j := range s.levels[level] {
						if b := &s.levels[level][j]; b.startIdx == lo && b.endIdx == lo+span-1 {
							want = b
						}
					}
				}
				if got := s.findBlock(lo, lo+span-1); got != want {
					t.Fatalf("findBlock(%d, %d) = %v, scan finds %v", lo, lo+span-1, got, want)
				}
			}
		}
	}
}

func TestDIRPAndDIHashRun(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	win, d := 256, 5
	cfg := DIConfig{N: win, R: 1, L: 4, Ell: 256, MinEll: 16}
	rp := NewDIRP(cfg, d, 99)
	hs := NewDIHash(cfg, d, 99)
	ex := window.NewExact(window.Seq(win), d)
	for i := 0; i < 1500; i++ {
		row := unitRow(rng, d)
		rp.Update(row, float64(i))
		hs.Update(row, float64(i))
		ex.Update(row, float64(i))
	}
	if e := ex.CovaErr(rp.Query(1499)); e > 0.8 {
		t.Fatalf("DI-RP error = %v", e)
	}
	if e := ex.CovaErr(hs.Query(1499)); e > 0.8 {
		t.Fatalf("DI-HASH error = %v", e)
	}
	if rp.Name() != "DI-RP" || hs.Name() != "DI-HASH" {
		t.Fatal("names wrong")
	}
}

func TestDIName(t *testing.T) {
	if NewDIFD(DIConfig{N: 10, R: 1, L: 2, Ell: 8}, 2).Name() != "DI-FD" {
		t.Fatal("Name wrong")
	}
}

func TestDIRawOverflowFallsBackToActiveSketch(t *testing.T) {
	// Rows with squared norms far below 1 violate the paper's norm
	// assumption; the open block then holds many more rows than the
	// answer budget. The raw buffer must cap at Ell and the query fall
	// back to the level-1 active sketch, keeping space bounded.
	rng := rand.New(rand.NewSource(42))
	win := 512
	cfg := DIConfig{N: win, R: 100, L: 4, Ell: 16, RSlack: 2}
	di := NewDIFD(cfg, 3)
	ex := window.NewExact(window.Seq(win), 3)
	for i := 0; i < 2000; i++ {
		row := randRow(rng, 3)
		for j := range row {
			row[j] *= 0.02 // squared norm ~1e-3: thousands of rows per block
		}
		di.Update(row, float64(i))
		ex.Update(row, float64(i))
		if n := di.RowsStored(); n > win {
			t.Fatalf("at %d: DI stores %d rows, window is %d", i, n, win)
		}
	}
	b := di.Query(1999)
	if b.Rows() == 0 {
		t.Fatal("query returned nothing despite live data")
	}
	if e := ex.CovaErr(b); e > 1.0 {
		t.Fatalf("fallback query error = %v", e)
	}
}

func TestDIISVDRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	win, d := 256, 6
	di := NewDIISVD(DIConfig{N: win, R: 1, L: 4, Ell: 64, MinEll: 8}, d)
	ex := window.NewExact(window.Seq(win), d)
	for i := 0; i < 1200; i++ {
		row := unitRow(rng, d)
		di.Update(row, float64(i))
		ex.Update(row, float64(i))
	}
	if e := ex.CovaErr(di.Query(1199)); e > 0.8 {
		t.Fatalf("DI-ISVD error = %v", e)
	}
	if di.Name() != "DI-ISVD" {
		t.Fatal("name wrong")
	}
}

func TestDIQueryRange(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	win, d := 256, 4
	di := NewDIFD(DIConfig{N: win, R: 1, L: 5, Ell: 64}, d)
	ex := window.NewExact(window.Seq(win), d)
	rows := make([][]float64, 800)
	for i := range rows {
		rows[i] = unitRow(rng, d)
		di.Update(rows[i], float64(i))
		ex.Update(rows[i], float64(i))
	}
	// Sub-range: the middle half of the window.
	from, to := 799.0-192, 799.0-64
	b := di.QueryRange(from, to)
	if b.Rows() == 0 {
		t.Fatal("range query returned nothing")
	}
	// Exact reference for that range.
	sub := window.NewExact(window.Seq(win), d)
	for i := int(from) + 1; i <= int(to); i++ {
		sub.Update(rows[i], float64(i))
	}
	if e := sub.CovaErr(b); e > 0.5 {
		t.Fatalf("range query error = %v", e)
	}
	// The mass must be in the right ballpark (range has 128 unit rows).
	if m := b.FrobeniusSq(); m < 64 || m > 192 {
		t.Fatalf("range mass = %v, want ≈ 128", m)
	}
}

func TestDIQueryRangeFullWindowMatchesQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	win, d := 128, 3
	di := NewDIFD(DIConfig{N: win, R: 1, L: 4, Ell: 32}, d)
	for i := 0; i < 500; i++ {
		di.Update(unitRow(rng, d), float64(i))
	}
	full := di.Query(499)
	ranged := di.QueryRange(499-float64(win), 499)
	if !full.Equal(ranged, 1e-12) {
		t.Fatalf("full-window range (%d rows) differs from Query (%d rows)",
			ranged.Rows(), full.Rows())
	}
}

func TestDIQueryRangeValidation(t *testing.T) {
	di := NewDIFD(DIConfig{N: 64, R: 1, L: 3, Ell: 16}, 2)
	di.Update([]float64{1, 0}, 100)
	for _, f := range []func(){
		func() { di.QueryRange(5, 5) },   // empty
		func() { di.QueryRange(10, 50) }, // before the window
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

func TestDIQueryRangeOpenRowsOnly(t *testing.T) {
	di := NewDIFD(DIConfig{N: 64, R: 1, L: 3, Ell: 16}, 2)
	for i := 0; i < 5; i++ {
		di.Update([]float64{1, 0}, float64(i))
	}
	b := di.QueryRange(1, 4) // rows 2, 3, 4 (all still raw)
	if b.Rows() != 3 {
		t.Fatalf("open-rows range = %d rows, want 3", b.Rows())
	}
}
