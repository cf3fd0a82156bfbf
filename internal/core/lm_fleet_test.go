package core

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"swsketch/internal/mat"
	"swsketch/internal/window"
)

// The perfbench fleet shape: every tenant runs LM-FD over d=16 with
// ℓ=8, b=4 and a sequence window of 1024, fed 256-row frames of a
// rank-4 signal (scales 6, 4, 3, 2 on a random orthonormal basis) plus
// unit noise. Almost every row has ‖a‖² ≈ 81 ≥ ℓ, so each one becomes
// a singleton block and costs about one block merge.
const (
	fleetD     = 16
	fleetEll   = 8
	fleetB     = 4
	fleetWin   = 1024
	fleetFrame = 256
)

// fleetRows draws n rows of the fleet's stream.
func fleetRows(rng *rand.Rand, n int) [][]float64 {
	scales := []float64{6, 4, 3, 2}
	basis := make([][]float64, len(scales))
	for i := range basis {
		v := make([]float64, fleetD)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		for _, u := range basis[:i] {
			dot := mat.Dot(v, u)
			for j := range v {
				v[j] -= dot * u[j]
			}
		}
		norm := math.Sqrt(mat.SqNorm(v))
		for j := range v {
			v[j] /= norm
		}
		basis[i] = v
	}
	rows := make([][]float64, n)
	for r := range rows {
		row := make([]float64, fleetD)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		for i, s := range scales {
			z := s * rng.NormFloat64()
			for j := range row {
				row[j] += z * basis[i][j]
			}
		}
		rows[r] = row
	}
	return rows
}

// fleetLM is one steady-state fleet tenant: its window is full and it
// has slid through a few more windows, so its levels, free list and
// shrink scratch are at their working sizes. next feeds the following
// frame.
type fleetLM struct {
	lm    *LM
	rows  [][]float64
	times []float64
	t     int
}

func newFleetLM() *fleetLM {
	f := &fleetLM{
		lm:    NewLMFD(window.Seq(fleetWin), fleetD, fleetEll, fleetB),
		rows:  fleetRows(rand.New(rand.NewSource(7)), 8*fleetFrame),
		times: make([]float64, fleetFrame),
	}
	for i := 0; i < 4*fleetWin/fleetFrame; i++ {
		f.next()
	}
	return f
}

// next ingests one fleetFrame-row frame, cycling through the rows.
func (f *fleetLM) next() {
	start := (f.t / fleetFrame % (len(f.rows) / fleetFrame)) * fleetFrame
	for i := range f.times {
		f.times[i] = float64(f.t + i)
	}
	f.lm.UpdateBatch(f.rows[start:start+fleetFrame], f.times)
	f.t += fleetFrame
}

// step ingests the stream's next single row.
func (f *fleetLM) step() {
	f.lm.Update(f.rows[f.t%len(f.rows)], float64(f.t))
	f.t++
}

var fleetSink *mat.Dense

// BenchmarkLMFDFleet measures one fleet tenant in steady state: a
// 256-row UpdateBatch frame, and a Query over the full window. A
// query-miss follows a one-row ingest (made outside the timer), so it
// merges every block; a query-hit re-reads an unchanged tenant and
// copies the memoized answer.
func BenchmarkLMFDFleet(b *testing.B) {
	b.Run("ingest", func(b *testing.B) {
		f := newFleetLM()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f.next()
		}
	})
	b.Run("query-miss", func(b *testing.B) {
		f := newFleetLM()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			f.step()
			b.StartTimer()
			fleetSink = f.lm.Query(float64(f.t - 1))
		}
	})
	b.Run("query-hit", func(b *testing.B) {
		f := newFleetLM()
		fleetSink = f.lm.Query(float64(f.t - 1))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fleetSink = f.lm.Query(float64(f.t - 1))
		}
	})
}

// TestLMFDFleetAllocs guards the steady-state allocation budget of a
// fleet tenant. Block FDs freed by merges and expiry are recycled,
// level storage is kept, and shrink scratch is pooled, so a 256-row
// frame allocates little beyond the raw rows it stores. A query after
// an ingest merges every block; a repeat query copies the memo.
func TestLMFDFleetAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	const (
		maxFrameAllocs = 1024
		maxFrameBytes  = 128 << 10
		maxMissAllocs  = 160
		maxHitAllocs   = 2
		frames         = 32
	)
	f := newFleetLM()
	allocs, bytes := heapDelta(func() {
		for i := 0; i < frames; i++ {
			f.next()
		}
	})
	if allocs > maxFrameAllocs*frames || bytes > maxFrameBytes*frames {
		t.Errorf("UpdateBatch of %d rows: %d allocs, %.1f KiB per frame; want ≤ %d allocs, ≤ %d KiB",
			fleetFrame, allocs/frames, float64(bytes)/frames/1024, maxFrameAllocs, maxFrameBytes>>10)
	}
	var miss, hit uint64
	for i := 0; i < frames; i++ {
		f.step()
		n, _ := heapDelta(func() { fleetSink = f.lm.Query(float64(f.t - 1)) })
		miss += n
		n, _ = heapDelta(func() { fleetSink = f.lm.Query(float64(f.t - 1)) })
		hit += n
	}
	if miss > maxMissAllocs*frames {
		t.Errorf("Query after an ingest: %d allocs, want ≤ %d", miss/frames, maxMissAllocs)
	}
	if hit > maxHitAllocs*frames {
		t.Errorf("repeat Query: %d allocs, want ≤ %d", hit/frames, maxHitAllocs)
	}
}

// heapDelta reports the heap allocations and bytes fn makes.
func heapDelta(fn func()) (allocs, bytes uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}
