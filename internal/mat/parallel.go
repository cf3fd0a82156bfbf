// Compute layer: cache-blocked, worker-pool-parallel kernels behind
// Mul, Gram, and GramT. The naive scalar references they are tested
// against live in parallel_test.go.
//
// The design has three tiers:
//
//  1. A package-level worker pool, started lazily on the first large
//     kernel call and sized to GOMAXPROCS at that moment. Workers are
//     reused across calls and across concurrently running kernels, so
//     the steady-state cost of a parallel kernel is one WaitGroup and
//     a handful of channel sends — no goroutine churn.
//  2. parallelFor, a dynamic chunk scheduler: the index range is cut
//     into grain-sized chunks that workers (and the calling goroutine,
//     which always participates) claim with an atomic counter. Dynamic
//     claiming balances triangular workloads (GramT) where chunk cost
//     varies; every chunk covers a fixed index range and writes only
//     its own output, so results are bit-for-bit deterministic
//     regardless of how chunks land on workers.
//  3. Blocked serial kernels under each chunk: Mul walks k in panels
//     of kcBlock so the panel of B rows stays cache-resident across
//     the chunk's output rows, and the inner loops are unrolled four
//     deep (rank-4 updates) to cut the load/store traffic on the
//     output row by 4×. Gram accumulates upper-triangle rank-2 outer
//     products; GramT rides the unrolled Dot.
//
// Small inputs never touch the pool: below parallelFlops the kernels
// run the blocked loops on the calling goroutine, so the ℓ×ℓ Gram
// matrices of a sketch shrink do not pay scheduling overhead.
package mat

import (
	"runtime"
	"sync"
	"sync/atomic"
)

const (
	// kcBlock is the depth-panel width of the blocked multiply: the
	// kcBlock×cols panel of B touched by one k-panel is what must stay
	// cache-resident. 256 rows × 8 bytes keeps panels of up to ~2048
	// columns inside typical L2 capacity.
	kcBlock = 256

	// parallelFlops is the multiply-add count below which a kernel
	// stays on the calling goroutine. 1<<16 ≈ a 64×64 by 64×64 product
	// or a 40×40 Gram over 40 rows — the sketch-sized shapes where
	// fan-out costs more than it saves.
	parallelFlops = 1 << 16

	// minGrain is the smallest chunk of output rows a worker claims;
	// it bounds scheduling overhead on skinny outputs.
	minGrain = 4
)

// pool is the package-level worker pool. Workers block on the task
// channel; parallelFor feeds it closures. Started once, on demand.
var pool struct {
	once  sync.Once
	size  int
	tasks chan func()
}

func ensurePool() {
	pool.once.Do(func() {
		pool.size = runtime.GOMAXPROCS(0)
		if pool.size < 1 {
			pool.size = 1
		}
		pool.tasks = make(chan func(), 4*pool.size)
		for i := 0; i < pool.size; i++ {
			go func() {
				for f := range pool.tasks {
					f()
				}
			}()
		}
	})
}

// parallelFor runs body(lo, hi) over [0, n) in grain-sized chunks,
// fanning chunks out to the worker pool. The calling goroutine always
// participates, so a busy pool degrades to serial execution rather
// than deadlock. body must only write state owned by its chunk.
func parallelFor(n, grain int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	chunks := (n + grain - 1) / grain
	ensurePool()
	if chunks <= 1 || pool.size == 1 {
		body(0, n)
		return
	}
	var next int64
	run := func() {
		for {
			c := int(atomic.AddInt64(&next, 1) - 1)
			if c >= chunks {
				return
			}
			lo := c * grain
			hi := lo + grain
			if hi > n {
				hi = n
			}
			body(lo, hi)
		}
	}
	helpers := pool.size - 1
	if helpers > chunks-1 {
		helpers = chunks - 1
	}
	var wg sync.WaitGroup
	wg.Add(helpers)
	for i := 0; i < helpers; i++ {
		task := func() {
			defer wg.Done()
			run()
		}
		select {
		case pool.tasks <- task:
		default:
			// Pool saturated by other kernels: a fresh goroutine is
			// still better than serialising behind them.
			go task()
		}
	}
	run()
	wg.Wait()
}

// grainFor picks a chunk size for n output rows so there are a few
// chunks per worker (dynamic balancing) without dropping below
// minGrain. The grain is a multiple of mulRows' 4-row tile, so every
// chunk starts on a tile boundary and each row takes the same path —
// and gives the same bits — whatever the pool size.
func grainFor(n int) int {
	g := n / (4 * pool.size)
	if g < minGrain {
		g = minGrain
	}
	return (g + 3) &^ 3
}

// mulRows computes rows [lo, hi) of out = a·b. It fully owns those
// output rows (they are zero on entry). The hot path is a 4×2
// register tile — four output rows advanced by a rank-2 update per
// inner iteration — which amortises the B-row loads across four
// accumulator rows and keeps eight independent multiply-add chains in
// flight. k runs in panels of kcBlock so the touched B panel stays
// cache-resident when B itself is larger than L2.
func mulRows(out, a, b *Dense, lo, hi int) {
	ac, bc := a.cols, b.cols
	for kc := 0; kc < ac; kc += kcBlock {
		kend := kc + kcBlock
		if kend > ac {
			kend = ac
		}
		i := lo
		for ; i+3 < hi; i += 4 {
			ar0 := a.data[i*ac : (i+1)*ac]
			ar1 := a.data[(i+1)*ac : (i+2)*ac]
			ar2 := a.data[(i+2)*ac : (i+3)*ac]
			ar3 := a.data[(i+3)*ac : (i+4)*ac]
			o0 := out.data[i*bc : i*bc+bc]
			o1 := out.data[(i+1)*bc : (i+1)*bc+bc]
			o2 := out.data[(i+2)*bc : (i+2)*bc+bc]
			o3 := out.data[(i+3)*bc : (i+3)*bc+bc]
			o1 = o1[:len(o0)]
			o2 = o2[:len(o0)]
			o3 = o3[:len(o0)]
			k := kc
			for ; k+1 < kend; k += 2 {
				a00, a01 := ar0[k], ar0[k+1]
				a10, a11 := ar1[k], ar1[k+1]
				a20, a21 := ar2[k], ar2[k+1]
				a30, a31 := ar3[k], ar3[k+1]
				b0 := b.data[k*bc : k*bc+bc]
				b1 := b.data[(k+1)*bc : (k+1)*bc+bc]
				b0 = b0[:len(o0)]
				b1 = b1[:len(o0)]
				for j, v0 := range b0 {
					v1 := b1[j]
					o0[j] += a00*v0 + a01*v1
					o1[j] += a10*v0 + a11*v1
					o2[j] += a20*v0 + a21*v1
					o3[j] += a30*v0 + a31*v1
				}
			}
			for ; k < kend; k++ {
				v0, v1, v2, v3 := ar0[k], ar1[k], ar2[k], ar3[k]
				brow := b.data[k*bc : k*bc+bc]
				brow = brow[:len(o0)]
				for j, bv := range brow {
					o0[j] += v0 * bv
					o1[j] += v1 * bv
					o2[j] += v2 * bv
					o3[j] += v3 * bv
				}
			}
		}
		// Remainder rows: single-row rank-4 updates.
		for ; i < hi; i++ {
			arow := a.data[i*ac : (i+1)*ac]
			orow := out.data[i*bc : i*bc+bc]
			k := kc
			for ; k+3 < kend; k += 4 {
				a0, a1, a2, a3 := arow[k], arow[k+1], arow[k+2], arow[k+3]
				if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
					continue
				}
				b0 := b.data[k*bc : k*bc+bc]
				b1 := b.data[(k+1)*bc : (k+1)*bc+bc]
				b2 := b.data[(k+2)*bc : (k+2)*bc+bc]
				b3 := b.data[(k+3)*bc : (k+3)*bc+bc]
				b0 = b0[:len(orow)]
				b1 = b1[:len(orow)]
				b2 = b2[:len(orow)]
				b3 = b3[:len(orow)]
				for j, v0 := range b0 {
					orow[j] += a0*v0 + a1*b1[j] + a2*b2[j] + a3*b3[j]
				}
			}
			for ; k < kend; k++ {
				av := arow[k]
				if av == 0 {
					continue
				}
				brow := b.data[k*bc : k*bc+bc]
				brow = brow[:len(orow)]
				for j, bv := range brow {
					orow[j] += av * bv
				}
			}
		}
	}
}

// mulInto fills out = a·b, parallelising over output row blocks when
// the product is large enough. out must be zero on entry.
func mulInto(out, a, b *Dense) {
	flops := a.rows * a.cols * b.cols
	if flops < parallelFlops {
		mulRows(out, a, b, 0, a.rows)
		return
	}
	ensurePool()
	parallelFor(a.rows, grainFor(a.rows), func(lo, hi int) {
		mulRows(out, a, b, lo, hi)
	})
}

// gramRows accumulates rows [lo, hi) of the upper triangle of AᵀA
// into g, streaming the rows of A once per chunk and applying rank-2
// outer-product updates restricted to columns [lo, hi).
func gramRows(g, a *Dense, lo, hi int) {
	n := a.cols
	r := 0
	for ; r+1 < a.rows; r += 2 {
		r0 := a.data[r*n : (r+1)*n]
		r1 := a.data[(r+1)*n : (r+2)*n]
		for i := lo; i < hi; i++ {
			v0, v1 := r0[i], r1[i]
			if v0 == 0 && v1 == 0 {
				continue
			}
			gt := g.data[i*n+i : (i+1)*n]
			t0 := r0[i:]
			t1 := r1[i:]
			t1 = t1[:len(t0)]
			gt = gt[:len(t0)]
			for j, w := range t0 {
				gt[j] += v0*w + v1*t1[j]
			}
		}
	}
	for ; r < a.rows; r++ {
		r0 := a.data[r*n : (r+1)*n]
		for i := lo; i < hi; i++ {
			v0 := r0[i]
			if v0 == 0 {
				continue
			}
			gt := g.data[i*n+i : (i+1)*n]
			t0 := r0[i:]
			gt = gt[:len(t0)]
			for j, w := range t0 {
				gt[j] += v0 * w
			}
		}
	}
}

// gramInto fills g = AᵀA (g zero on entry), computing the upper
// triangle in parallel over output row blocks and mirroring it.
func gramInto(g, a *Dense) {
	n := a.cols
	flops := a.rows * n * n / 2
	if flops < parallelFlops {
		gramRows(g, a, 0, n)
	} else {
		ensurePool()
		parallelFor(n, grainFor(n), func(lo, hi int) {
			gramRows(g, a, lo, hi)
		})
	}
	mirrorUpper(g)
}

// gramTRows fills rows [lo, hi) of the upper triangle of AAᵀ with
// pairwise row dot products.
func gramTRows(g, a *Dense, lo, hi int) {
	n := a.rows
	for i := lo; i < hi; i++ {
		ri := a.data[i*a.cols : (i+1)*a.cols]
		for j := i; j < n; j++ {
			g.data[i*n+j] = Dot(ri, a.data[j*a.cols:(j+1)*a.cols])
		}
	}
}

// gramTInto fills g = AAᵀ (g zero on entry) and mirrors the triangle.
func gramTInto(g, a *Dense) {
	n := a.rows
	flops := n * n * a.cols / 2
	if flops < parallelFlops {
		gramTRows(g, a, 0, n)
	} else {
		ensurePool()
		parallelFor(n, grainFor(n), func(lo, hi int) {
			gramTRows(g, a, lo, hi)
		})
	}
	mirrorUpper(g)
}

// mirrorUpper copies the strict upper triangle of the square matrix g
// onto the lower one.
func mirrorUpper(g *Dense) {
	n := g.rows
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.data[j*n+i] = g.data[i*n+j]
		}
	}
}

// MulTo computes dst = a·b in place, reusing dst's backing storage
// (it is zeroed first). Shapes must match exactly; it panics
// otherwise. This is the allocation-free sibling of Mul for hot loops
// that keep a scratch product buffer (e.g. the FD shrink rebuild).
func MulTo(dst, a, b *Dense) *Dense {
	if a.cols != b.rows {
		panic("mat: MulTo inner dimension mismatch")
	}
	if dst.rows != a.rows || dst.cols != b.cols {
		panic("mat: MulTo destination shape mismatch")
	}
	for i := range dst.data {
		dst.data[i] = 0
	}
	mulInto(dst, a, b)
	return dst
}
