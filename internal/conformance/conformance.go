// Package conformance is the cross-framework contract suite: a single
// table of every shipped WindowSketch implementation, and one Run
// entry point that drives each through the same behavioural battery —
// covariance-error bounds on sequence and time windows, window-expiry
// exactness, empty/zero/single-row edge cases, batch-vs-row
// bit-equality, snapshot round-trip bit-equality, and concurrent
// access (put under `go test -race` by CI). A new framework gets the
// whole battery by adding one Case; the registry-coverage test in
// this package's tests keeps the table honest against the HTTP-facing
// framework list.
package conformance

import (
	"encoding"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"swsketch/internal/core"
	"swsketch/internal/mat"
	"swsketch/internal/window"
)

// Case describes one sketch implementation to be run through the
// suite. Capability flags widen or narrow individual checks; the
// snapshot checks self-select on the encoding.BinaryMarshaler /
// BinaryUnmarshaler interfaces.
type Case struct {
	// Name labels the subtests.
	Name string
	// Frameworks lists the registry framework names this case covers;
	// empty for sketches not exposed through the tenant API. The
	// coverage test asserts the union spans the registry's list.
	Frameworks []string
	// Make builds a sketch for the given window spec, dimension, and
	// seed.
	Make func(spec window.Spec, d int, seed int64) core.WindowSketch
	// MaxErr is the acceptable average covariance error on the benign
	// random stream (loose: the contract is behavioural, the tight
	// error checks live in the per-algorithm tests).
	MaxErr float64
	// SeqOnly marks sequence-window-only sketches (the DI and DS
	// families); they skip the time-window check.
	SeqOnly bool
	// LooseSingleRow marks randomised projections, which preserve a
	// single row only in expectation.
	LooseSingleRow bool
	// BatchExact asserts UpdateBatch is bit-identical to row-at-a-time
	// Update (deterministic sketches, and samplers that consume their
	// rng in ingestion order).
	BatchExact bool
	// Deterministic asserts a restored snapshot continues bit-exactly
	// under identical further updates (beyond the answer-at-snapshot
	// equality every marshaler must satisfy).
	Deterministic bool
	// NoSnapshot excuses a registry framework from snapshotting: without
	// it, a case with Frameworks fails SnapshotRoundTrip when its sketch
	// does not marshal. Cases without Frameworks are not served, so they
	// skip.
	NoSnapshot bool
	// StrictQueryOrder marks sketches whose Query panics on a
	// timestamp older than the last update (BEST's exact window); they
	// skip the concurrent check, where a reader inevitably holds a
	// stale timestamp.
	StrictQueryOrder bool
	// DeclaresR marks sketches built with a squared row-norm bound R
	// (the DI cases); RejectedBatch then also sends a row far past it.
	DeclaresR bool
	// Paired marks paired-stream (AMM) sketches: each d-wide row is
	// the stacked pair [a|b] split by pairedSplit, the guarantee is on
	// the product AᵀB rather than the Gram matrix AᵀA, and the error
	// checks measure the oracle's correlation error ‖AᵀB − XᵀY‖₂ /
	// (‖A‖_F·‖B‖_F) against MaxErr instead of the covariance error.
	Paired bool
}

// pairedSplit is the suite's stacked-row convention for Paired cases:
// the A side takes the first ⌈d/2⌉ columns.
func pairedSplit(d int) (dA, dB int) {
	dA = (d + 1) / 2
	return dA, d - dA
}

// caseErr measures a query answer with the case's metric: covariance
// error, or the windowed-AMM correlation error for Paired cases.
func caseErr(tc Case, oracle *window.Exact, d int, b *mat.Dense) float64 {
	if !tc.Paired {
		return oracle.CovaErr(b)
	}
	dA, dB := pairedSplit(d)
	return oracle.AmmErr(dA, core.StackedProduct(b, dA, dB))
}

// Cases returns the registration table for every shipped framework.
// This is the suite's single source of truth: core's contract test
// and the registry coverage test both consume it.
func Cases() []Case {
	return []Case{
		{Name: "SWR", Frameworks: []string{"swr"}, MaxErr: 0.5, BatchExact: true,
			Make: func(spec window.Spec, d int, seed int64) core.WindowSketch {
				return core.NewSWR(spec, 40, d, seed)
			}},
		{Name: "SWOR", Frameworks: []string{"swor"}, MaxErr: 0.5, BatchExact: true,
			Make: func(spec window.Spec, d int, seed int64) core.WindowSketch {
				return core.NewSWOR(spec, 40, d, seed)
			}},
		{Name: "SWOR-ALL", Frameworks: []string{"swor-all"}, MaxErr: 0.5, BatchExact: true,
			Make: func(spec window.Spec, d int, seed int64) core.WindowSketch {
				return core.NewSWORAll(spec, 40, d, seed)
			}},
		{Name: "LM-FD", Frameworks: []string{"lm-fd"}, MaxErr: 0.35, BatchExact: true, Deterministic: true,
			Make: func(spec window.Spec, d int, seed int64) core.WindowSketch {
				return core.NewLMFD(spec, d, 24, 8)
			}},
		// LM-HASH has no snapshot codec yet (ROADMAP 6).
		{Name: "LM-HASH", Frameworks: []string{"lm-hash"}, MaxErr: 0.8, LooseSingleRow: true, BatchExact: true, NoSnapshot: true,
			Make: func(spec window.Spec, d int, seed int64) core.WindowSketch {
				return core.NewLMHash(spec, d, 256, 8, uint64(seed))
			}},
		{Name: "LM-RP", MaxErr: 0.8, LooseSingleRow: true, BatchExact: true,
			Make: func(spec window.Spec, d int, seed int64) core.WindowSketch {
				return core.NewLMRP(spec, d, 128, 8, seed)
			}},
		{Name: "DI-FD", Frameworks: []string{"di-fd"}, MaxErr: 0.6, SeqOnly: true, BatchExact: true, Deterministic: true,
			DeclaresR: true,
			Make: func(spec window.Spec, d int, seed int64) core.WindowSketch {
				return core.NewDIFD(core.DIConfig{N: int(spec.Size), R: 4 * float64(d), L: 5, Ell: 48, RSlack: 2}, d)
			}},
		{Name: "DI-RP", MaxErr: 0.9, SeqOnly: true, LooseSingleRow: true, BatchExact: true,
			Make: func(spec window.Spec, d int, seed int64) core.WindowSketch {
				return core.NewDIRP(core.DIConfig{N: int(spec.Size), R: 4 * float64(d), L: 4, Ell: 512, MinEll: 64, RSlack: 2}, d, seed)
			}},
		{Name: "DI-HASH", MaxErr: 0.9, SeqOnly: true, LooseSingleRow: true, BatchExact: true,
			Make: func(spec window.Spec, d int, seed int64) core.WindowSketch {
				return core.NewDIHash(core.DIConfig{N: int(spec.Size), R: 4 * float64(d), L: 4, Ell: 512, MinEll: 64, RSlack: 2}, d, uint64(seed))
			}},
		{Name: "DS-FD", Frameworks: []string{"ds-fd"}, MaxErr: 0.35, SeqOnly: true, BatchExact: true, Deterministic: true,
			Make: func(spec window.Spec, d int, seed int64) core.WindowSketch {
				// Adaptive R (R=0): the error threshold θ = N·R/ℓ tracks
				// the observed max squared row norm.
				return core.NewDSFD(core.DSFDConfig{N: int(spec.Size), Ell: 24}, d)
			}},
		{Name: "LM-AMM", Frameworks: []string{"lm-amm"}, MaxErr: 0.35, Paired: true, BatchExact: true, Deterministic: true,
			Make: func(spec window.Spec, d int, seed int64) core.WindowSketch {
				dA, dB := pairedSplit(d)
				return core.NewLMAMM(spec, dA, dB, 24, 8)
			}},
		{Name: "DI-AMM", Frameworks: []string{"di-amm"}, MaxErr: 0.6, Paired: true, SeqOnly: true, BatchExact: true, Deterministic: true,
			DeclaresR: true,
			Make: func(spec window.Spec, d int, seed int64) core.WindowSketch {
				dA, dB := pairedSplit(d)
				return core.NewDIAMM(core.DIConfig{N: int(spec.Size), R: 4 * float64(d), L: 5, Ell: 48, RSlack: 2}, dA, dB)
			}},
		{Name: "BEST", MaxErr: 0.2, BatchExact: true, StrictQueryOrder: true,
			Make: func(spec window.Spec, d int, seed int64) core.WindowSketch {
				return core.NewBest(spec, 12, d)
			}},
		{Name: "Concurrent(LM-FD)", MaxErr: 0.35, BatchExact: true,
			Make: func(spec window.Spec, d int, seed int64) core.WindowSketch {
				return core.NewConcurrent(core.NewLMFD(spec, d, 24, 8))
			}},
	}
}

func randRow(rng *rand.Rand, d int) []float64 {
	r := make([]float64, d)
	for i := range r {
		r[i] = rng.NormFloat64()
	}
	return r
}

// Run drives every case through the full battery as nested subtests.
func Run(t *testing.T, cases []Case) {
	t.Run("SequenceWindow", func(t *testing.T) { sequenceWindow(t, cases) })
	t.Run("TimeWindow", func(t *testing.T) { timeWindow(t, cases) })
	t.Run("EmptyQuery", func(t *testing.T) { emptyQuery(t, cases) })
	t.Run("FullExpiry", func(t *testing.T) { fullExpiry(t, cases) })
	t.Run("SingleRow", func(t *testing.T) { singleRow(t, cases) })
	t.Run("ZeroRow", func(t *testing.T) { zeroRow(t, cases) })
	t.Run("BatchBitEqual", func(t *testing.T) { batchBitEqual(t, cases) })
	t.Run("RejectedBatch", func(t *testing.T) { rejectedBatch(t, cases) })
	t.Run("SnapshotRoundTrip", func(t *testing.T) { snapshotRoundTrip(t, cases) })
	t.Run("Concurrent", func(t *testing.T) { concurrent(t, cases) })
}

// sequenceWindow checks answer shape, query idempotence, and a loose
// average covariance-error bound on a benign random sequence stream.
func sequenceWindow(t *testing.T, cases []Case) {
	const d, win, n = 8, 300, 1800
	for _, tc := range cases {
		tc := tc
		t.Run(tc.Name, func(t *testing.T) {
			spec := window.Seq(win)
			sk := tc.Make(spec, d, 1)
			if sk.Name() == "" {
				t.Fatal("empty Name()")
			}
			oracle := window.NewExact(spec, d)
			rng := rand.New(rand.NewSource(99))
			var errSum float64
			queries := 0
			for i := 0; i < n; i++ {
				row := randRow(rng, d)
				tt := float64(i)
				sk.Update(row, tt)
				oracle.Update(row, tt)
				if i > win && i%300 == 0 {
					b := sk.Query(tt)
					if b.Cols() != d && b.Rows() != 0 {
						t.Fatalf("query cols = %d, want %d", b.Cols(), d)
					}
					// Idempotence: querying twice changes nothing.
					b2 := sk.Query(tt)
					if b.Rows() != b2.Rows() {
						t.Fatalf("query not idempotent: %d then %d rows", b.Rows(), b2.Rows())
					}
					errSum += caseErr(tc, oracle, d, b)
					queries++
					if sk.RowsStored() < 0 {
						t.Fatal("negative RowsStored")
					}
				}
			}
			if avg := errSum / float64(queries); avg > tc.MaxErr {
				t.Fatalf("avg error %v exceeds contract bound %v", avg, tc.MaxErr)
			}
		})
	}
}

// timeWindow repeats the error-bound check on a time-span window with
// exponentially spaced timestamps; sequence-only sketches skip it.
func timeWindow(t *testing.T, cases []Case) {
	const d = 6
	for _, tc := range cases {
		if tc.SeqOnly {
			continue
		}
		tc := tc
		t.Run(tc.Name, func(t *testing.T) {
			spec := window.TimeSpan(25)
			sk := tc.Make(spec, d, 2)
			oracle := window.NewExact(spec, d)
			rng := rand.New(rand.NewSource(7))
			tt := 0.0
			var errSum float64
			queries := 0
			for i := 0; i < 1500; i++ {
				tt += rng.ExpFloat64() * 0.1
				row := randRow(rng, d)
				sk.Update(row, tt)
				oracle.Update(row, tt)
				if i > 400 && i%250 == 0 {
					errSum += caseErr(tc, oracle, d, sk.Query(tt))
					queries++
				}
			}
			if avg := errSum / float64(queries); avg > tc.MaxErr {
				t.Fatalf("avg error %v exceeds contract bound %v", avg, tc.MaxErr)
			}
		})
	}
}

// emptyQuery: querying before any update must not panic and must
// return a zero-mass answer.
func emptyQuery(t *testing.T, cases []Case) {
	const d = 4
	for _, tc := range cases {
		tc := tc
		t.Run(tc.Name, func(t *testing.T) {
			sk := tc.Make(window.Seq(50), d, 3)
			b := sk.Query(0)
			if b.FrobeniusSq() != 0 {
				t.Fatalf("empty sketch returned mass %v", b.FrobeniusSq())
			}
		})
	}
}

// fullExpiry: after the window slides entirely past the data, answers
// must carry (near-)zero mass relative to what was ingested.
func fullExpiry(t *testing.T, cases []Case) {
	const d = 4
	for _, tc := range cases {
		tc := tc
		t.Run(tc.Name, func(t *testing.T) {
			sk := tc.Make(window.Seq(20), d, 4)
			rng := rand.New(rand.NewSource(5))
			for i := 0; i < 100; i++ {
				sk.Update(randRow(rng, d), float64(i))
			}
			b := sk.Query(1e9)
			if b.FrobeniusSq() > 1e-9 {
				t.Fatalf("fully expired window still has mass %v (%d rows)", b.FrobeniusSq(), b.Rows())
			}
		})
	}
}

// singleRow: one row in, one window — the answer must reproduce that
// row's Gram matrix near-exactly, except for randomised projections
// which only preserve it in expectation.
func singleRow(t *testing.T, cases []Case) {
	const d = 3
	for _, tc := range cases {
		tc := tc
		t.Run(tc.Name, func(t *testing.T) {
			spec := window.Seq(10)
			sk := tc.Make(spec, d, 6)
			oracle := window.NewExact(spec, d)
			row := []float64{1, 2, 2}
			sk.Update(row, 0)
			oracle.Update(row, 0)
			e := caseErr(tc, oracle, d, sk.Query(0))
			if !tc.LooseSingleRow && e > 1e-6 {
				t.Fatalf("single-row error = %v", e)
			}
			if tc.LooseSingleRow && math.IsNaN(e) {
				t.Fatal("NaN error")
			}
		})
	}
}

// zeroRow: all-zero rows carry no spectral mass; ingesting them mid-
// stream must neither panic nor corrupt the answer. A zero row is
// still accepted, so it advances a TenantSketch's clock.
func zeroRow(t *testing.T, cases []Case) {
	const d = 4
	for _, tc := range cases {
		tc := tc
		t.Run(tc.Name, func(t *testing.T) {
			sk := tc.Make(window.Seq(50), d, 8)
			rng := rand.New(rand.NewSource(6))
			for i := 0; i < 30; i++ {
				sk.Update(randRow(rng, d), float64(i))
			}
			sk.Update(make([]float64, d), 30)
			if ts, ok := sk.(core.TenantSketch); ok {
				if lastT, seen := ts.Clock(); !seen || lastT != 30 {
					t.Fatalf("clock %v (seen %v) after a zero row at t=30", lastT, seen)
				}
			}
			for i := 31; i < 60; i++ {
				sk.Update(randRow(rng, d), float64(i))
			}
			if v := sk.Query(59).FrobeniusSq(); math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("non-finite mass %v after zero-row ingest", v)
			}
		})
	}
}

// batchBitEqual: for BatchExact cases, UpdateBatch over arbitrary
// chunk sizes must be bit-identical to row-at-a-time ingest
// (deterministic sketches compute the same numbers; samplers consume
// their rng in the same order on both paths).
func batchBitEqual(t *testing.T, cases []Case) {
	const d, win, n = 5, 100, 400
	for _, tc := range cases {
		if !tc.BatchExact {
			continue
		}
		tc := tc
		t.Run(tc.Name, func(t *testing.T) {
			spec := window.Seq(win)
			byRow := tc.Make(spec, d, 9)
			byBatch := tc.Make(spec, d, 9)
			rng := rand.New(rand.NewSource(13))
			rows := make([][]float64, n)
			times := make([]float64, n)
			for i := range rows {
				rows[i] = randRow(rng, d)
				times[i] = float64(i)
			}
			for i := range rows {
				byRow.Update(rows[i], times[i])
			}
			for i, size := 0, 1; i < n; i += size {
				size = size%7 + 1 // cycle chunk sizes 1..7
				j := i + size
				if j > n {
					j = n
				}
				byBatch.UpdateBatch(rows[i:j], times[i:j])
			}
			a, b := byRow.Query(times[n-1]), byBatch.Query(times[n-1])
			if a.Rows() != b.Rows() || !a.Equal(b, 0) {
				t.Fatalf("batch ingest diverges from row-at-a-time: %d vs %d rows", a.Rows(), b.Rows())
			}
		})
	}
}

// rejectedBatch: UpdateBatch is all-or-nothing on every registry
// framework, and its sketch (a core.TenantSketch) says so first. A
// batch whose last row breaks one rule (row width, finiteness, a
// squared norm that overflows, a timestamp behind its predecessor or
// not finite, a declared R), or whose rows all lie behind the sketch's
// clock, must get an error from CheckBatch, then panic in
// UpdateBatch, and leave the sketch equal to a twin that never saw it:
// the same answers bit for bit, RowsStored, snapshot bytes and clock,
// also after both take the batch's valid rows, which CheckBatch
// accepts. The clock is the last accepted timestamp throughout.
func rejectedBatch(t *testing.T, cases []Case) {
	const d, n = 4, 80
	good := [][]float64{{1, 0, 2, 0}, {0, 1, 0, 1}}
	bad := map[string][]float64{"width": {1, 2, 3, 4, 5}, "non-finite": {1, math.NaN(), 0, 0},
		"overflow": {1e160, 0, 0, 0}, "timestamp": {1, 1, 1, 1}, "clock": {1, 1, 1, 1}, "norm": {1e6, 0, 0, 0},
		"+Inf time": {1, 1, 1, 1}, "-Inf time": {1, 1, 1, 1}, "NaN time": {1, 1, 1, 1}}
	for _, tc := range cases {
		if len(tc.Frameworks) == 0 {
			continue
		}
		for rule, row := range bad {
			if rule == "norm" && !tc.DeclaresR {
				continue
			}
			sk, twin := tc.Make(window.Seq(50), d, 5), tc.Make(window.Seq(50), d, 5)
			ts, ok := sk.(core.TenantSketch)
			if !ok {
				t.Fatalf("%s serves a registry framework but is not a core.TenantSketch", tc.Name)
			}
			rng := rand.New(rand.NewSource(23))
			for i := 0; i < n; i++ {
				r := randRow(rng, d)
				sk.Update(r, float64(i))
				twin.Update(r, float64(i))
			}
			times := []float64{n, n + 1, n + 2}
			switch rule {
			case "timestamp":
				times[2] = n - 10
			case "clock":
				times = []float64{n - 5, n - 4, n - 3}
			case "+Inf time":
				times[2] = math.Inf(1)
			case "-Inf time":
				times[2] = math.Inf(-1)
			case "NaN time":
				times[2] = math.NaN()
			}
			same := func(at, clock float64) {
				a, b := sk.Query(at), twin.Query(at)
				if a.Rows() != b.Rows() || !a.Equal(b, 0) || sk.RowsStored() != twin.RowsStored() ||
					string(snapshot(sk)) != string(snapshot(twin)) {
					t.Errorf("%s, %s rule: the sketch differs from its twin at t=%v", tc.Name, rule, at)
				}
				if lastT, seen := ts.Clock(); !seen || lastT != clock {
					t.Errorf("%s, %s rule: clock %v (seen %v), want %v", tc.Name, rule, lastT, seen, clock)
				}
			}
			rows := append(good[:2:2], row)
			if err := ts.CheckBatch(rows, times); err == nil {
				t.Errorf("%s: CheckBatch accepted a batch breaking the %s rule", tc.Name, rule)
			}
			same(n-1, n-1)
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: a batch breaking the %s rule was accepted", tc.Name, rule)
					}
				}()
				sk.UpdateBatch(rows, times)
			}()
			same(n-1, n-1)
			if err := ts.CheckBatch(good, []float64{n, n + 1}); err != nil {
				t.Errorf("%s, %s rule: CheckBatch rejected the valid rows: %v", tc.Name, rule, err)
			}
			sk.UpdateBatch(good, []float64{n, n + 1})
			twin.UpdateBatch(good, []float64{n, n + 1})
			same(n+1, n+1)
		}
	}
}

// snapshot is a sketch's binary snapshot, or nil without one.
func snapshot(sk core.WindowSketch) []byte {
	if m, ok := sk.(encoding.BinaryMarshaler); ok {
		if b, err := m.MarshalBinary(); err == nil {
			return b
		}
	}
	return nil
}

// snapshotRoundTrip: every sketch exposing the binary snapshot
// interface must restore to bit-identical answers, re-marshal as a
// byte-level fixed point (the registry spill layer relies on both),
// and — for deterministic sketches — continue bit-exactly under
// identical further updates. A sketch without the interface, or whose
// variant refuses to marshal, fails if the registry serves it (unless
// the case is marked NoSnapshot) and is skipped otherwise.
func snapshotRoundTrip(t *testing.T, cases []Case) {
	const d, win, n = 6, 120, 700
	for _, tc := range cases {
		tc := tc
		t.Run(tc.Name, func(t *testing.T) {
			noSnapshot := t.Fatalf
			if len(tc.Frameworks) == 0 || tc.NoSnapshot {
				noSnapshot = t.Skipf
			}
			spec := window.Seq(win)
			sk := tc.Make(spec, d, 11)
			m, ok := sk.(encoding.BinaryMarshaler)
			if !ok {
				noSnapshot("%s does not implement BinaryMarshaler", tc.Name)
			}
			rng := rand.New(rand.NewSource(17))
			for i := 0; i < n; i++ {
				sk.Update(randRow(rng, d), float64(i))
			}
			blob, err := m.MarshalBinary()
			if err != nil {
				noSnapshot("%s refuses to marshal: %v", tc.Name, err)
			}
			fresh := tc.Make(spec, d, 11)
			u, ok := fresh.(encoding.BinaryUnmarshaler)
			if !ok {
				t.Fatalf("%s marshals but cannot unmarshal", tc.Name)
			}
			if err := u.UnmarshalBinary(blob); err != nil {
				t.Fatalf("restore failed: %v", err)
			}
			if !sk.Query(n-1).Equal(fresh.Query(n-1), 0) {
				t.Fatal("restored sketch answers differently at the snapshot time")
			}
			if fresh.RowsStored() != sk.RowsStored() {
				t.Fatalf("rows stored differ after restore: %d vs %d", fresh.RowsStored(), sk.RowsStored())
			}
			if ts, ok := sk.(core.TenantSketch); ok {
				lastT, seen := fresh.(core.TenantSketch).Clock()
				if wantT, wantSeen := ts.Clock(); lastT != wantT || seen != wantSeen || wantT != n-1 {
					t.Fatalf("clock after restore %v,%v, want %v,%v (the last update, t=%d)", lastT, seen, wantT, wantSeen, n-1)
				}
			}
			// Re-marshal of an untouched decode must be a byte-level
			// fixed point.
			again := tc.Make(spec, d, 11)
			if err := again.(encoding.BinaryUnmarshaler).UnmarshalBinary(blob); err != nil {
				t.Fatal(err)
			}
			if string(snapshot(again)) != string(blob) {
				t.Fatal("snapshot is not re-marshal stable")
			}
			if !tc.Deterministic {
				return
			}
			for i := n; i < n+400; i++ {
				row := randRow(rng, d)
				sk.Update(row, float64(i))
				fresh.Update(row, float64(i))
			}
			if !sk.Query(n+399).Equal(fresh.Query(n+399), 0) {
				t.Fatal("restored sketch diverged under continued ingest")
			}
		})
	}
}

// concurrent wraps each case in core.NewConcurrent and hammers it with
// one ingest goroutine and two query goroutines. It asserts nothing
// beyond finite, well-shaped answers — its job is to put every
// framework's lock discipline under `go test -race`.
func concurrent(t *testing.T, cases []Case) {
	const d, total = 4, 600
	for _, tc := range cases {
		tc := tc
		t.Run(tc.Name, func(t *testing.T) {
			if tc.StrictQueryOrder {
				t.Skipf("%s requires non-decreasing query timestamps", tc.Name)
			}
			ck := core.NewConcurrent(tc.Make(window.Seq(64), d, 21))
			var latest atomic.Int64
			done := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer close(done)
				rng := rand.New(rand.NewSource(1))
				for i := 0; i < total; i++ {
					if i%5 == 4 {
						ck.UpdateBatch([][]float64{randRow(rng, d)}, []float64{float64(i)})
					} else {
						ck.Update(randRow(rng, d), float64(i))
					}
					latest.Store(int64(i))
				}
			}()
			for g := 0; g < 2; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-done:
							return
						default:
						}
						if ck.RowsStored() < 0 {
							t.Error("negative rows stored")
							return
						}
						b := ck.Query(float64(latest.Load()))
						if b.Rows() > 0 && b.Cols() != d {
							t.Errorf("query returned %d columns, want %d", b.Cols(), d)
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}
