package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"testing"

	"swsketch/internal/mat"
	"swsketch/internal/stream"
	"swsketch/internal/window"
)

// lmGoldenCase is one pinned LM-FD run: a sketch, a stream, and the
// ingest path that feeds it.
type lmGoldenCase struct {
	name   string
	spec   window.Spec
	d, ell int
	fd     stream.FDOpts
	path   string // "update", "sparse" or "batch"
	// restoreAt, when > 0, snapshots the sketch after that many rows
	// and continues the run on the restored copy.
	restoreAt int
	// want holds the fingerprints of every Query answer, the final
	// MarshalBinary bytes, and the final Stats map.
	want [3]uint64
}

// TestLMFDGoldenAcrossVersions pins LM-FD's answers, snapshot bytes
// and Stats to constants recorded from an earlier release, so a change
// that alters any output bit fails here even when it is deterministic
// (TestLMFDGoldenDeterminism only compares two runs of one binary).
// The streams mix oversized rows (‖a‖² ≥ ℓ, singleton blocks), sub-ℓ
// rows that close through the active block, and zero rows; time
// windows get bursty, repeated timestamps. Update the constants only
// for a deliberate change to the algorithm.
func TestLMFDGoldenAcrossVersions(t *testing.T) {
	fast := stream.FDOpts{Buffer: 2, Alpha: 0.5}
	cases := []lmGoldenCase{
		{name: "seq/classic/update", spec: window.Seq(300), d: 6, ell: 8, path: "update",
			want: [3]uint64{0x940353dc0e5a9acf, 0xbf2363573529328f, 0xd4e83dd009738611}},
		{name: "seq/classic/sparse", spec: window.Seq(300), d: 6, ell: 8, path: "sparse",
			want: [3]uint64{0x940353dc0e5a9acf, 0xbf2363573529328f, 0xd4e83dd009738611}},
		{name: "seq/fast/batch", spec: window.Seq(300), d: 6, ell: 8, fd: fast, path: "batch",
			want: [3]uint64{0xc5382516735178f5, 0x340485b1394cecfc, 0xe79af74bc3f15ee5}},
		{name: "time/classic/batch", spec: window.TimeSpan(40), d: 5, ell: 6, path: "batch",
			want: [3]uint64{0xe675657ad9f64914, 0xf66fbeef2464d4f1, 0x25cb68580ee027c5}},
		{name: "time/fast/update", spec: window.TimeSpan(40), d: 5, ell: 6, fd: fast, path: "update",
			want: [3]uint64{0x89a5d078e129e7de, 0x0dfddb500bccc978, 0x85d44debcc215cde}},
		{name: "seq/classic/batch/restored", spec: window.Seq(300), d: 6, ell: 8, path: "batch", restoreAt: 1100,
			want: [3]uint64{0xf4c674cfede7c53b, 0xbf2363573529328f, 0xb39aae496bc43c66}},
		{name: "seq/fast/sparse/restored", spec: window.Seq(300), d: 6, ell: 8, fd: fast, path: "sparse", restoreAt: 900,
			want: [3]uint64{0x29780553d316f404, 0x340485b1394cecfc, 0x995d04b04198aacf}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := runLMGolden(t, c)
			for i, what := range []string{"Query answers", "MarshalBinary bytes", "Stats"} {
				if got[i] != c.want[i] {
					t.Errorf("%s fingerprint %#x, want %#x", what, got[i], c.want[i])
				}
			}
		})
	}
}

func runLMGolden(t *testing.T, c lmGoldenCase) [3]uint64 {
	t.Helper()
	const n = 2000
	rng := rand.New(rand.NewSource(20160626))
	rows := make([][]float64, n)
	times := make([]float64, n)
	clock := 0.0
	for i := range rows {
		row := make([]float64, c.d)
		// Scales straddle ℓ: about a third of the rows are oversized,
		// a few are zero, and sparse rows keep some coordinates at 0.
		scale := []float64{0, 0.3, 0.8, 1.5, 3}[rng.Intn(5)]
		for j := range row {
			if rng.Intn(3) > 0 {
				row[j] = scale * rng.NormFloat64()
			}
		}
		rows[i] = row
		if c.spec.Kind == window.Time {
			clock += float64(rng.Intn(3)) * 0.5 // bursts share a timestamp
		} else {
			clock = float64(i)
		}
		times[i] = clock
	}

	l := NewLMFDOpts(c.spec, c.d, c.ell, 4, c.fd)
	answers := fnv.New64a()
	for i := 0; i < n; {
		if i == c.restoreAt && i > 0 {
			blob, err := l.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			var r LM
			if err := r.UnmarshalBinary(blob); err != nil {
				t.Fatal(err)
			}
			l = &r
		}
		step := 1
		switch c.path {
		case "update":
			l.Update(rows[i], times[i])
		case "sparse":
			l.UpdateSparse(mat.SparseFromDense(rows[i]), times[i])
		case "batch":
			step = 1 + rng.Intn(37)
			if i+step > n {
				step = n - i
			}
			if c.restoreAt > i && c.restoreAt < i+step {
				step = c.restoreAt - i
			}
			l.UpdateBatch(rows[i:i+step], times[i:i+step])
		}
		if i/97 != (i+step)/97 {
			writeMatrixBits(answers, l.Query(times[i+step-1]))
		}
		i += step
	}
	writeMatrixBits(answers, l.Query(times[n-1]+7))

	blob, err := l.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	snap := fnv.New64a()
	snap.Write(blob)

	stats := l.Stats()
	keys := make([]string, 0, len(stats))
	for k := range stats {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	sh := fnv.New64a()
	var buf [8]byte
	for _, k := range keys {
		sh.Write([]byte(k))
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(stats[k]))
		sh.Write(buf[:])
	}
	return [3]uint64{answers.Sum64(), snap.Sum64(), sh.Sum64()}
}

// writeMatrixBits feeds a matrix's shape and exact float bits to h.
func writeMatrixBits(h interface{ Write([]byte) (int, error) }, m *mat.Dense) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(m.Rows())<<32|uint64(m.Cols()))
	h.Write(buf[:])
	for _, v := range m.Data() {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
}
