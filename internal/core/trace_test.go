package core

import (
	"math/rand"
	"testing"

	"swsketch/internal/trace"
	"swsketch/internal/window"
)

// traceRows generates a deterministic mixed-magnitude stream.
func traceRows(n, d int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]float64, n)
	for i := range rows {
		r := make([]float64, d)
		for j := range r {
			r[j] = rng.NormFloat64()
		}
		rows[i] = r
	}
	return rows
}

// TestTraceLMEmitsStructuralEvents drives LM-FD hard enough to force
// active-block closes, merge cascades, FD shrinks inside block merges,
// and window expiry — and checks each kind shows up in the trace.
func TestTraceLMEmitsStructuralEvents(t *testing.T) {
	tr := trace.New(1 << 12)
	tr.Enable()
	lm := NewLMFD(window.Seq(200), 8, 16, 2)
	lm.SetTracer(tr)
	for i, r := range traceRows(1200, 8, 1) {
		lm.Update(r, float64(i))
	}
	lm.Query(1199)

	counts := tr.Counts()
	for _, kind := range []string{trace.KindLMClose, trace.KindLMMerge, trace.KindLMExpire, trace.KindFDShrink} {
		if counts[kind].Count == 0 {
			t.Errorf("LM-FD workload emitted no %s events (counts %v)", kind, counts)
		}
	}
	if counts[trace.KindLMMerge].LastSeq == 0 {
		t.Error("lm_merge exemplar seq missing")
	}
}

// TestTraceLMSingletonPromotion forces the Section 6.2 oversized-row
// path and checks lm_promote fires.
func TestTraceLMSingletonPromotion(t *testing.T) {
	tr := trace.New(1 << 12)
	tr.Enable()
	lm := NewLMFD(window.Seq(500), 4, 4, 2)
	lm.SetTracer(tr)
	big := []float64{40, 0, 0, 0} // mass 1600 ≫ ℓ=4
	small := []float64{0.5, 0.5, 0, 0}
	ti := 0.0
	for i := 0; i < 200; i++ {
		lm.Update(small, ti)
		ti++
		if i%3 == 0 {
			lm.Update(big, ti)
			ti++
		}
	}
	if tr.Counts()[trace.KindLMPromote].Count == 0 {
		t.Errorf("singleton workload emitted no lm_promote events (counts %v)", tr.Counts())
	}
}

// TestTraceDIEmitsStructuralEvents drives DI-FD through block closes
// and retires.
func TestTraceDIEmitsStructuralEvents(t *testing.T) {
	tr := trace.New(1 << 12)
	tr.Enable()
	di := NewDIFD(DIConfig{N: 128, R: 100, L: 4, Ell: 16}, 8)
	di.SetTracer(tr)
	rows := traceRows(800, 8, 2)
	for i, r := range rows {
		di.Update(r, float64(i))
	}
	di.Query(float64(len(rows) - 1))

	counts := tr.Counts()
	for _, kind := range []string{trace.KindDIClose, trace.KindDIRetire, trace.KindFDShrink} {
		if counts[kind].Count == 0 {
			t.Errorf("DI-FD workload emitted no %s events (counts %v)", kind, counts)
		}
	}
}

// TestTraceSamplersEmitEvictions checks SWR (with an EH norm tracker,
// so eh_merge rides along) and SWOR both emit sampler_evict.
func TestTraceSamplersEmitEvictions(t *testing.T) {
	tr := trace.New(1 << 12)
	tr.Enable()

	swr := NewSWR(window.Seq(100), 4, 8, 7)
	swr.SetNormTracker(window.NewEHNorms(window.Seq(100), 0.1))
	swr.SetTracer(tr)
	for i, r := range traceRows(600, 8, 3) {
		swr.Update(r, float64(i))
	}
	counts := tr.Counts()
	if counts[trace.KindSamplerEvict].Count == 0 {
		t.Errorf("SWR emitted no sampler_evict events (counts %v)", counts)
	}
	if counts[trace.KindEHMerge].Count == 0 {
		t.Errorf("SWR's EH tracker emitted no eh_merge events (counts %v)", counts)
	}

	tr2 := trace.New(1 << 12)
	tr2.Enable()
	swor := NewSWOR(window.Seq(100), 4, 8, 11)
	swor.SetTracer(tr2)
	for i, r := range traceRows(600, 8, 4) {
		swor.Update(r, float64(i))
	}
	if tr2.Counts()[trace.KindSamplerEvict].Count == 0 {
		t.Errorf("SWOR emitted no sampler_evict events (counts %v)", tr2.Counts())
	}
}

// TestTraceSnapshotRestore checks snapshot/restore events fire and the
// tracer survives UnmarshalBinary's wholesale state replacement.
func TestTraceSnapshotRestore(t *testing.T) {
	tr := trace.New(1 << 10)
	tr.Enable()
	lm := NewLMFD(window.Seq(100), 4, 8, 2)
	lm.SetTracer(tr)
	for i, r := range traceRows(150, 4, 5) {
		lm.Update(r, float64(i))
	}
	blob, err := lm.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := lm.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	counts := tr.Counts()
	if counts[trace.KindSnapshot].Count == 0 || counts[trace.KindRestore].Count == 0 {
		t.Fatalf("snapshot/restore events missing (counts %v)", counts)
	}
	// The tracer must keep working after restore.
	before := tr.Total()
	for i := 150; i < 400; i++ {
		lm.Update(traceRows(1, 4, int64(i))[0], float64(i))
	}
	if tr.Total() == before {
		t.Fatal("tracer lost after restore: no events from post-restore ingest")
	}
}

// TestTraceAttachedAfterDecode checks that SetTracer reaches the
// blocks a snapshot brought: a sketch decoded and then traced counts
// the same shrinks under further ingest as the traced sketch the
// snapshot came from.
func TestTraceAttachedAfterDecode(t *testing.T) {
	ref, attached := trace.New(1<<12), trace.New(1<<12)
	ref.Enable()
	attached.Enable()
	src := NewLMFD(window.Seq(1000), 4, 8, 2)
	src.SetTracer(ref)
	for i, r := range traceRows(150, 4, 5) {
		src.Update(r, float64(i))
	}
	blob, err := src.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	decoded := NewLMFD(window.Seq(1000), 4, 8, 2)
	if err := decoded.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	decoded.SetTracer(attached)
	before := ref.Counts()[trace.KindFDShrink].Count
	for i := 150; i < 400; i++ {
		r := traceRows(1, 4, int64(i))[0]
		src.Update(r, float64(i))
		decoded.Update(r, float64(i))
	}
	want, got := ref.Counts()[trace.KindFDShrink].Count-before, attached.Counts()[trace.KindFDShrink].Count
	if want == 0 || got != want {
		t.Fatalf("fd_shrink events after the snapshot: %d from its source, %d from the decoded sketch", want, got)
	}
}

// TestTraceDisabledSketchesMatch verifies tracing does not perturb
// sketch behaviour: with a nil tracer and a disabled tracer, identical
// streams produce identical query answers.
func TestTraceDisabledSketchesMatch(t *testing.T) {
	rows := traceRows(500, 6, 9)
	a := NewLMFD(window.Seq(120), 6, 12, 3)
	b := NewLMFD(window.Seq(120), 6, 12, 3)
	b.SetTracer(trace.New(64)) // attached but disabled
	for i, r := range rows {
		a.Update(r, float64(i))
		b.Update(r, float64(i))
	}
	qa, qb := a.Query(499), b.Query(499)
	if qa.Rows() != qb.Rows() || qa.Cols() != qb.Cols() {
		t.Fatalf("shape diverged: %dx%d vs %dx%d", qa.Rows(), qa.Cols(), qb.Rows(), qb.Cols())
	}
	da, db := qa.Data(), qb.Data()
	for i := range da {
		if da[i] != db[i] {
			t.Fatalf("answer diverged at %d: %v vs %v", i, da[i], db[i])
		}
	}
}
