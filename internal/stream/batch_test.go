package stream

import (
	"math/rand"
	"testing"

	"swsketch/internal/mat"
)

// TestUpdateBatchMatchesUpdate pins every streaming sketch's bulk
// ingest to row-at-a-time feeding with tolerance 0: FD and ISVD fill
// identical buffer runs between shrinks/truncations, and RP and Hash
// consume their randomness in the same order on both paths, so the
// answers must be bit-identical.
func TestUpdateBatchMatchesUpdate(t *testing.T) {
	const d = 7
	builders := map[string]func() Sketch{
		"FD":   func() Sketch { return NewFD(6, d) },
		"ISVD": func() Sketch { return NewISVD(4, d) },
		"RP":   func() Sketch { return NewRP(5, d, 3) },
		"Hash": func() Sketch { return NewHashFamily(9).NewSketch(5, d) },
	}
	for name, build := range builders {
		for _, batchLen := range []int{1, 2, 5, 17, 64} {
			rng := rand.New(rand.NewSource(21))
			rows := make([][]float64, 50)
			for i := range rows {
				rows[i] = randRow(rng, d)
			}
			byRow := build()
			for _, r := range rows {
				byRow.Update(r)
			}
			byBatch := build()
			for i := 0; i < len(rows); i += batchLen {
				j := i + batchLen
				if j > len(rows) {
					j = len(rows)
				}
				byBatch.UpdateBatch(rows[i:j])
			}
			if !byRow.Matrix().Equal(byBatch.Matrix(), 0) {
				t.Fatalf("%s: batch ingest (chunk %d) diverges from row-at-a-time", name, batchLen)
			}
			if byRow.RowsStored() != byBatch.RowsStored() {
				t.Fatalf("%s: RowsStored diverges: %d vs %d", name, byRow.RowsStored(), byBatch.RowsStored())
			}
		}
	}
}

// TestFDUpdateBatchValidatesUpFront asserts a bad row anywhere in the
// batch panics before any row is ingested (all-or-nothing).
func TestFDUpdateBatchValidatesUpFront(t *testing.T) {
	f := NewFD(4, 3)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic for short row")
			}
		}()
		f.UpdateBatch([][]float64{{1, 2, 3}, {1, 2}})
	}()
	if f.Used() != 0 {
		t.Fatalf("rejected batch left %d rows behind", f.Used())
	}
}

// TestFDMergeMatchesUpdates pins Merge (now routed through the bulk
// path) to feeding the other sketch's rows one at a time.
func TestFDMergeMatchesUpdates(t *testing.T) {
	const d = 6
	rng := rand.New(rand.NewSource(5))
	a := NewFD(5, d)
	b := NewFD(5, d)
	for i := 0; i < 23; i++ {
		a.Update(randRow(rng, d))
	}
	for i := 0; i < 17; i++ {
		b.Update(randRow(rng, d))
	}
	viaRows := NewFD(5, d)
	viaRows.Merge(a)
	want := mat.NewDense(0, 0)
	{
		m := b.Matrix()
		ref := NewFD(5, d)
		ref.Merge(a)
		for i := 0; i < m.Rows(); i++ {
			ref.Update(m.Row(i))
		}
		want = ref.Matrix()
	}
	viaRows.Merge(b)
	if !viaRows.Matrix().Equal(want, 0) {
		t.Fatal("Merge diverges from feeding the merged sketch's rows in order")
	}
}
