package core

import (
	"bytes"
	"math/rand"
	"testing"

	"swsketch/internal/window"
)

// snapshotRoundTrip marshals, unmarshals into a fresh value, and
// verifies the restored sketch answers identically (for deterministic
// sketches) or structurally consistently (for samplers).
func TestSWRSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	spec := window.Seq(100)
	s := NewSWR(spec, 10, 4, 2)
	for i := 0; i < 400; i++ {
		s.Update(randRow(rng, 4), float64(i))
	}
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var restored SWR
	if err := restored.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	// The retained sample is part of the snapshot: answers at the
	// snapshot time must be identical.
	b1, b2 := s.Query(399), restored.Query(399)
	if !b1.Equal(b2, 0) {
		t.Fatal("restored SWR answers differently at the snapshot time")
	}
	if restored.RowsStored() != s.RowsStored() {
		t.Fatalf("candidate counts differ: %d vs %d", restored.RowsStored(), s.RowsStored())
	}
	// The restored sketch must keep working.
	for i := 400; i < 600; i++ {
		restored.Update(randRow(rng, 4), float64(i))
	}
	if restored.Query(599).Rows() == 0 {
		t.Fatal("restored SWR stopped answering")
	}
}

func TestSWORSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	spec := window.TimeSpan(50)
	s := NewSWORAll(spec, 8, 3, 3)
	tt := 0.0
	for i := 0; i < 300; i++ {
		tt += rng.ExpFloat64()
		s.Update(randRow(rng, 3), tt)
	}
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var restored SWOR
	if err := restored.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if restored.Name() != "SWOR-ALL" {
		t.Fatalf("flags lost: name = %s", restored.Name())
	}
	if !s.Query(tt).Equal(restored.Query(tt), 0) {
		t.Fatal("restored SWOR answers differently at the snapshot time")
	}
	for i := 0; i < 100; i++ {
		tt += rng.ExpFloat64()
		restored.Update(randRow(rng, 3), tt)
	}
}

func TestLMFDSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	spec := window.Seq(300)
	l := NewLMFD(spec, 5, 16, 4)
	rows := make([][]float64, 1500)
	for i := range rows {
		rows[i] = randRow(rng, 5)
		l.Update(rows[i], float64(i))
	}
	data, err := l.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var restored LM
	if err := restored.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	// LM-FD is deterministic: answers must match bit for bit, now and
	// after identical further updates (which run the original's block
	// free list against the restored copy's empty one), and so must the
	// next snapshots.
	if !sameMatrixBits(l.Query(1499), restored.Query(1499)) {
		t.Fatal("restored LM-FD answers differently at the snapshot time")
	}
	for i := 1500; i < 2200; i++ {
		row := randRow(rng, 5)
		l.Update(row, float64(i))
		restored.Update(row, float64(i))
	}
	if !sameMatrixBits(l.Query(2199), restored.Query(2199)) {
		t.Fatal("restored LM-FD diverged after further identical updates")
	}
	if restored.RowsStored() != l.RowsStored() {
		t.Fatalf("rows stored diverged: %d vs %d", restored.RowsStored(), l.RowsStored())
	}
	a, _ := l.MarshalBinary()
	b, _ := restored.MarshalBinary()
	if !bytes.Equal(a, b) {
		t.Fatal("restored LM-FD re-marshals differently after further identical updates")
	}
}

func TestLMSnapshotRejectsNonFD(t *testing.T) {
	l := NewLMHash(window.Seq(10), 2, 16, 4, 1)
	if _, err := l.MarshalBinary(); err == nil {
		t.Fatal("expected error for LM-HASH snapshot")
	}
}

func TestSnapshotRejectsGarbage(t *testing.T) {
	garbage := [][]byte{
		nil,
		{1, 2, 3},
		make([]byte, 64), // zero magic
	}
	for _, g := range garbage {
		var swr SWR
		if err := swr.UnmarshalBinary(g); err == nil {
			t.Fatalf("SWR accepted garbage %v", g)
		}
		var swor SWOR
		if err := swor.UnmarshalBinary(g); err == nil {
			t.Fatalf("SWOR accepted garbage %v", g)
		}
		var lm LM
		if err := lm.UnmarshalBinary(g); err == nil {
			t.Fatalf("LM accepted garbage %v", g)
		}
	}
}

func TestSnapshotRejectsCrossTypeData(t *testing.T) {
	s := NewSWR(window.Seq(10), 2, 2, 1)
	s.Update([]float64{1, 1}, 0)
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var lm LM
	if err := lm.UnmarshalBinary(data); err == nil {
		t.Fatal("LM accepted an SWR snapshot")
	}
	var swor SWOR
	if err := swor.UnmarshalBinary(data); err == nil {
		t.Fatal("SWOR accepted an SWR snapshot")
	}
}

func TestSnapshotRejectsTruncation(t *testing.T) {
	l := NewLMFD(window.Seq(50), 3, 8, 4)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 200; i++ {
		l.Update(randRow(rng, 3), float64(i))
	}
	data, err := l.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{1, len(data) / 2, len(data) - 1} {
		var restored LM
		if err := restored.UnmarshalBinary(data[:cut]); err == nil {
			t.Fatalf("accepted snapshot truncated to %d bytes", cut)
		}
	}
	// Trailing garbage must also be rejected.
	var restored LM
	if err := restored.UnmarshalBinary(append(append([]byte{}, data...), 0xFF)); err == nil {
		t.Fatal("accepted snapshot with trailing bytes")
	}
}

func TestSWRSnapshotRequiresExactNorms(t *testing.T) {
	s := NewSWR(window.Seq(10), 2, 2, 1)
	s.SetNormTracker(window.NewEHNorms(window.Seq(10), 0.1))
	if _, err := s.MarshalBinary(); err == nil {
		t.Fatal("expected error for EH-tracked SWR snapshot")
	}
}
