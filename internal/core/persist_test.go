package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"strings"
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

// clockOffset returns the offset of the first F64 in data that reads t
// and is followed by a true Bool: a snapshot's clock, when no field
// before it holds t.
func clockOffset(data []byte, t float64) int {
	var clock [9]byte
	binary.LittleEndian.PutUint64(clock[:], math.Float64bits(t))
	clock[8] = 1
	return bytes.Index(data, clock[:])
}

// TestSnapshotRejectsNonFiniteClock: every codec refuses a snapshot
// whose clock is patched to +Inf, −Inf or NaN, through binenc's one
// clock check. A sketch so restored would refuse every later row.
func TestSnapshotRejectsNonFiniteClock(t *testing.T) {
	const lastT = 77.25 // no field before the clock holds it
	spec := window.Seq(40)
	di := DIConfig{N: 40, R: 8, L: 3, Ell: 8}
	for _, build := range []func() TenantSketch{
		func() TenantSketch { return NewLMFD(spec, 3, 8, 4) },
		func() TenantSketch { return NewSWR(spec, 4, 3, 1) },
		func() TenantSketch { return NewSWOR(spec, 4, 3, 1) },
		func() TenantSketch { return NewDIFD(di, 3) },
		func() TenantSketch { return NewDSFD(DSFDConfig{N: 40, Ell: 4}, 3) },
		func() TenantSketch { return NewLMAMM(spec, 2, 1, 8, 4) },
		func() TenantSketch { return NewDIAMM(di, 2, 1) },
	} {
		sk := build()
		for i := 0; i < 30; i++ {
			row := make([]float64, 3)
			row[i%3] = 1.5
			sk.Update(row, float64(i))
		}
		sk.Update([]float64{0, 1.5, 0}, lastT)
		data, err := sk.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if err := build().UnmarshalBinary(data); err != nil {
			t.Fatalf("%s: %v", sk.Name(), err)
		}
		at := clockOffset(data, lastT)
		if at < 0 {
			t.Fatalf("%s: no clock at %v in the snapshot", sk.Name(), lastT)
		}
		for _, v := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
			bad := append([]byte(nil), data...)
			binary.LittleEndian.PutUint64(bad[at:], math.Float64bits(v))
			if err := build().UnmarshalBinary(bad); err == nil || !strings.Contains(err.Error(), "clock") {
				t.Errorf("%s: a snapshot whose clock reads %v decoded with error %v", sk.Name(), v, err)
			}
		}
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
