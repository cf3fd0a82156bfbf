package binenc

import (
	"math"
	"testing"
)

func TestRoundTripPrimitives(t *testing.T) {
	w := NewWriter()
	w.U64(42)
	w.Int(7)
	w.Bool(true)
	w.Bool(false)
	w.F64(3.25)
	w.F64(math.Inf(-1))
	w.F64s([]float64{1, 2, 3})
	w.F64s(nil)
	w.Blob([]byte("hello"))

	r := NewReader(w.Bytes())
	if r.U64() != 42 || r.Int() != 7 || !r.Bool() || r.Bool() {
		t.Fatal("primitive round trip failed")
	}
	if r.F64() != 3.25 || !math.IsInf(r.F64(), -1) {
		t.Fatal("float round trip failed")
	}
	s := r.F64s()
	if len(s) != 3 || s[2] != 3 {
		t.Fatalf("slice round trip: %v", s)
	}
	if len(r.F64s()) != 0 {
		t.Fatal("empty slice round trip failed")
	}
	if string(r.Blob()) != "hello" {
		t.Fatal("blob round trip failed")
	}
	if err := r.End(); err != nil {
		t.Fatal(err)
	}
}

func TestReaderErrorSticks(t *testing.T) {
	r := NewReader([]byte{1, 2}) // too short for U64
	_ = r.U64()
	if r.Err() == nil {
		t.Fatal("expected truncation error")
	}
	if r.U64() != 0 || r.F64() != 0 || r.Bool() || r.Int() != 0 {
		t.Fatal("reads after error should return zero values")
	}
	if r.F64s() != nil || r.Blob() != nil {
		t.Fatal("slice reads after error should return nil")
	}
}

func TestReaderRejectsImplausibleLengths(t *testing.T) {
	w := NewWriter()
	w.U64(1 << 40) // implausible length
	r := NewReader(w.Bytes())
	_ = r.Int()
	if r.Err() == nil {
		t.Fatal("expected implausible-length error")
	}

	w2 := NewWriter()
	w2.Int(100) // claims 100 floats, provides none
	r2 := NewReader(w2.Bytes())
	if r2.F64s() != nil || r2.Err() == nil {
		t.Fatal("expected slice-overrun error")
	}

	w3 := NewWriter()
	w3.Int(100)
	r3 := NewReader(w3.Bytes())
	if r3.Blob() != nil || r3.Err() == nil {
		t.Fatal("expected blob-overrun error")
	}
}

func TestU32AndOff(t *testing.T) {
	w := NewWriter()
	w.U32(0xDEADBEEF)
	w.U64(7)
	r := NewReader(w.Bytes())
	if r.Off() != 0 {
		t.Fatalf("initial offset %d", r.Off())
	}
	if r.U32() != 0xDEADBEEF {
		t.Fatal("u32 round trip failed")
	}
	if r.Off() != 4 {
		t.Fatalf("offset after u32: %d", r.Off())
	}
	if r.U64() != 7 || r.Err() != nil {
		t.Fatalf("u64 after u32: err=%v", r.Err())
	}

	short := NewReader([]byte{1, 2})
	_ = short.U32()
	if short.Err() == nil {
		t.Fatal("expected truncation error on short u32")
	}
}

// TestHostileLengthPrefixDoesNotAllocate pins the allocation-bomb
// hardening: a length prefix far beyond the buffer must fail before
// make() runs, keeping peak allocation proportional to the input, not
// the claimed length.
func TestHostileLengthPrefixDoesNotAllocate(t *testing.T) {
	// Claims MaxInt32 floats but carries 16 bytes of payload.
	w := NewWriter()
	w.Int(math.MaxInt32)
	w.F64(1)
	w.F64(2)
	data := w.Bytes()

	allocs := testing.AllocsPerRun(10, func() {
		r := NewReader(data)
		if r.F64s() != nil || r.Err() == nil {
			t.Fatal("hostile F64s prefix must fail")
		}
	})
	if allocs > 8 { // error construction only; never the 16 GiB slice
		t.Fatalf("hostile F64s allocated %v objects per run", allocs)
	}

	allocs = testing.AllocsPerRun(10, func() {
		r := NewReader(data)
		if r.Blob() != nil || r.Err() == nil {
			t.Fatal("hostile Blob prefix must fail")
		}
	})
	if allocs > 8 {
		t.Fatalf("hostile Blob allocated %v objects per run", allocs)
	}
}

func TestBadBool(t *testing.T) {
	r := NewReader([]byte{7})
	_ = r.Bool()
	if r.Err() == nil {
		t.Fatal("expected bad-bool error")
	}
}

// TestCountGuardsClaimedElements pins the shape guard: a count fits
// only when count × minimum element size fits in the unread bytes,
// and a failed guard sticks.
func TestCountGuardsClaimedElements(t *testing.T) {
	r := NewReader(make([]byte, 48))
	if n := r.Count(3, 16); n != 3 || r.Err() != nil {
		t.Fatalf("3 × 16 bytes in 48: got %d, %v", n, r.Err())
	}
	if n := r.Count(4, 16); n != 0 || r.Err() == nil {
		t.Fatalf("4 × 16 bytes in 48: got %d, %v", n, r.Err())
	}
	if n := r.Count(1, 1); n != 0 {
		t.Fatalf("guard on a failed reader returned %d", n)
	}
	r = NewReader(nil)
	if n := r.Count(math.MaxInt32, 1<<30); n != 0 || r.Err() == nil {
		t.Fatal("a huge claimed count must fail without overflow")
	}
}
