package binenc

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRoundTripPrimitives(t *testing.T) {
	var w Writer
	w.Uvarint(0)
	w.Uvarint(math.MaxUint64)
	w.Varint(-12345)
	w.Varint(12345)
	w.Bool(true)
	w.Bool(false)
	w.Bytes([]byte("hello"))
	w.Bytes(nil)
	w.Uints([]uint64{1, 2, 3, 1 << 60})

	r := Reader{Buf: w.Buf}
	if r.Uvarint() != 0 || r.Uvarint() != math.MaxUint64 {
		t.Fatal("uvarint roundtrip")
	}
	if r.Varint() != -12345 || r.Varint() != 12345 {
		t.Fatal("varint roundtrip")
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("bool roundtrip")
	}
	if string(r.BytesView()) != "hello" || len(r.BytesView()) != 0 {
		t.Fatal("bytes roundtrip")
	}
	got := r.Uints(10)
	if len(got) != 4 || got[3] != 1<<60 {
		t.Fatalf("uints roundtrip: %v", got)
	}
	if r.Err() != nil {
		t.Fatalf("unexpected error: %v", r.Err())
	}
	if len(r.Buf) != 0 {
		t.Fatalf("%d bytes left over", len(r.Buf))
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(u uint64, v int64, b bool, bs []byte) bool {
		var w Writer
		w.Uvarint(u)
		w.Varint(v)
		w.Bool(b)
		w.Bytes(bs)
		r := Reader{Buf: w.Buf}
		gu, gv, gb, gbs := r.Uvarint(), r.Varint(), r.Bool(), r.BytesView()
		return r.Err() == nil && gu == u && gv == v && gb == b && string(gbs) == string(bs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTruncationDetected(t *testing.T) {
	var w Writer
	w.Uvarint(300)
	w.Bytes([]byte("abcdef"))
	for cut := 0; cut < len(w.Buf); cut++ {
		r := Reader{Buf: w.Buf[:cut]}
		r.Uvarint()
		r.BytesView()
		if r.Err() == nil {
			t.Errorf("truncation at %d not detected", cut)
		}
	}
}

func TestStickyError(t *testing.T) {
	r := Reader{Buf: nil}
	r.Uvarint() // fails
	if r.Err() == nil {
		t.Fatal("expected error")
	}
	// Subsequent reads return zero values, error unchanged.
	if r.Uvarint() != 0 || r.Varint() != 0 || r.Bool() || r.BytesView() != nil {
		t.Fatal("reads after error should be inert")
	}
}

func TestUintsBound(t *testing.T) {
	var w Writer
	w.Uvarint(1 << 40) // absurd length header
	r := Reader{Buf: w.Buf}
	if r.Uints(1000) != nil || r.Err() == nil {
		t.Fatal("oversized length must be rejected")
	}
}

func TestBadBoolByte(t *testing.T) {
	r := Reader{Buf: []byte{7}}
	r.Bool()
	if r.Err() == nil {
		t.Fatal("byte 7 is not a bool")
	}
}

func TestExpect(t *testing.T) {
	var w Writer
	w.Uvarint(42)
	r := Reader{Buf: w.Buf}
	r.Expect(42, "magic")
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	r2 := Reader{Buf: w.Buf}
	r2.Expect(43, "magic")
	if r2.Err() == nil {
		t.Fatal("wrong magic must error")
	}
}

// TestFrameMatchesBytes: a frame encoded in place is byte-identical to
// Bytes of the same body, for bodies whose length prefix takes one,
// two and three bytes.
func TestFrameMatchesBytes(t *testing.T) {
	for _, n := range []int{0, 1, 127, 128, 300, 20000} {
		body := make([]byte, n)
		for i := range body {
			body[i] = byte(i * 7)
		}
		var want, got Writer
		want.Uvarint(99)
		want.Bytes(body)
		got.Uvarint(99)
		got.Frame(func(b []byte) []byte { return append(b, body...) })
		if string(got.Buf) != string(want.Buf) {
			t.Fatalf("%d-byte body: Frame and Bytes encode differently", n)
		}
	}
}

// TestUvarintsView: the view of a Uints run of one-byte values is the
// values; a wrong count, a value above max, a multi-byte value and a
// truncated run are sticky ErrCorrupt.
func TestUvarintsView(t *testing.T) {
	vals := []uint64{0, 5, 63, 1, 0}
	var w Writer
	w.Uints(vals)
	w.Uvarint(7)
	r := Reader{Buf: w.Buf}
	run := r.UvarintsView(len(vals), 63)
	if r.Err() != nil || string(run) != "\x00\x05\x3f\x01\x00" || r.Uvarint() != 7 {
		t.Fatalf("one-byte run: %v %q", r.Err(), run)
	}

	for name, c := range map[string]struct {
		buf []byte
		n   int
		max uint64
	}{
		"count above n":  {[]byte{3, 1, 1, 1}, 2, 63},
		"count below n":  {[]byte{1, 1}, 2, 63},
		"value over max": {[]byte{2, 1, 64}, 2, 63},
		"multi-byte":     {[]byte{1, 0xac, 0x02}, 1, 299},
		"over-long":      {[]byte{1, 0x81, 0x00}, 1, 63},
		"truncated":      {[]byte{3, 1, 1}, 3, 63},
	} {
		r := Reader{Buf: c.buf}
		if run := r.UvarintsView(c.n, c.max); run != nil || r.Err() == nil {
			t.Errorf("%s: accepted", name)
		}
		if r.Uvarint() != 0 {
			t.Errorf("%s: reads after the error are not inert", name)
		}
	}
}
