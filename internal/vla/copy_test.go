package vla

import (
	"math/rand"
	"testing"
)

// randomArray fills an n-entry array with values of every length, a
// third of them zero, as a counter array holds.
func randomArray(rng *rand.Rand, n int) (*Array, []uint64) {
	a := New(n)
	vals := make([]uint64, n)
	for i := range vals {
		if rng.Intn(3) > 0 {
			vals[i] = rng.Uint64() >> uint(4+rng.Intn(60))
		}
		a.Write(i, vals[i])
	}
	return a, vals
}

func checkEntries(t *testing.T, what string, a *Array, want []uint64) {
	t.Helper()
	for i, v := range want {
		if got := a.Read(i); got != v {
			t.Fatalf("%s: entry %d = %d, want %d", what, i, got, v)
		}
	}
	got := make([]uint64, len(want))
	a.DecodeRange(0, got)
	for i, v := range want {
		if got[i] != v {
			t.Fatalf("%s: decoded entry %d = %d, want %d", what, i, got[i], v)
		}
	}
}

// TestCopyFrom: a copy reads like its source, into a fresh array and
// over one holding other values, and writes to either side stay on
// that side.
func TestCopyFrom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	src, vals := randomArray(rng, 512)
	dst := New(512)
	dst.CopyFrom(src)
	checkEntries(t, "fresh copy", dst, vals)
	if dst.PayloadBits() != src.PayloadBits() || dst.SpaceBits() != src.SpaceBits() {
		t.Fatalf("copy accounts %d/%d bits, source %d/%d",
			dst.PayloadBits(), dst.SpaceBits(), src.PayloadBits(), src.SpaceBits())
	}
	for i := 0; i < 512; i += 7 {
		dst.Write(i, uint64(i)<<30)
	}
	checkEntries(t, "source after writes to the copy", src, vals)

	used, _ := randomArray(rng, 512)
	used.CopyFrom(src)
	checkEntries(t, "copy over a used array", used, vals)
	src.Write(3, 1<<59)
	checkEntries(t, "copy after writes to the source", used, vals)

	defer func() {
		if recover() == nil {
			t.Fatal("copy between different lengths did not panic")
		}
	}()
	New(16).CopyFrom(src)
}

// TestLoad: Load over a used array sets exactly the given values, in
// one payload allocation and the payload EncodeRange would pack, and
// the result takes further writes.
func TestLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a, _ := randomArray(rng, 256)
	small := make([]byte, 256)
	vals := make([]uint64, 256)
	for i := range small {
		if rng.Intn(3) > 0 {
			small[i] = byte(rng.Intn(66))
		}
		vals[i] = uint64(small[i])
	}
	Load(a, small)
	checkEntries(t, "loaded", a, vals)
	want := New(256)
	want.EncodeRange(0, vals)
	if a.PayloadBits() != want.PayloadBits() {
		t.Fatalf("loaded payload %d bits, EncodeRange %d", a.PayloadBits(), want.PayloadBits())
	}
	for i := 0; i < 256; i += 5 {
		vals[i] = uint64(i) << 20
		a.Write(i, vals[i])
	}
	checkEntries(t, "loaded then written", a, vals)
	if allocs := testing.AllocsPerRun(10, func() { Load(a, small) }); allocs > 1 {
		t.Errorf("Load allocated %.0f times, want one payload allocation", allocs)
	}
	if got := New(256).SpaceBits(); EmptyBits(256) != got {
		t.Errorf("EmptyBits(256) = %d, an empty array accounts %d", EmptyBits(256), got)
	}
}
