package vla

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestZeroFresh(t *testing.T) {
	a := New(100)
	if a.Len() != 100 {
		t.Fatalf("Len=%d", a.Len())
	}
	for i := 0; i < 100; i++ {
		if a.Read(i) != 0 {
			t.Fatalf("fresh entry %d nonzero", i)
		}
	}
	if a.PayloadBits() != 0 {
		t.Errorf("fresh PayloadBits=%d want 0", a.PayloadBits())
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	a := New(64)
	vals := []uint64{0, 1, 2, 15, 16, 255, 256, 1<<20 - 1, 1 << 40, 1<<60 - 1}
	for i, v := range vals {
		a.Write(i, v)
	}
	for i, v := range vals {
		if got := a.Read(i); got != v {
			t.Errorf("Read(%d)=%d want %d", i, got, v)
		}
	}
}

func TestOverwriteShrinkGrow(t *testing.T) {
	a := New(16)
	a.Write(5, 1<<50)
	a.Write(5, 3) // shrink
	if a.Read(5) != 3 {
		t.Fatal("shrink lost value")
	}
	a.Write(5, 1<<59) // grow
	if a.Read(5) != 1<<59 {
		t.Fatal("grow lost value")
	}
	a.Write(5, 0) // to zero: zero payload
	if a.Read(5) != 0 {
		t.Fatal("zeroing failed")
	}
}

func TestNeighborsUndisturbed(t *testing.T) {
	// Writes that change an entry's length shift its block-mates'
	// positions; their values must survive the repack.
	a := New(32)
	for i := 0; i < 32; i++ {
		a.Write(i, uint64(i)*7+1)
	}
	a.Write(7, 1<<55) // force a large repack in block 0
	a.Write(20, 0)    // and a shrink in block 1
	for i := 0; i < 32; i++ {
		want := uint64(i)*7 + 1
		if i == 7 {
			want = 1 << 55
		}
		if i == 20 {
			want = 0
		}
		if got := a.Read(i); got != want {
			t.Errorf("entry %d: got %d want %d", i, got, want)
		}
	}
}

func TestAgainstSliceModel(t *testing.T) {
	// Randomized differential test against a plain []uint64.
	rng := rand.New(rand.NewSource(20))
	const n = 500
	a := New(n)
	model := make([]uint64, n)
	for op := 0; op < 100000; op++ {
		i := rng.Intn(n)
		if rng.Intn(3) > 0 {
			v := rng.Uint64() >> uint(rng.Intn(64)+4) // varied magnitudes, < 2^60
			a.Write(i, v)
			model[i] = v
		} else if got := a.Read(i); got != model[i] {
			t.Fatalf("op %d: Read(%d)=%d model=%d", op, i, got, model[i])
		}
	}
	for i := 0; i < n; i++ {
		if a.Read(i) != model[i] {
			t.Fatalf("final mismatch at %d", i)
		}
	}
}

func TestQuickRoundTrip(t *testing.T) {
	a := New(1000)
	f := func(idx uint16, v uint64) bool {
		i := int(idx) % 1000
		v >>= 4 // keep < 2^60
		a.Write(i, v)
		return a.Read(i) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

func TestPayloadBitsAccounting(t *testing.T) {
	a := New(16)
	if a.PayloadBits() != 0 {
		t.Fatal("empty array has payload")
	}
	a.Write(0, 1) // 1 granule = 4 bits
	if a.PayloadBits() != 4 {
		t.Errorf("PayloadBits=%d want 4", a.PayloadBits())
	}
	a.Write(1, 255) // 2 granules = 8 bits
	if a.PayloadBits() != 12 {
		t.Errorf("PayloadBits=%d want 12", a.PayloadBits())
	}
	a.Write(0, 0) // back to zero
	if a.PayloadBits() != 8 {
		t.Errorf("PayloadBits=%d want 8", a.PayloadBits())
	}
}

func TestSpaceBitsStaysCompactForSmallValues(t *testing.T) {
	// The whole point (Theorem 8 + Figure 3): K counters holding small
	// offsets must take O(K) bits, not O(K·log n). With every entry < 16
	// (one granule) the payload is 4 bits/entry and overhead is
	// 64 bits per 16-entry block: ~8 bits/entry total.
	const n = 1 << 12
	a := New(n)
	for i := 0; i < n; i++ {
		a.Write(i, uint64(i%15)+1)
	}
	if got, lim := a.SpaceBits(), 10*n; got > lim {
		t.Errorf("SpaceBits=%d exceeds %d (not compact)", got, lim)
	}
}

func TestReset(t *testing.T) {
	a := New(40)
	for i := 0; i < 40; i++ {
		a.Write(i, 1<<30+uint64(i))
	}
	a.Reset()
	for i := 0; i < 40; i++ {
		if a.Read(i) != 0 {
			t.Fatalf("Reset left entry %d", i)
		}
	}
	if a.PayloadBits() != 0 {
		t.Error("Reset left payload bits")
	}
}

func TestBoundsPanics(t *testing.T) {
	a := New(4)
	for _, f := range []func(){
		func() { a.Read(4) },
		func() { a.Read(-1) },
		func() { a.Write(4, 1) },
		func() { a.Write(0, 1<<60) }, // value too wide
		func() { New(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

// TestRangeOps is a property test of the whole-block operations
// against the per-entry ones: DecodeRange equals Read entry by entry,
// EncodeRange then Read returns the input, ZeroRange clears, entries
// outside the range are untouched, and the footprint matches an array
// built by per-entry Writes of the same values.
func TestRangeOps(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const n = 8 * BlockSize
	value := func() uint64 {
		if rng.Intn(3) == 0 {
			return 0
		}
		return rng.Uint64() >> uint(4+rng.Intn(61)) // 0..60 bits
	}
	model := make([]uint64, n)
	a := New(n)
	check := func(what string) {
		t.Helper()
		ref := New(n)
		for i, v := range model {
			if got := a.Read(i); got != v {
				t.Fatalf("%s: entry %d = %d, want %d", what, i, got, v)
			}
			ref.Write(i, v)
		}
		if a.SpaceBits() != ref.SpaceBits() || a.PayloadBits() != ref.PayloadBits() {
			t.Fatalf("%s: space %d/%d bits, per-entry writes give %d/%d", what,
				a.SpaceBits(), a.PayloadBits(), ref.SpaceBits(), ref.PayloadBits())
		}
	}
	for trial := 0; trial < 300; trial++ {
		for i := 0; i < n/4; i++ {
			j := rng.Intn(n)
			model[j] = value()
			a.Write(j, model[j])
		}
		lo := rng.Intn(n/BlockSize) * BlockSize
		cnt := rng.Intn((n-lo)/BlockSize+1) * BlockSize

		got := make([]uint64, cnt)
		a.DecodeRange(lo, got)
		for j, v := range got {
			if v != a.Read(lo+j) {
				t.Fatalf("trial %d: DecodeRange entry %d = %d, Read = %d", trial, lo+j, v, a.Read(lo+j))
			}
		}

		src := make([]uint64, cnt)
		for j := range src {
			src[j] = value()
		}
		a.EncodeRange(lo, src)
		copy(model[lo:], src)
		check("EncodeRange")

		if rng.Intn(2) == 0 {
			a.ZeroRange(lo, cnt)
			clear(model[lo : lo+cnt])
			check("ZeroRange")
		}
	}

	for _, r := range [][2]int{{1, BlockSize}, {0, BlockSize - 1}, {BlockSize, n},
		{-BlockSize, BlockSize}, {n, BlockSize}} {
		for name, op := range map[string]func(){
			"DecodeRange": func() { a.DecodeRange(r[0], make([]uint64, r[1])) },
			"EncodeRange": func() { a.EncodeRange(r[0], make([]uint64, r[1])) },
			"ZeroRange":   func() { a.ZeroRange(r[0], r[1]) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s(%d, %d) accepted a range that is not whole blocks", name, r[0], r[1])
					}
				}()
				op()
			}()
		}
	}
}

func TestCodeFor(t *testing.T) {
	cases := []struct {
		v    uint64
		want uint64
	}{
		{0, 0}, {1, 1}, {15, 1}, {16, 2}, {255, 2}, {256, 3},
		{1<<59 | 1, 15}, {1<<60 - 1, 15},
	}
	for _, c := range cases {
		if got := codeFor(c.v); got != c.want {
			t.Errorf("codeFor(%d)=%d want %d", c.v, got, c.want)
		}
	}
}

func TestExtractDepositAcrossWordBoundary(t *testing.T) {
	data := make([]uint64, 3)
	depositBits(data, 60, 20, 0xABCDE)
	if got := extractBits(data, 60, 20); got != 0xABCDE {
		t.Fatalf("cross-boundary roundtrip: got %#x", got)
	}
	// Neighbors unaffected.
	depositBits(data, 0, 60, 0x123456789ABCDEF)
	depositBits(data, 80, 40, 0xFFFFFFFFFF)
	if got := extractBits(data, 60, 20); got != 0xABCDE {
		t.Fatalf("neighbor writes disturbed value: %#x", got)
	}
	if got := extractBits(data, 0, 60); got != 0x123456789ABCDEF {
		t.Fatalf("low field disturbed: %#x", got)
	}
}

func BenchmarkWriteSameLength(b *testing.B) {
	a := New(1 << 12)
	for i := 0; i < b.N; i++ {
		a.Write(i&(1<<12-1), uint64(i&7)+8) // constant length code
	}
}

func BenchmarkWriteVaryingLength(b *testing.B) {
	a := New(1 << 12)
	for i := 0; i < b.N; i++ {
		a.Write(i&(1<<12-1), uint64(i)&(1<<(uint(i)%48)-1))
	}
}

func BenchmarkRead(b *testing.B) {
	a := New(1 << 12)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1<<12; i++ {
		a.Write(i, rng.Uint64()>>10)
	}
	var s uint64
	for i := 0; i < b.N; i++ {
		s += a.Read(i & (1<<12 - 1))
	}
	_ = s
}
