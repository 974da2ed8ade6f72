package bitutil

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLSBBasics(t *testing.T) {
	cases := []struct {
		x    uint64
		logN uint
		want uint
	}{
		{0, 32, 32}, // paper convention: lsb(0) = log n
		{0, 20, 20},
		{1, 32, 0},
		{2, 32, 1},
		{6, 32, 1}, // paper's worked example: lsb(6) = 1
		{8, 32, 3},
		{1 << 31, 32, 31},
		{1 << 63, 32, 63},
		{0xF0, 32, 4},
	}
	for _, c := range cases {
		if got := LSB(c.x, c.logN); got != c.want {
			t.Errorf("LSB(%#x, %d) = %d, want %d", c.x, c.logN, got, c.want)
		}
	}
}

func TestLSBGeometricDistribution(t *testing.T) {
	// For uniform x, Pr[LSB(x)=s] = 2^{-(s+1)}: the subsampling property
	// the paper's level assignment relies on.
	rng := rand.New(rand.NewSource(1))
	const trials = 1 << 20
	counts := make([]int, 8)
	for i := 0; i < trials; i++ {
		s := LSB(rng.Uint64()|1<<40, 41) // ensure nonzero below bit 41
		if s < 8 {
			counts[s]++
		}
	}
	for s := 0; s < 8; s++ {
		want := float64(trials) / float64(uint64(2)<<uint(s))
		got := float64(counts[s])
		if got < 0.9*want || got > 1.1*want {
			t.Errorf("LSB level %d: got %v hits, want about %v", s, got, want)
		}
	}
}

func TestMSB(t *testing.T) {
	cases := []struct {
		x    uint64
		want uint
	}{
		{0, 0}, {1, 0}, {2, 1}, {3, 1}, {4, 2}, {255, 7}, {256, 8},
		{1<<63 - 1, 62}, {1 << 63, 63},
	}
	for _, c := range cases {
		if got := MSB(c.x); got != c.want {
			t.Errorf("MSB(%d) = %d, want %d", c.x, got, c.want)
		}
	}
}

func TestCeilLog2(t *testing.T) {
	cases := []struct {
		x    uint64
		want uint
	}{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4},
		{1 << 40, 40}, {1<<40 + 1, 41},
	}
	for _, c := range cases {
		if got := CeilLog2(c.x); got != c.want {
			t.Errorf("CeilLog2(%d) = %d, want %d", c.x, got, c.want)
		}
	}
}

func TestCeilFloorLogRelation(t *testing.T) {
	// Property: for x >= 2, FloorLog2(x) <= CeilLog2(x) <= FloorLog2(x)+1,
	// with equality on the left exactly for powers of two.
	f := func(x uint64) bool {
		if x < 2 {
			return true
		}
		fl, cl := FloorLog2(x), CeilLog2(x)
		if IsPow2(x) {
			return fl == cl
		}
		return cl == fl+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNextPow2(t *testing.T) {
	cases := []struct{ x, want uint64 }{
		{0, 1}, {1, 1}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {1000, 1024},
		{1 << 62, 1 << 62}, {1<<62 + 1, 1 << 63},
	}
	for _, c := range cases {
		if got := NextPow2(c.x); got != c.want {
			t.Errorf("NextPow2(%d) = %d, want %d", c.x, got, c.want)
		}
	}
}

func TestNextPow2Property(t *testing.T) {
	f := func(x uint64) bool {
		x %= 1 << 62
		p := NextPow2(x)
		return IsPow2(p) && p >= x && (p == 1 || p/2 < x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNextPow2PanicsOnOverflow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NextPow2(1<<63+1) should panic")
		}
	}()
	NextPow2(1<<63 + 1)
}

func TestPow2AndMask(t *testing.T) {
	for k := uint(0); k < 64; k++ {
		if Pow2(k) != uint64(1)<<k {
			t.Fatalf("Pow2(%d) wrong", k)
		}
		if Mask(k) != uint64(1)<<k-1 {
			t.Fatalf("Mask(%d) wrong", k)
		}
	}
	if Mask(64) != ^uint64(0) {
		t.Error("Mask(64) should be all ones")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Pow2(64) should panic")
		}
	}()
	Pow2(64)
}

func TestBitVectorBasic(t *testing.T) {
	b := NewBitVector(130)
	if b.Len() != 130 || b.Count() != 0 {
		t.Fatal("fresh vector should be empty")
	}
	b.Set(0)
	b.Set(64)
	b.Set(129)
	b.Set(129) // idempotent
	if b.Count() != 3 {
		t.Fatalf("Count = %d, want 3", b.Count())
	}
	if !b.Get(0) || !b.Get(64) || !b.Get(129) || b.Get(1) {
		t.Fatal("Get disagrees with Set")
	}
	b.Clear(64)
	b.Clear(64) // idempotent
	if b.Count() != 2 || b.Get(64) {
		t.Fatal("Clear failed")
	}
	b.Reset()
	if b.Count() != 0 || b.Get(0) {
		t.Fatal("Reset failed")
	}
}

func TestBitVectorCountMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	b := NewBitVector(777)
	model := make(map[int]bool)
	for op := 0; op < 20000; op++ {
		i := rng.Intn(777)
		if rng.Intn(2) == 0 {
			b.Set(i)
			model[i] = true
		} else {
			b.Clear(i)
			delete(model, i)
		}
		if op%997 == 0 && b.Count() != len(model) {
			t.Fatalf("op %d: Count=%d model=%d", op, b.Count(), len(model))
		}
	}
	if b.Count() != len(model) {
		t.Fatalf("final Count=%d model=%d", b.Count(), len(model))
	}
}

func TestBitVectorOr(t *testing.T) {
	a := NewBitVector(200)
	b := NewBitVector(200)
	a.Set(1)
	a.Set(100)
	b.Set(100)
	b.Set(199)
	a.Or(b)
	if a.Count() != 3 || !a.Get(1) || !a.Get(100) || !a.Get(199) {
		t.Fatal("Or merged incorrectly")
	}
}

func TestBitVectorOrLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Or with mismatched lengths should panic")
		}
	}()
	NewBitVector(10).Or(NewBitVector(11))
}

func TestBitVectorClone(t *testing.T) {
	a := NewBitVector(100)
	a.Set(7)
	c := a.Clone()
	c.Set(8)
	if a.Get(8) || !c.Get(7) || c.Count() != 2 || a.Count() != 1 {
		t.Fatal("Clone is not independent")
	}
}

// TestBitVectorLoad: loading packed words matches setting their bits
// one at a time, and bits past Len in the tail word are dropped.
func TestBitVectorLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 63, 64, 100, 128, 200} {
		words := make([]uint64, (n+63)/64)
		for i := range words {
			words[i] = rng.Uint64()
		}
		want := NewBitVector(n)
		for i := 0; i < n; i++ {
			if words[i>>6]&(1<<(uint(i)&63)) != 0 {
				want.Set(i)
			}
		}
		got := NewBitVector(n)
		got.Set(0) // Load replaces, not ORs
		got.Load(words)
		if got.Count() != want.Count() {
			t.Errorf("n=%d: Count %d, per-bit Set gives %d", n, got.Count(), want.Count())
		}
		for i, w := range got.Words() {
			if w != want.Words()[i] {
				t.Errorf("n=%d: word %d = %#x, per-bit Set gives %#x", n, i, w, want.Words()[i])
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Load of the wrong word count did not panic")
		}
	}()
	NewBitVector(64).Load(make([]uint64, 2))
}

// TestBitVectorFill: filling matches setting every bit one at a time,
// and leaves the bits past Len in the tail word clear.
func TestBitVectorFill(t *testing.T) {
	for _, n := range []int{1, 63, 64, 100, 128} {
		want := NewBitVector(n)
		for i := 0; i < n; i++ {
			want.Set(i)
		}
		got := NewBitVector(n)
		got.Set(n / 2)
		got.Fill()
		if got.Count() != n {
			t.Errorf("n=%d: Count %d after Fill", n, got.Count())
		}
		for i, w := range got.Words() {
			if w != want.Words()[i] {
				t.Errorf("n=%d: word %d = %#x, per-bit Set gives %#x", n, i, w, want.Words()[i])
			}
		}
	}
}

func TestBitVectorOutOfRangePanics(t *testing.T) {
	b := NewBitVector(10)
	for _, f := range []func(){
		func() { b.Get(10) },
		func() { b.Set(-1) },
		func() { b.Clear(11) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic on out-of-range access")
				}
			}()
			f()
		}()
	}
}

func TestBitVectorSpaceBits(t *testing.T) {
	if got := NewBitVector(1).SpaceBits(); got != 64 {
		t.Errorf("SpaceBits(1 bit) = %d, want 64", got)
	}
	if got := NewBitVector(128).SpaceBits(); got != 128 {
		t.Errorf("SpaceBits(128 bits) = %d, want 128", got)
	}
}

func BenchmarkLSB(b *testing.B) {
	x := uint64(0xdeadbeefcafe)
	var s uint
	for i := 0; i < b.N; i++ {
		s += LSB(x+uint64(i), 64)
	}
	_ = s
}

func BenchmarkBitVectorSet(b *testing.B) {
	v := NewBitVector(1 << 16)
	for i := 0; i < b.N; i++ {
		v.Set(i & (1<<16 - 1))
	}
}
