package knw

import (
	"fmt"
	"math"
	"testing"
)

func TestF0EndToEnd(t *testing.T) {
	sk := NewF0(WithEpsilon(0.1), WithSeed(1))
	const f0 = 300000
	for i := 0; i < f0; i++ {
		k := uint64(i) * 0x9e3779b97f4a7c15
		sk.Add(k)
		sk.Add(k) // duplicates are free
	}
	got := sk.Estimate()
	if rel := math.Abs(got-f0) / f0; rel > 0.1 {
		t.Errorf("estimate %v (rel %.3f > ε)", got, rel)
	}
}

func TestF0SmallCountsExact(t *testing.T) {
	sk := NewKeyed[string](NewF0(WithSeed(2)))
	for i := 0; i < 42; i++ {
		sk.Add(fmt.Sprintf("user-%d", i))
	}
	if got := sk.Estimate(); got != 42 {
		t.Errorf("small count not exact: %v", got)
	}
}

func TestF0StringsAndBytes(t *testing.T) {
	a := NewKeyed[string](NewF0(WithSeed(3)))
	b := NewKeyed[[]byte](NewF0(WithSeed(3)))
	a.Add("hello")
	b.Add([]byte("hello"))
	if a.Estimate() != b.Estimate() {
		t.Error("Keyed[string] and Keyed[[]byte] disagree")
	}
}

func TestF0DeterministicWithSeed(t *testing.T) {
	mk := func() float64 {
		sk := NewF0(WithSeed(4), WithEpsilon(0.2))
		for i := 0; i < 100000; i++ {
			sk.Add(uint64(i) * 2654435761)
		}
		return sk.Estimate()
	}
	if mk() != mk() {
		t.Error("same seed produced different estimates")
	}
}

func TestF0Merge(t *testing.T) {
	opts := []Option{WithSeed(5), WithEpsilon(0.1)}
	a, b, whole := NewF0(opts...), NewF0(opts...), NewF0(opts...)
	for i := 0; i < 200000; i++ {
		k := uint64(i) * 0x9e3779b97f4a7c15
		whole.Add(k)
		if i%2 == 0 {
			a.Add(k)
		} else {
			b.Add(k)
		}
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	got, want := a.Estimate(), whole.Estimate()
	if math.Abs(got-want)/want > 0.2 {
		t.Errorf("merged %v vs whole-stream %v", got, want)
	}
}

// TestF0MergeOverflowDeterministic: two sketches whose exact-key sets
// each fit under the exact cap but whose union does not must merge to
// the same bytes every time — the merged exact set may not depend on
// map iteration order.
func TestF0MergeOverflowDeterministic(t *testing.T) {
	opts := []Option{WithEpsilon(0.2), WithCopies(1), WithSeed(7)}
	merged := func() []byte {
		a, b := NewF0(opts...), NewF0(opts...)
		for i := uint64(0); i < 60; i++ {
			a.Add(i * 0x9e3779b97f4a7c15)
			b.Add((i + 1000) * 0x9e3779b97f4a7c15)
		}
		if err := a.Merge(b); err != nil {
			t.Fatal(err)
		}
		out, err := a.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	first := merged()
	for i := 1; i < 50; i++ {
		if got := merged(); string(got) != string(first) {
			t.Fatalf("merge %d marshaled to different bytes than merge 0", i)
		}
	}
}

func TestF0MergeConfigMismatch(t *testing.T) {
	a := NewF0(WithSeed(6))
	b := NewF0(WithSeed(7))
	if err := a.Merge(b); err == nil {
		t.Error("merging different seeds must fail")
	}
	c := NewF0(WithSeed(6), WithEpsilon(0.1))
	if err := a.Merge(c); err == nil {
		t.Error("merging different epsilons must fail")
	}
}

func TestF0ReferenceMode(t *testing.T) {
	sk := NewF0(WithReference(), WithSeed(8), WithEpsilon(0.2), WithCopies(1))
	for i := 0; i < 50000; i++ {
		sk.Add(uint64(i) * 2654435761)
	}
	if rel := math.Abs(sk.Estimate()-50000) / 50000; rel > 0.3 {
		t.Errorf("reference mode rel error %.3f", rel)
	}
	if sk.Name() != "KNW-F0(ref)" {
		t.Errorf("Name()=%q", sk.Name())
	}
}

func TestF0LnTableMode(t *testing.T) {
	sk := NewF0(WithLnTable(), WithSeed(9), WithEpsilon(0.2), WithCopies(1))
	for i := 0; i < 50000; i++ {
		sk.Add(uint64(i) * 2654435761)
	}
	if rel := math.Abs(sk.Estimate()-50000) / 50000; rel > 0.3 {
		t.Errorf("lntable mode rel error %.3f", rel)
	}
}

func TestF0CopiesFromDelta(t *testing.T) {
	few := NewF0(WithSeed(10), WithDelta(0.4))
	many := NewF0(WithSeed(10), WithDelta(0.001))
	if many.Copies() <= few.Copies() {
		t.Errorf("copies: δ=0.4 → %d, δ=0.001 → %d", few.Copies(), many.Copies())
	}
	if got := NewF0(WithSeed(10), WithCopies(7)).Copies(); got != 7 {
		t.Errorf("WithCopies(7) → %d", got)
	}
}

func TestF0SpaceBitsPositiveAndScales(t *testing.T) {
	small := NewF0(WithSeed(11), WithEpsilon(0.2), WithCopies(1)).SpaceBits()
	big := NewF0(WithSeed(11), WithEpsilon(0.02), WithCopies(1)).SpaceBits()
	if small <= 0 || big <= small {
		t.Errorf("space: ε=0.2 → %d, ε=0.02 → %d", small, big)
	}
}

func TestOptionValidation(t *testing.T) {
	for _, opt := range []Option{
		WithEpsilon(0), WithEpsilon(1), WithDelta(0), WithDelta(1),
		// NaN fails every comparison: admitted, it built sketches whose
		// own envelopes Open rejected and that never compared equal.
		WithEpsilon(math.NaN()), WithDelta(math.NaN()),
		WithCopies(0), WithUniverseBits(3), WithUniverseBits(63),
		WithUpdateBits(0), WithUpdateBits(63),
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic from invalid option")
				}
			}()
			NewF0(opt)
		}()
	}
}

func TestL0EndToEnd(t *testing.T) {
	sk := NewL0(WithEpsilon(0.1), WithSeed(12))
	const live = 50000
	keys := make([]uint64, live+20000)
	for i := range keys {
		keys[i] = uint64(i)*0x9e3779b97f4a7c15 + 1
		sk.Update(keys[i], 7)
	}
	for i := live; i < len(keys); i++ {
		sk.Update(keys[i], -7) // fully delete the extras
	}
	got := sk.Estimate()
	if rel := math.Abs(got-live) / live; rel > 0.15 {
		t.Errorf("L0 estimate %v (rel %.3f)", got, rel)
	}
}

func TestL0SmallExact(t *testing.T) {
	sk := NewL0(WithSeed(13))
	for i := 0; i < 70; i++ {
		sk.Update(uint64(i)+1, int64(i%5)-2) // some zero deltas: no-ops
	}
	// Keys with delta 0 (i%5==2) were never actually inserted.
	want := 0
	for i := 0; i < 70; i++ {
		if int64(i%5)-2 != 0 {
			want++
		}
	}
	if got := sk.Estimate(); got != float64(want) {
		t.Errorf("small L0: got %v want %d", got, want)
	}
}

func TestL0AddMatchesF0Semantics(t *testing.T) {
	sk := NewL0(WithSeed(14))
	for i := 0; i < 80; i++ {
		sk.Add(uint64(i) + 1)
		sk.Add(uint64(i) + 1) // duplicate inserts accumulate frequency 2
	}
	if got := sk.Estimate(); got != 80 {
		t.Errorf("L0 Add semantics: %v want 80", got)
	}
}

func TestL0MergeColumnDiff(t *testing.T) {
	// The data-cleaning pattern: column A as +1s, column B as −1s in a
	// second sketch, merged; the estimate is the symmetric difference.
	opts := []Option{WithSeed(15), WithEpsilon(0.1)}
	a, b := NewL0(opts...), NewL0(opts...)
	for i := 0; i < 30000; i++ {
		k := uint64(i)*0x9e3779b97f4a7c15 + 1
		a.Update(k, 1)
		if i < 29000 { // B misses the last 1000 rows
			b.Update(k, -1)
		}
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	got := a.Estimate()
	if math.Abs(got-1000)/1000 > 0.25 {
		t.Errorf("column diff %v want ~1000", got)
	}
}

func TestFnv1a(t *testing.T) {
	// Spot-check against the published FNV-1a test vector.
	if got := fnv1a([]byte("")); got != 14695981039346656037 {
		t.Errorf("fnv1a(\"\") = %d", got)
	}
	if fnv1a([]byte("a")) == fnv1a([]byte("b")) {
		t.Error("collision on trivial inputs")
	}
}

func BenchmarkF0Add(b *testing.B) {
	sk := NewF0(WithSeed(1), WithCopies(1))
	for i := 0; i < b.N; i++ {
		sk.Add(uint64(i) * 2654435761)
	}
}

func BenchmarkL0UpdatePublic(b *testing.B) {
	sk := NewL0(WithSeed(1), WithCopies(1))
	for i := 0; i < b.N; i++ {
		sk.Update(uint64(i)*2654435761, 1)
	}
}
