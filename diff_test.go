package knw

import (
	"errors"
	"math"
	"testing"
)

func TestHammingDiffBasic(t *testing.T) {
	opts := []Option{WithSeed(70), WithEpsilon(0.1), WithCopies(1)}
	a, b := NewL0(opts...), NewL0(opts...)
	// 50k shared keys with equal counts, 800 extra in a, 400 extra in b.
	for i := 0; i < 50_000; i++ {
		k := uint64(i)*0x9e3779b97f4a7c15 + 1
		a.Update(k, 2)
		b.Update(k, 2)
	}
	for i := 0; i < 800; i++ {
		a.Update(uint64(i)*7919+3, 1)
	}
	for i := 0; i < 400; i++ {
		b.Update(uint64(i)*104729+5, 1)
	}
	got, err := HammingDiff(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1200)/1200 > 0.25 {
		t.Errorf("diff %v want ~1200", got)
	}
	// HammingDiff must not modify its arguments.
	av, _ := a.EstimateErr()
	if math.Abs(av-50_800)/50_800 > 0.25 {
		t.Errorf("a was modified: %v", av)
	}
}

func TestHammingDiffIdenticalStreams(t *testing.T) {
	opts := []Option{WithSeed(71), WithEpsilon(0.2), WithCopies(1)}
	a, b := NewL0(opts...), NewL0(opts...)
	for i := 0; i < 20_000; i++ {
		k := uint64(i)*2654435761 + 1
		v := int64(i%7 + 1)
		a.Update(k, v)
		b.Update(k, v)
	}
	got, err := HammingDiff(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("identical streams diff %v want 0", got)
	}
}

func TestHammingDiffCountMismatch(t *testing.T) {
	// Same key set but different multiplicities: every key differs.
	opts := []Option{WithSeed(72), WithEpsilon(0.2), WithCopies(1)}
	a, b := NewL0(opts...), NewL0(opts...)
	for i := 0; i < 80; i++ {
		k := uint64(i) + 1
		a.Update(k, 1)
		b.Update(k, 2)
	}
	got, err := HammingDiff(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got != 80 {
		t.Errorf("diff %v want exactly 80 (small regime)", got)
	}
}

func TestHammingDiffOrderIndependent(t *testing.T) {
	// The same multiset streamed in different orders must diff to zero.
	opts := []Option{WithSeed(73), WithEpsilon(0.2), WithCopies(1)}
	a, b := NewL0(opts...), NewL0(opts...)
	keys := make([]uint64, 10_000)
	for i := range keys {
		keys[i] = uint64(i)*0x9e3779b97f4a7c15 + 1
	}
	for _, k := range keys {
		a.Update(k, 1)
	}
	for i := len(keys) - 1; i >= 0; i-- {
		b.Update(keys[i], 1)
	}
	got, err := HammingDiff(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("reordered identical streams diff %v want 0", got)
	}
}

func TestMergeNegatedConfigMismatch(t *testing.T) {
	a := NewL0(WithSeed(74), WithCopies(1), WithEpsilon(0.3))
	b := NewL0(WithSeed(75), WithCopies(1), WithEpsilon(0.3))
	if err := a.MergeNegated(b); err == nil {
		t.Error("different seeds must be rejected")
	}
	if _, err := HammingDiff(a, b); err == nil {
		t.Error("HammingDiff must reject mismatched sketches")
	}
}

func TestMergeNegatedSelfInverse(t *testing.T) {
	// x − x = 0: negated-merging a sketch with a copy of itself must
	// zero every counter.
	opts := []Option{WithSeed(76), WithEpsilon(0.2), WithCopies(1)}
	a := NewL0(opts...)
	for i := 0; i < 30_000; i++ {
		a.Update(uint64(i)*31+1, int64(i%5+1))
	}
	data, _ := a.MarshalBinary()
	var clone L0
	if err := clone.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if err := a.MergeNegated(&clone); err != nil {
		t.Fatal(err)
	}
	got, err := a.EstimateErr()
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("x - x should be 0, got %v", got)
	}
}

// TestMergeNegatedWrapsErrIncompatible: a configuration mismatch in a
// diff is an ErrIncompatible, as it is in Merge, through MergeNegated
// and through both library entry points that reach it.
func TestMergeNegatedWrapsErrIncompatible(t *testing.T) {
	a := NewL0(WithSeed(1), WithEpsilon(0.3), WithCopies(1))
	b := NewL0(WithSeed(2), WithEpsilon(0.3), WithCopies(1))
	if err := a.Merge(b); !errors.Is(err, ErrIncompatible) {
		t.Fatalf("Merge: %v, want ErrIncompatible", err)
	}
	if err := a.MergeNegated(b); !errors.Is(err, ErrIncompatible) {
		t.Errorf("MergeNegated: %v, want ErrIncompatible", err)
	}
	if _, err := HammingDiff(a, b); !errors.Is(err, ErrIncompatible) {
		t.Errorf("HammingDiff: %v, want ErrIncompatible", err)
	}
	if _, err := Hamming(a, b); !errors.Is(err, ErrIncompatible) {
		t.Errorf("Hamming: %v, want ErrIncompatible", err)
	}
}
