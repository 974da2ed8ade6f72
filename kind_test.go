package knw

import (
	"strings"
	"testing"
)

// TestNewAllKinds: every registered kind constructs through the
// factory, ingests, and reports — the uniform front door the benches
// and the service layer rely on.
func TestNewAllKinds(t *testing.T) {
	for _, kind := range Kinds() {
		est, err := New(kind, WithSeed(81), WithEpsilon(0.2), WithCopies(3))
		if err != nil {
			t.Fatalf("New(%s): %v", kind, err)
		}
		for i := uint64(1); i <= 5000; i++ {
			est.Add(i * 0x9e3779b97f4a7c15 >> 32)
		}
		est.AddBatch([]uint64{1, 2, 3})
		if est.Name() == "" {
			t.Errorf("New(%s): empty Name", kind)
		}
		if est.SpaceBits() <= 0 {
			t.Errorf("New(%s): SpaceBits %d", kind, est.SpaceBits())
		}
		if est.Estimate() <= 0 {
			t.Errorf("New(%s): estimate %v after 5000 adds", kind, est.Estimate())
		}

		// The registry's turnstile flag must match the estimator's
		// actual surface.
		_, isTurnstile := est.(TurnstileEstimator)
		if isTurnstile != kind.Turnstile() {
			t.Errorf("kind %s: Turnstile()=%v but estimator turnstile=%v",
				kind, kind.Turnstile(), isTurnstile)
		}
		tu, err := NewTurnstile(kind, WithSeed(82), WithEpsilon(0.2), WithCopies(3))
		if kind.Turnstile() {
			if err != nil {
				t.Errorf("NewTurnstile(%s): %v", kind, err)
			} else {
				tu.Update(7, +2)
				tu.Update(7, -2)
			}
		} else if err == nil {
			t.Errorf("NewTurnstile(%s) succeeded for an insertion-only kind", kind)
		}
	}
}

// TestParseKindRoundTrip: String() names parse back, aliases resolve,
// junk errors.
func TestParseKindRoundTrip(t *testing.T) {
	for _, kind := range Kinds() {
		got, err := ParseKind(kind.String())
		if err != nil || got != kind {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", kind.String(), got, err, kind)
		}
	}
	for alias, want := range map[string]Kind{
		"HLL": KindHyperLogLog, "knw": KindF0, "bottom-k": KindKMV,
		// The retired sharded kinds' names resolve to the plain kinds.
		"concurrent-f0": KindF0, "sharded-f0": KindF0, "cf0": KindF0,
		"concurrent-l0": KindL0, " Sharded-L0 ": KindL0, "cl0": KindL0,
	} {
		got, err := ParseKind(alias)
		if err != nil || got != want {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", alias, got, err, want)
		}
	}
	if _, err := ParseKind("no-such-sketch"); err == nil {
		t.Error("ParseKind accepted junk")
	} else if !strings.Contains(err.Error(), "f0") {
		t.Errorf("ParseKind error does not list known kinds: %v", err)
	}
	if _, err := New(Kind(200)); err == nil {
		t.Error("New accepted an unregistered kind")
	}
}

// TestKindAccessorsAndWireFlags: the concrete types report their
// registry tags; exactly the two KNW sketches are wire kinds, and the
// retired sharded tags are neither listed nor reused.
func TestKindAccessorsAndWireFlags(t *testing.T) {
	if k := NewF0(WithSeed(1), WithCopies(1)).Kind(); k != KindF0 {
		t.Errorf("F0.Kind() = %v", k)
	}
	if k := NewL0(WithSeed(1), WithCopies(1)).Kind(); k != KindL0 {
		t.Errorf("L0.Kind() = %v", k)
	}
	if kindShardedF0 != 3 || kindShardedL0 != 4 || KindExact != 5 {
		t.Errorf("kind numbering moved: sharded tags %d/%d, KindExact %d", kindShardedF0, kindShardedL0, KindExact)
	}
	for _, kind := range Kinds() {
		if kind == kindShardedF0 || kind == kindShardedL0 {
			t.Errorf("Kinds() lists the retired tag %d", kind)
		}
		wantWire := kind == KindF0 || kind == KindL0
		if kind.Wire() != wantWire {
			t.Errorf("kind %s: Wire() = %v, want %v", kind, kind.Wire(), wantWire)
		}
	}
}
