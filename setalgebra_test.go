package knw_test

import (
	"errors"
	"math"
	"testing"

	knw "repro"
)

// fillRange adds keys [lo, hi] to every given sketch.
func fillRange(t *testing.T, lo, hi uint64, sketches ...knw.Estimator) {
	t.Helper()
	keys := make([]uint64, 0, hi-lo+1)
	for k := lo; k <= hi; k++ {
		keys = append(keys, k)
	}
	for _, s := range sketches {
		s.AddBatch(keys)
	}
}

// pairF0 builds two same-seed F0 sketches with A = [1,600],
// B = [301,900]: union 900, intersection 300, Jaccard 1/3.
func pairF0(t *testing.T) (a, b *knw.F0) {
	t.Helper()
	a = knw.NewF0(knw.WithSeed(11), knw.WithEpsilon(0.05))
	b = knw.NewF0(knw.WithSeed(11), knw.WithEpsilon(0.05))
	fillRange(t, 1, 600, a)
	fillRange(t, 301, 900, b)
	return a, b
}

// wantNear fails unless got is within tol of want.
func wantNear(t *testing.T, what string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %.2f, want %.2f ± %.1f", what, got, want, tol)
	}
}

func TestSetStatsPair(t *testing.T) {
	a, b := pairF0(t)
	st, err := knw.NewSetStats(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// ε=0.05 with defaults: allow 3ε·|A∪B| absolute slack on every
	// inclusion–exclusion answer (the documented propagated bound).
	slack := 3 * 0.05 * 900
	wantNear(t, "card A", st.Cards[0], 600, 0.05*600*3)
	wantNear(t, "card B", st.Cards[1], 600, 0.05*600*3)
	wantNear(t, "union", st.Union, 900, slack)
	wantNear(t, "intersection", st.Intersection, 300, slack)
	wantNear(t, "jaccard", st.Jaccard, 1.0/3, 0.15)
	wantNear(t, "diff A\\B", st.DiffAB, 300, slack)
	wantNear(t, "diff B\\A", st.DiffBA, 300, slack)
	wantNear(t, "symmetric diff", st.SymmetricDiff, 600, 2*slack)
	if st.Epsilon != 0.05 {
		t.Errorf("Epsilon = %v, want 0.05", st.Epsilon)
	}
	if st.Terms != 3 {
		t.Errorf("Terms = %d, want 3 for a pair", st.Terms)
	}
	if st.IntersectionErrBound <= 0 || st.IntersectionErrBound > slack*1.5 {
		t.Errorf("IntersectionErrBound = %.2f, want in (0, %.2f]", st.IntersectionErrBound, slack*1.5)
	}
	if st.HammingOK {
		t.Error("HammingOK set for F0 sketches (max-merge cannot subtract)")
	}
}

// Set algebra must not mutate its arguments: estimates before and
// after a full stats pass agree exactly.
func TestSetAlgebraDoesNotMutateArguments(t *testing.T) {
	a, b := pairF0(t)
	ea, eb := a.Estimate(), b.Estimate()
	if _, err := knw.NewSetStats(a, b); err != nil {
		t.Fatal(err)
	}
	if _, err := knw.Union(a, b); err != nil {
		t.Fatal(err)
	}
	if got := a.Estimate(); got != ea {
		t.Errorf("a changed: %v -> %v", ea, got)
	}
	if got := b.Estimate(); got != eb {
		t.Errorf("b changed: %v -> %v", eb, got)
	}
}

func TestSetStatsHammingL0(t *testing.T) {
	a := knw.NewL0(knw.WithSeed(13))
	b := knw.NewL0(knw.WithSeed(13))
	fillRange(t, 1, 200, a, b) // identical prefix
	fillRange(t, 201, 230, a)  // 30 keys only in a
	b.Update(5, 3)             // count disagreement on a shared key
	st, err := knw.NewSetStats(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !st.HammingOK {
		t.Fatal("HammingOK unset for an L0 pair")
	}
	wantNear(t, "hamming", st.Hamming, 31, 3*0.05*231)

	if _, err := knw.Hamming(knw.NewF0(knw.WithSeed(1)), knw.NewF0(knw.WithSeed(1))); !errors.Is(err, knw.ErrIncompatible) {
		t.Errorf("Hamming on F0: err = %v, want ErrIncompatible", err)
	}
}

func TestIntersectionThreeWay(t *testing.T) {
	mk := func() *knw.F0 { return knw.NewF0(knw.WithSeed(23), knw.WithEpsilon(0.05)) }
	a, b, c := mk(), mk(), mk()
	fillRange(t, 1, 500, a)
	fillRange(t, 201, 700, b)
	fillRange(t, 401, 900, c)
	// Pairwise overlaps 300 each; triple overlap [401,500] = 100.
	got, err := knw.Intersection(a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	// 7 union terms, each ≤ ε·900: generous absolute slack.
	wantNear(t, "3-way intersection", got, 100, 7*0.05*900)

	j, err := knw.Jaccard(a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	wantNear(t, "3-way jaccard", j, 100.0/900, 0.3)
}

func TestSetAlgebraArgumentErrors(t *testing.T) {
	a := knw.NewF0(knw.WithSeed(1))
	if _, err := knw.NewSetStats(a); err == nil {
		t.Error("single-sketch stats succeeded")
	}
	many := make([]knw.Estimator, knw.MaxSetQuery+1)
	for i := range many {
		many[i] = knw.NewF0(knw.WithSeed(1))
	}
	if _, err := knw.Intersection(many...); err == nil {
		t.Errorf("intersection over %d sketches succeeded", len(many))
	}
	// Seed mismatch is an incompatibility, reported before any work.
	other := knw.NewF0(knw.WithSeed(2))
	if _, err := knw.Union(a, other); !errors.Is(err, knw.ErrIncompatible) {
		t.Errorf("seed mismatch: err = %v, want ErrIncompatible", err)
	}
	// Kind mismatch likewise.
	if _, err := knw.Union(a, knw.NewL0(knw.WithSeed(1))); !errors.Is(err, knw.ErrIncompatible) {
		t.Errorf("kind mismatch: err = %v, want ErrIncompatible", err)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := knw.NewF0(knw.WithSeed(3))
	fillRange(t, 1, 50, a)
	c, err := knw.Clone(a)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := c.Estimate(), a.Estimate(); got != want {
		t.Fatalf("clone estimate %v != original %v", got, want)
	}
	fillRange(t, 51, 100, a)
	if got := c.Estimate(); got != 50 {
		t.Errorf("clone tracked the original after divergence: %v", got)
	}
	if got := a.Estimate(); got != 100 {
		t.Errorf("original = %v, want 100", got)
	}
}

func TestDifference(t *testing.T) {
	a, b := pairF0(t)
	d, err := knw.Difference(a, b)
	if err != nil {
		t.Fatal(err)
	}
	wantNear(t, "difference", d, 300, 3*0.05*900)
	// A \ A is (near) empty and never negative.
	self, err := knw.Difference(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if self < 0 {
		t.Errorf("|A\\A| = %v < 0", self)
	}
	wantNear(t, "self difference", self, 0, 2*0.05*600)
}
