package knw

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// Set algebra over mergeable sketches.
//
// The KNW summaries are linear (L0) or max-mergeable (F0), so a union
// of streams is answered by merging their sketches — and every other
// set statistic follows from unions by inclusion–exclusion:
//
//	|A ∩ B|     = |A| + |B| − |A ∪ B|
//	J(A, B)     = |A ∩ B| / |A ∪ B|
//	|A \ B|     = |A ∪ B| − |B|
//	|A Δ B|     = 2|A ∪ B| − |A| − |B|
//
// and, for k sets, |∩ᵢ Aᵢ| = Σ_{∅≠S⊆[k]} (−1)^{|S|+1} |∪_{i∈S} Aᵢ|.
// Each union term carries the sketch's ε relative error, so the
// absolute error of an inclusion–exclusion answer is bounded by
// ε·Σ_S |∪_{i∈S} Aᵢ| — it scales with the magnitude of the unions,
// not with the (possibly tiny) intersection. See SetStats for the
// bound each answer ships with.
//
// All helpers take sketches behind the Estimator interface (as the
// store and service layers hold them after knw.Open) and never mutate
// their arguments beyond draining deamortized phases, exactly like
// Merge.

// MaxSetQuery caps the number of sketches a k-way inclusion–exclusion
// helper accepts: the identity sums 2^k − 1 union terms, so both cost
// and error budget grow exponentially in k.
const MaxSetQuery = 8

// Clone deep-copies a wire-kind estimator (*F0 or *L0) without
// encoding it: the copy shares the original's configuration, seed and
// hash functions, read-only, and owns its counter state, so the two
// never alias state. The copy holds what Open would restore from the
// original's bytes (a deamortized phase in flight is finished in the
// copy, never in the original, which is only read), so it marshals to
// the same bytes. Other kinds (the experiment baselines) return an
// error wrapping ErrIncompatible.
func Clone(est Estimator) (Estimator, error) {
	switch e := est.(type) {
	case *F0:
		return e.clone(), nil
	case *L0:
		return e.clone(), nil
	}
	return nil, errIncompatible("knw: %s has no native copy", est.Name())
}

// copyInto overwrites dst's counter state with src's; both are
// same-settings F0s or L0s (Compatible).
func copyInto(dst, src Estimator) {
	switch d := dst.(type) {
	case *F0:
		d.copyFrom(src.(*F0))
	case *L0:
		d.copyFrom(src.(*L0))
	}
}

// UnionSketch returns a new sketch summarizing the union of the given
// streams: a clone of the first argument with every other argument
// merged in. All sketches must be merge-compatible (same wire kind,
// options, and seed). The arguments are not modified.
func UnionSketch(sketches ...Estimator) (Estimator, error) {
	if len(sketches) == 0 {
		return nil, errors.New("knw: union of no sketches")
	}
	dst, err := Clone(sketches[0])
	if err != nil {
		return nil, err
	}
	for _, s := range sketches[1:] {
		if err := MergeInto(dst, s); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// Union estimates |A₁ ∪ … ∪ A_k|, the number of distinct keys across
// all the streams, by merging clones of the sketches.
func Union(sketches ...Estimator) (float64, error) {
	u, err := UnionSketch(sketches...)
	if err != nil {
		return 0, err
	}
	return estimateOf(u)
}

// Intersection estimates |A₁ ∩ … ∩ A_k| by inclusion–exclusion over
// all 2^k − 1 subset unions (k between 2 and MaxSetQuery). The answer
// is clamped to [0, minᵢ|Aᵢ|]; its absolute error is bounded by
// ε·Σ_S |∪_{i∈S} Aᵢ| (see SetStats.IntersectionErrBound), which for
// two sets is ε·(|A| + |B| + |A ∪ B|) ≤ 3ε·|A ∪ B|.
func Intersection(sketches ...Estimator) (float64, error) {
	r, err := incExcRun(sketches)
	if err != nil {
		return 0, err
	}
	return r.inter, nil
}

// Jaccard estimates the Jaccard similarity |∩ᵢAᵢ| / |∪ᵢAᵢ| of k
// streams (k between 2 and MaxSetQuery), clamped to [0, 1]. An empty
// union reports similarity 0.
func Jaccard(sketches ...Estimator) (float64, error) {
	r, err := incExcRun(sketches)
	if err != nil {
		return 0, err
	}
	return r.jaccard(), nil
}

// Difference estimates |A \ B| = |A ∪ B| − |B|, the number of distinct
// keys of a's stream that b's stream never saw, clamped to ≥ 0.
func Difference(a, b Estimator) (float64, error) {
	u, err := Union(a, b)
	if err != nil {
		return 0, err
	}
	cb, err := estimateOf(b)
	if err != nil {
		return 0, err
	}
	return math.Max(0, u-cb), nil
}

// Hamming estimates |{i : count_a(i) ≠ count_b(i)}| between two
// turnstile (L0-kind) sketches without modifying either: the receiver
// side is cloned, −1× the other stream is folded in (MergeNegated),
// and the L0 of the difference vector is reported. Only the L0 wire
// kind supports it — F0's max-merge cannot subtract — so other kinds
// return an error wrapping ErrIncompatible. For insertion-only streams
// this equals the symmetric difference |A Δ B|.
func Hamming(a, b Estimator) (float64, error) {
	if x, ok := a.(*L0); ok {
		y, ok := b.(*L0)
		if !ok {
			return 0, errKindMismatch(a, b)
		}
		return HammingDiff(x, y)
	}
	return 0, errIncompatible("knw: %s does not support Hamming distance (turnstile L0 only)", kindOf(a))
}

// SetStats is the full inclusion–exclusion picture for k sketches, as
// computed by NewSetStats and served by the daemon's /v1/query.
type SetStats struct {
	// Cards[i] is the per-stream distinct-count estimate |Aᵢ|.
	Cards []float64
	// Union and Intersection estimate |∪ᵢAᵢ| and |∩ᵢAᵢ|; Jaccard is
	// their ratio clamped to [0, 1]. Intersection is clamped to
	// [0, minᵢ Cards[i]].
	Union        float64
	Intersection float64
	Jaccard      float64
	// DiffAB = |A \ B|, DiffBA = |B \ A|, and SymmetricDiff = |A Δ B|
	// are filled for two-sketch queries only (zero otherwise).
	DiffAB        float64
	DiffBA        float64
	SymmetricDiff float64
	// Hamming is the turnstile L0 distance |{i : count_a(i) ≠
	// count_b(i)}|, filled only when HammingOK: two L0 sketches. For
	// insertion-only streams it coincides with
	// SymmetricDiff up to sketch error.
	Hamming   float64
	HammingOK bool
	// Epsilon is the sketches' configured relative standard error;
	// IntersectionErrBound = ε·Σ_S |∪_{i∈S}Aᵢ| bounds the absolute
	// error of Intersection (and of Union·Jaccard): inclusion–
	// exclusion error scales with the union magnitudes, never with
	// the intersection itself. Terms counts the 2^k − 1 union terms
	// the bound sums over.
	Epsilon              float64
	IntersectionErrBound float64
	Terms                int
}

// NewSetStats runs one inclusion–exclusion pass over k merge-
// compatible sketches (2 ≤ k ≤ MaxSetQuery) and reports every set
// statistic the pass yields. The arguments are not modified.
func NewSetStats(sketches ...Estimator) (SetStats, error) {
	r, err := incExcRun(sketches)
	if err != nil {
		return SetStats{}, err
	}
	st := SetStats{
		Cards:                r.cards,
		Union:                r.union,
		Intersection:         r.inter,
		Jaccard:              r.jaccard(),
		Epsilon:              epsilonOf(sketches[0]),
		IntersectionErrBound: epsilonOf(sketches[0]) * r.sumU,
		Terms:                r.terms,
	}
	if len(sketches) == 2 {
		st.DiffAB = math.Max(0, st.Union-st.Cards[1])
		st.DiffBA = math.Max(0, st.Union-st.Cards[0])
		st.SymmetricDiff = st.DiffAB + st.DiffBA
		if h, err := Hamming(sketches[0], sketches[1]); err == nil {
			st.Hamming, st.HammingOK = h, true
		}
	}
	return st, nil
}

// incExc accumulates one inclusion–exclusion pass.
type incExc struct {
	cards []float64
	union float64 // full-mask union estimate
	inter float64 // signed sum, clamped
	sumU  float64 // Σ over subset terms, for the error bound
	terms int
}

func (r incExc) jaccard() float64 {
	if r.union <= 0 {
		return 0
	}
	return math.Min(1, r.inter/r.union)
}

// incExcRun evaluates |∪_{i∈S} Aᵢ| for every non-empty S ⊆ [k] and
// combines the terms into the intersection estimate. Singleton terms
// read the argument sketches directly. Larger terms come from a
// depth-first walk over the subsets in increasing index order: the
// union for S ∪ {j}, j above every member of S, is a copy of S's
// union with Aⱼ merged in, held in a k-deep stack of scratch
// sketches. The pass costs one copy and one merge per subset, and each
// union is built by merging its members into a copy of the first in
// index order, so the answers match cloning the first member per
// subset and merging the rest.
func incExcRun(sketches []Estimator) (incExc, error) {
	k := len(sketches)
	if k < 2 {
		return incExc{}, errors.New("knw: set algebra needs at least two sketches")
	}
	if k > MaxSetQuery {
		return incExc{}, fmt.Errorf("knw: set algebra over %d sketches exceeds the %d-sketch cap", k, MaxSetQuery)
	}
	for _, s := range sketches[1:] {
		if err := Compatible(sketches[0], s); err != nil {
			return incExc{}, err
		}
	}
	r := incExc{cards: make([]float64, k)}
	for i, s := range sketches {
		v, err := estimateOf(s)
		if err != nil {
			return incExc{}, err
		}
		r.cards[i] = v
	}
	full := 1<<k - 1
	unions := make([]float64, full+1)
	for i, c := range r.cards {
		unions[1<<i] = c
	}
	stack := make([]Estimator, k-1) // stack[d] holds a (d+2)-member union
	var walk func(parent Estimator, mask, depth int) error
	walk = func(parent Estimator, mask, depth int) error {
		for j := bits.Len(uint(mask)); j < k; j++ {
			if stack[depth] == nil {
				c, err := Clone(parent)
				if err != nil {
					return err
				}
				stack[depth] = c
			} else {
				copyInto(stack[depth], parent)
			}
			acc := stack[depth]
			if err := MergeInto(acc, sketches[j]); err != nil {
				return err
			}
			m := mask | 1<<j
			u, err := estimateOf(acc)
			if err != nil {
				return err
			}
			unions[m] = u
			if err := walk(acc, m, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	for i := 0; i < k-1; i++ {
		if err := walk(sketches[i], 1<<i, 0); err != nil {
			return incExc{}, err
		}
	}
	// Sum in mask order, as the terms have always been summed, so the
	// floating-point answers do not depend on the walk.
	for mask := 1; mask <= full; mask++ {
		u := unions[mask]
		if bits.OnesCount(uint(mask))%2 == 1 {
			r.inter += u
		} else {
			r.inter -= u
		}
		r.sumU += u
		r.terms++
		if mask == full {
			r.union = u
		}
	}
	minCard := r.cards[0]
	for _, c := range r.cards[1:] {
		minCard = math.Min(minCard, c)
	}
	r.inter = math.Max(0, math.Min(r.inter, minCard))
	return r, nil
}

// estimateOf reads an estimate with failure reporting: the typed
// EstimateErr when the kind has one, otherwise Estimate with NaN
// mapped to an error, so set-algebra answers never propagate NaN.
func estimateOf(e Estimator) (float64, error) {
	if ee, ok := e.(interface{ EstimateErr() (float64, error) }); ok {
		return ee.EstimateErr()
	}
	v := e.Estimate()
	if math.IsNaN(v) {
		return 0, errors.New("knw: estimate failed (all copies errored)")
	}
	return v, nil
}

// epsilonOf reads the configured ε when the kind exposes it (both
// wire kinds do); 0 means unknown and disables the error bound.
func epsilonOf(e Estimator) float64 {
	if ee, ok := e.(interface{ Epsilon() float64 }); ok {
		return ee.Epsilon()
	}
	return 0
}
