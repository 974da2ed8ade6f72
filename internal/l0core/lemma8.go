// Package l0core implements the paper's L0 (Hamming norm) machinery:
// the turnstile-stream sketch of Section 4 (Figure 4 skeleton with
// Lemma 6's finite-field counters), the exact small-L0 structure of
// Lemma 8, and RoughL0Estimator of Appendix A.3 (Theorem 11).
//
// L0 = |{i : x_i ≠ 0}| generalizes F0 to streams with deletions: an
// update (i, v) performs x_i ← x_i + v with v possibly negative. The
// F0 trick of remembering "some item hashed here" breaks under
// deletions — frequencies of opposite signs can cancel to zero and
// give false negatives — so every bit of the F0 bit-matrix becomes a
// counter over a random prime field F_p holding the dot product of the
// frequencies landing there with a random vector u (Lemma 6): the
// counter is zero iff the underlying frequency sub-vector is zero,
// except with probability ~1/p (Fact 3) plus the probability that p
// divides a frequency (controlled by drawing p at random from a range
// with many primes, Lemma 6's [D, D³]).
package l0core

import (
	"math"
	"math/rand"

	"repro/internal/hashfn"
	"repro/internal/prime"
)

// ExactSmallL0 is Lemma 8: given the promise L0 ≤ c, it outputs L0
// exactly with probability ≥ 1 − δ, using O(c²·loglog(mM)) bits plus
// O(log 1/δ) pairwise-independent hash functions. Each of the
// O(log 1/δ) trials hashes the universe into c² buckets, each bucket
// maintaining the sum of frequencies modulo a random prime
// p = Θ(log(mM)·loglog(mM)); the trial's estimate is the number of
// nonzero buckets (≤ L0 always — collisions and p-divisibility only
// merge or hide items), and the final output is the maximum over
// trials. Update and reporting times are O(1).
type ExactSmallL0 struct {
	c       int
	buckets int
	fp      prime.Field
	hs      []*hashfn.TwoWise
	cnt     [][]uint64 // cnt[trial][bucket]: Σ freq mod p
	nonzero []int      // maintained per-trial count of nonzero buckets
}

// Lemma8Trials returns the O(log 1/δ) trial count used for a target
// failure probability δ: each trial independently perfect-hashes the
// ≤ c live items into c² buckets with probability ≥ 1/2, so
// ⌈log2(1/δ)⌉ + 1 trials suffice for the max to be exact w.p. ≥ 1 − δ.
func Lemma8Trials(delta float64) int {
	if delta <= 0 || delta >= 1 {
		panic("l0core: delta must be in (0,1)")
	}
	return int(math.Ceil(math.Log2(1/delta))) + 1
}

// NewExactSmallL0 builds a Lemma 8 structure for the promise L0 ≤ c,
// failure probability δ, and frequency magnitudes bounded by 2^logMM
// (the paper's mM). Trials share the prime p, as the instantiations in
// RoughL0Estimator share their hash functions.
func NewExactSmallL0(c int, delta float64, logMM uint, rng *rand.Rand) *ExactSmallL0 {
	if c < 1 {
		panic("l0core: c must be positive")
	}
	trials := Lemma8Trials(delta)
	// p = Θ(log(mM)·loglog(mM)): a nonzero frequency |x| ≤ 2^logMM has
	// at most logMM prime factors, and [D, 4D] holds ~3D/ln D primes,
	// so Pr[p | x] = O(logMM·ln(D)/D) — small for D a large multiple
	// of logMM·loglog(mM).
	ll := math.Log2(float64(logMM) + 2)
	d := uint64(64 * float64(logMM) * ll)
	if d < 257 {
		d = 257
	}
	e := &ExactSmallL0{
		c:       c,
		buckets: c * c,
		fp:      prime.NewField(prime.RandPrimeIn(rng, d, 4*d)),
		hs:      make([]*hashfn.TwoWise, trials),
		cnt:     make([][]uint64, trials),
		nonzero: make([]int, trials),
	}
	for t := range e.hs {
		e.hs[t] = hashfn.NewTwoWise(rng, uint64(e.buckets))
		e.cnt[t] = make([]uint64, e.buckets)
	}
	return e
}

// blank returns a fresh structure over e's hash functions and prime.
func (e *ExactSmallL0) blank() *ExactSmallL0 {
	b := &ExactSmallL0{
		c:       e.c,
		buckets: e.buckets,
		fp:      e.fp,
		hs:      e.hs,
		cnt:     make([][]uint64, len(e.cnt)),
		nonzero: make([]int, len(e.nonzero)),
	}
	for t := range b.cnt {
		b.cnt[t] = make([]uint64, e.buckets)
	}
	return b
}

// copyFrom makes e's counters equal to o's.
func (e *ExactSmallL0) copyFrom(o *ExactSmallL0) {
	for t := range e.cnt {
		copy(e.cnt[t], o.cnt[t])
	}
	copy(e.nonzero, o.nonzero)
}

// Update processes the turnstile update x_key ← x_key + v in O(1)
// (trials are a constant depending only on δ).
func (e *ExactSmallL0) Update(key uint64, v int64) {
	dv := e.fp.ReduceInt(v)
	if dv == 0 {
		return
	}
	for t := range e.hs {
		b := e.hs[t].Hash(key)
		old := e.cnt[t][b]
		nw := e.fp.Add(old, dv)
		e.cnt[t][b] = nw
		switch {
		case old == 0 && nw != 0:
			e.nonzero[t]++
		case old != 0 && nw == 0:
			e.nonzero[t]--
		}
	}
}

// Estimate returns the maximum per-trial count of nonzero buckets,
// which equals L0 with probability ≥ 1 − δ when L0 ≤ c. The value
// never exceeds the true L0 plus p-arithmetic coincidences (it is a
// lower bound in expectation), so thresholds of the form "estimate > τ"
// are conservative for all L0.
func (e *ExactSmallL0) Estimate() int {
	best := 0
	for _, nz := range e.nonzero {
		if nz > best {
			best = nz
		}
	}
	return best
}

// C returns the structure's exactness promise bound.
func (e *ExactSmallL0) C() int { return e.c }

// MergeFrom merges another structure built with identical randomness
// (same rng seed): counters add in F_p, so the merged structure equals
// one that saw both streams.
func (e *ExactSmallL0) MergeFrom(o *ExactSmallL0) {
	if e.buckets != o.buckets || len(e.hs) != len(o.hs) || e.fp.P != o.fp.P {
		panic("l0core: merge of incompatible ExactSmallL0")
	}
	for t := range e.cnt {
		nz := 0
		for b := range e.cnt[t] {
			e.cnt[t][b] = e.fp.Add(e.cnt[t][b], o.cnt[t][b])
			if e.cnt[t][b] != 0 {
				nz++
			}
		}
		e.nonzero[t] = nz
	}
}

// Reset clears all counters for reuse without redrawing hashes.
func (e *ExactSmallL0) Reset() {
	for t := range e.cnt {
		clear(e.cnt[t])
	}
	clear(e.nonzero)
}

// SpaceBits charges each bucket at ⌈log2 p⌉ bits (the packed
// representation Lemma 8's O(c²·loglog mM) bound refers to) plus the
// pairwise hash seeds.
func (e *ExactSmallL0) SpaceBits() int {
	perBucket := 0
	for p := e.fp.P; p > 1; p >>= 1 {
		perBucket++
	}
	total := len(e.cnt) * e.buckets * perBucket
	for _, h := range e.hs {
		total += h.SeedBits()
	}
	return total
}
