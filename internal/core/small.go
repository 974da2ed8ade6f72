package core

import (
	"math"
	"slices"
	"sort"

	"repro/internal/ballsbins"
	"repro/internal/bitutil"
)

// smallF0 is the Section 3.3 companion structure shared by both sketch
// implementations. It answers exactly while F0 < ExactCap and via a
// 2K-bit balls-and-bins array while F0 = O(K), and decides when the
// Figure 3 estimator takes over (Theorem 4's switch at F̃B ≥ K/16).
//
// The exact set is a sorted slice of at most ExactCap keys (ExactCap+1
// when restored from a payload that held that many), grown on demand:
// an empty sketch holds none, and a full set takes at most 1 KiB. It keeps
// the keys it holds when the exact phase ends, since the encoding
// carries them.
//
// Once the exact phase is over and the array's occupancy reaches
// handover, the estimate belongs to Figure 3 for good: occupancy only
// grows, and the balls-and-bins estimate with it. An observation then
// retires the array by setting every bit, which answers every estimate
// as before and lets the batch path skip the bins of keys that cannot
// reach a counter (FastSketch.floors).
type smallF0 struct {
	exact    []uint64 // ascending, distinct
	overflow bool
	bv       *bitutil.BitVector // K′ = 2K bits, indexed by h3's full range
	handover int                // handoverBits(K)
}

func newSmallF0(k int) smallF0 {
	return smallF0{bv: bitutil.NewBitVector(2 * k), handover: handoverBits(k)}
}

// bitsEstimate is estimate past the exact phase, for tb set bits of
// the 2K-bit array: (F̃B, true) while F̃B < K/16, and (0, false) once
// the array hands the estimate to Figure 3 (or saturates).
func bitsEstimate(tb, k int) (float64, bool) {
	k2 := 2 * k
	if tb == k2 {
		return 0, false // saturated: defer to the main estimator
	}
	fb := ballsbins.Invert(tb, k2)
	if fb < float64(k)/16 {
		return fb, true
	}
	return 0, false
}

// handoverBits returns the least occupancy at which bitsEstimate hands
// over (2,017 bits at K = 32,768; 127 at K = 2,048). F̃B grows with tb,
// so every larger occupancy hands over too.
func handoverBits(k int) int {
	return sort.Search(2*k, func(tb int) bool {
		_, ok := bitsEstimate(tb, k)
		return !ok
	})
}

// observe records the item. bit is h3(h2(i)) in [0, 2K) — the paper has
// h3 range over K′ = 2K here and reduces it mod K for the counter index.
func (s *smallF0) observe(key uint64, bit int) {
	s.bv.Set(bit)
	if !s.overflow {
		i, seen := slices.BinarySearch(s.exact, key)
		if seen {
			return
		}
		if len(s.exact) < ExactCap {
			s.exact = slices.Insert(s.exact, i, key)
			return
		}
		// The (ExactCap+1)-th distinct item: the exact phase is over.
		s.overflow = true
	}
	if n := s.bv.Count(); n >= s.handover && n < s.bv.Len() {
		s.bv.Fill()
	}
}

// full reports whether no observation can change the structure: the
// exact phase is over and every bit of the array is set, which the
// first observation at or past the handover ensures.
func (s *smallF0) full() bool { return s.overflow && s.bv.Count() == s.bv.Len() }

// estimate returns (value, true) when the small-F0 machinery should
// answer — exactly (F0 < ExactCap) or via the bit array (F̃B < K/16) —
// and (0, false) when the Figure 3 estimator governs.
func (s *smallF0) estimate(k int) (float64, bool) {
	if !s.overflow {
		return float64(len(s.exact)), true
	}
	return bitsEstimate(s.bv.Count(), k)
}

// mergeFrom merges another small-F0 structure built with the same
// hashes (bit arrays OR; exact sets union with overflow propagation).
// Overflow is decided from the union's size before any key moves, so
// an overflowing merge leaves s's exact set as it was. A union past
// the handover stays as the OR left it until the next observation.
func (s *smallF0) mergeFrom(o *smallF0) {
	s.bv.Or(o.bv)
	if s.overflow || o.overflow {
		s.overflow = true
		return
	}
	// Each set holds at most ExactCap+1 keys (a restored payload may
	// carry that many), so the union fits the stack.
	var buf [2 * (ExactCap + 1)]uint64
	union := buf[:0]
	a, b := s.exact, o.exact
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0] < b[0]:
			union, a = append(union, a[0]), a[1:]
		case b[0] < a[0]:
			union, b = append(union, b[0]), b[1:]
		default:
			union, a, b = append(union, a[0]), a[1:], b[1:]
		}
	}
	union = append(append(union, a...), b...)
	if len(union) > ExactCap {
		s.overflow = true
		return
	}
	s.exact = append(s.exact[:0], union...)
}

// copyFrom makes s equal to o, reusing s's storage.
func (s *smallF0) copyFrom(o *smallF0) {
	s.exact = append(s.exact[:0], o.exact...)
	s.overflow = o.overflow
	s.bv.CopyFrom(o.bv)
}

// reset clears the structure for reuse (see FastSketch.Reset).
func (s *smallF0) reset() {
	s.exact = s.exact[:0]
	s.overflow = false
	s.bv.Reset()
}

// spaceBits charges the bit array plus the ≤100 stored indices at
// log n bits each (Section 3.3: O(log n) space total, with the paper's
// constant 100).
func (s *smallF0) spaceBits(logN uint) int {
	return s.bv.SpaceBits() + ExactCap*int(logN)
}

// exp2 is a tiny helper for 2^b as float64.
func exp2(b int) float64 { return math.Exp2(float64(b)) }
