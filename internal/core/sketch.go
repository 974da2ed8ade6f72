package core

import (
	"math"
	"math/rand"

	"repro/internal/bitutil"
	"repro/internal/hashfn"
	"repro/internal/rough"
)

// Sketch is the reference implementation of Figure 3 plus the
// Section 3.3 small-F0 companion. See the package documentation for how
// it relates to FastSketch. A Sketch is not safe for concurrent use.
type Sketch struct {
	cfg     Config
	keyMask uint64 // restricts h1's output to [0, 2^LogN)

	h1 *hashfn.TwoWise // level hash: lsb(h1(i)) is the subsampling depth
	h2 *hashfn.TwoWise // [n] → [K³]: collision-avoidance stage
	h3 *hashfn.Poly    // [K³] → [2K]: balls-and-bins stage (k-wise)

	re    *rough.Estimator
	small smallF0

	c    []int8 // K counters: offset-from-b of deepest level, −1 = empty
	a    int    // A = Σ ⌈log2(C_j + 2)⌉, the packed-bits accounting
	b    int    // subsampling offset
	est  int    // log2 of the last rough estimate acted upon
	tOcc int    // T = |{j : C_j ≥ 0}|, maintained for O(1) reporting

	failed bool
	// rescales counts offset changes; exposed for the E6 experiment.
	rescales int
}

// NewSketch draws a fresh reference sketch using randomness from rng.
func NewSketch(cfg Config, rng *rand.Rand) *Sketch { return DrawSketch(cfg, rng).Blank() }

// DrawSketch draws a reference sketch's hash functions from rng — h1,
// h2, h3, then the rough estimator's, in the order NewSketch draws
// them — and returns them as a template: a Sketch without counters,
// good only as the receiver of Blank and SeedBits.
func DrawSketch(cfg Config, rng *rand.Rand) *Sketch {
	cfg.normalize()
	k := cfg.K
	return &Sketch{
		cfg:     cfg,
		keyMask: bitutil.Mask(cfg.LogN),
		h1:      hashfn.NewTwoWise(rng, 1),
		h2:      hashfn.NewTwoWise(rng, uint64(k)*uint64(k)*uint64(k)),
		h3: hashfn.NewKWise(rng,
			hashfn.KForEps(uint64(k), 1/math.Sqrt(float64(k))), uint64(2*k)),
		re: rough.Draw(rough.Config{LogN: cfg.LogN, KRE: cfg.RoughKRE}, rng),
	}
}

// Blank returns a fresh sketch over s's hash functions: s's
// configuration, new empty counter state. s may be a template or a
// live sketch (see FastSketch.Blank).
func (s *Sketch) Blank() *Sketch {
	k := s.cfg.K
	b := &Sketch{
		cfg:     s.cfg,
		keyMask: s.keyMask,
		h1:      s.h1,
		h2:      s.h2,
		h3:      s.h3,
		re:      s.re.Blank(),
		small:   newSmallF0(k),
		c:       make([]int8, k),
	}
	for i := range b.c {
		b.c[i] = -1
	}
	return b
}

// K returns the counter count (the paper's K = 1/ε²).
func (s *Sketch) K() int { return s.cfg.K }

// CopyFrom overwrites s's counter state with o's (see
// FastSketch.CopyFrom; the reference sketch has no phases to finish).
func (s *Sketch) CopyFrom(o *Sketch) {
	if s.cfg != o.cfg {
		panic("core: copy between incompatible sketches")
	}
	s.re.CopyFrom(o.re)
	s.small.copyFrom(&o.small)
	copy(s.c, o.c)
	s.a, s.b, s.est, s.tOcc = o.a, o.b, o.est, o.tOcc
	s.failed, s.rescales = o.failed, o.rescales
}

// Add processes stream item key (Figure 3, step 6).
func (s *Sketch) Add(key uint64) {
	lvl := int(bitutil.LSB(s.h1.HashField(key)&s.keyMask, s.cfg.LogN))
	bit := int(s.h3.Hash(s.h2.Hash(key))) // ∈ [0, 2K)
	s.addHashed(key, lvl, bit)
}

// AddBatch processes the keys exactly as sequential Add calls would,
// with each hash family — including the rough estimator's — evaluated
// over the chunk in its own tight loop (see FastSketch.AddBatch).
func (s *Sketch) AddBatch(keys []uint64) {
	var red, z [batchChunk]uint64
	var lvls, bits, cidx [batchChunk]int32
	var rsc rough.Scratch
	var cest [batchChunk]uint64
	checked := false // see FastSketch.AddBatch on the consultation skip
	for len(keys) > 0 {
		n := len(keys)
		if n > batchChunk {
			n = batchChunk
		}
		chunk := keys[:n]
		keys = keys[n:]
		hashfn.ReduceChunk(chunk, red[:n])
		s.h1.HashFieldChunkReduced(red[:n], z[:n])
		for i, v := range z[:n] {
			lvls[i] = int32(bitutil.LSB(v&s.keyMask, s.cfg.LogN))
		}
		s.h2.HashChunkReduced(red[:n], z[:n])
		for i, v := range z[:n] {
			bits[i] = int32(s.h3.Hash(v))
		}
		s.re.PrecomputeReduced(red[:n], &rsc)
		r, m := s.re.ApplyChunk(&rsc, &cidx, &cest)
		p := 0
		for i, key := range chunk {
			s.applyHashed(key, int(lvls[i]), int(bits[i]))
			if p < m && int(cidx[p]) == i {
				r = cest[p]
				p++
			} else if checked {
				continue
			}
			if r > 0 && r > uint64(1)<<uint(s.est) {
				s.applyRough(r)
			}
			checked = true
		}
	}
}

// addHashed is the post-hashing tail of Add, shared with AddBatch.
func (s *Sketch) addHashed(key uint64, lvl, bit int) {
	s.applyHashed(key, lvl, bit)
	s.re.Update(key)
	s.checkRough()
}

// checkRough is Figure 3's per-update "if R > 2^est" consultation.
func (s *Sketch) checkRough() {
	if r := s.re.Estimate(); r > 0 && r > uint64(1)<<uint(s.est) {
		s.applyRough(r)
	}
}

// applyHashed applies the main-sketch half of one update, shared by
// the scalar and batched paths.
func (s *Sketch) applyHashed(key uint64, lvl, bit int) {
	s.small.observe(key, bit)

	j := bit & (s.cfg.K - 1) // h3 reduced mod K for the counter index
	x := lvl - s.b
	if cur := int(s.c[j]); x > cur {
		// A ← A − ⌈log(2+C_j)⌉ + ⌈log(2+x)⌉
		s.a += int(bitutil.CeilLog2(uint64(x+2))) - int(bitutil.CeilLog2(uint64(cur+2)))
		if s.a > 3*s.cfg.K {
			s.failed = true // Figure 3: "Output FAIL"
		}
		if cur < 0 {
			s.tOcc++
		}
		s.c[j] = int8(x)
	}
}

// applyRough handles Figure 3's "if R > 2^est" block: recompute est and
// the offset b_new = max(0, est − log(K/32)), then shift every counter
// by b − b_new and retotal A. The reference implementation does the
// O(K) shift inline; FastSketch deamortizes it (Theorem 9).
func (s *Sketch) applyRough(r uint64) {
	s.est = int(bitutil.FloorLog2(r))
	bnew := s.est - (int(bitutil.FloorLog2(uint64(s.cfg.K))) - 5) // log2(K/32)
	if bnew < 0 {
		bnew = 0
	}
	if bnew == s.b {
		return
	}
	s.rescales++
	delta := s.b - bnew // negative: counters shift down
	s.a = 0
	s.tOcc = 0
	for j := range s.c {
		nc := int(s.c[j]) + delta
		if nc < -1 {
			nc = -1
		}
		s.c[j] = int8(nc)
		s.a += int(bitutil.CeilLog2(uint64(nc + 2)))
		if nc >= 0 {
			s.tOcc++
		}
	}
	s.b = bnew
}

// Estimate returns F̃0 (Figure 3, step 7, with the Section 3.3 regime
// selection). The error contract is Theorem 3/4's: (1 ± O(ε))F0 with
// probability ≥ 11/20 for a single sketch; use Amplified for 1 − δ.
func (s *Sketch) Estimate() (float64, error) {
	if v, ok := s.small.estimate(s.cfg.K); ok {
		return v, nil
	}
	if s.failed {
		return 0, ErrFailed
	}
	k := s.cfg.K
	if s.tOcc == k {
		return 0, ErrSaturated
	}
	// F̃0 = 2^b · ln(1 − T/K)/ln(1 − 1/K)
	return exp2(s.b) * math.Log1p(-float64(s.tOcc)/float64(k)) /
		math.Log1p(-1/float64(k)), nil
}

// Failed reports whether the FAIL event has occurred.
func (s *Sketch) Failed() bool { return s.failed }

// Rescales returns how many times the offset b changed (experiment E6).
func (s *Sketch) Rescales() int { return s.rescales }

// B returns the current subsampling offset (for tests and experiments).
func (s *Sketch) B() int { return s.b }

// Occupied returns T = |{j : C_j ≥ 0}|.
func (s *Sketch) Occupied() int { return s.tOcc }

// A returns the maintained packed-size accounting Σ⌈log2(C_j+2)⌉.
func (s *Sketch) A() int { return s.a }

// MergeFrom merges another sketch built from the same Config and rng
// seed (identical hash draws) so that s reflects the union of both
// streams. Counters are max-merged after aligning offsets; the rough
// estimators and small-F0 structures merge likewise. Estimates after
// merging obey the same guarantees as a single sketch over the
// concatenated streams.
func (s *Sketch) MergeFrom(o *Sketch) {
	if s.cfg.K != o.cfg.K || s.cfg.LogN != o.cfg.LogN {
		panic("core: merge of incompatible sketches")
	}
	// Align to the larger offset and rough-estimate level.
	if o.est > s.est {
		s.est = o.est
	}
	if o.b > s.b {
		s.shiftTo(o.b)
	}
	s.a = 0
	s.tOcc = 0
	for j := range s.c {
		oc := int(o.c[j]) + o.b - s.b // express o's counter at s's offset
		if oc < -1 {
			oc = -1
		}
		if oc > int(s.c[j]) {
			s.c[j] = int8(oc)
		}
		s.a += int(bitutil.CeilLog2(uint64(int(s.c[j]) + 2)))
		if s.c[j] >= 0 {
			s.tOcc++
		}
	}
	if s.a > 3*s.cfg.K {
		s.failed = true
	}
	s.failed = s.failed || o.failed
	s.re.MergeFrom(o.re)
	s.small.mergeFrom(&o.small)
}

// shiftTo rebases counters to offset bnew ≥ s.b.
func (s *Sketch) shiftTo(bnew int) {
	if bnew == s.b {
		return
	}
	delta := s.b - bnew
	for j := range s.c {
		nc := int(s.c[j]) + delta
		if nc < -1 {
			nc = -1
		}
		s.c[j] = int8(nc)
	}
	s.b = bnew
}

// Reset returns the sketch to its freshly constructed state without
// redrawing hash functions (scratch-sketch reuse; see FastSketch.Reset).
func (s *Sketch) Reset() {
	for i := range s.c {
		s.c[i] = -1
	}
	s.a, s.b, s.est, s.tOcc = 0, 0, 0, 0
	s.failed = false
	s.rescales = 0
	s.re.Reset()
	s.small.reset()
}

// SeedBits returns the bits of the hash functions, the rough
// estimator's included: the part Blank shares rather than allocates.
func (s *Sketch) SeedBits() int {
	return s.h1.SeedBits() + s.h2.SeedBits() + s.h3.SeedBits() + s.re.SeedBits()
}

// SpaceBits reports the sketch's accounted footprint. For the reference
// implementation counters are charged at their actual int8 storage;
// FastSketch charges the bit-packed VLA (the representation Theorem 2's
// O(ε⁻² + log n) bound refers to).
func (s *Sketch) SpaceBits() int {
	total := 8 * len(s.c) // int8 counters
	total += s.h1.SeedBits() + s.h2.SeedBits() + s.h3.SeedBits()
	total += s.re.SpaceBits()
	total += s.small.spaceBits(s.cfg.LogN)
	total += 3 * 64 // A, b, est
	return total
}
