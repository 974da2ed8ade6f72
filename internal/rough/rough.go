// Package rough implements RoughEstimator (Figure 2 of the paper): a
// constant-factor F0 approximation that holds, with probability 1−o(1),
// simultaneously at every point t of the stream, using O(log n) bits.
//
// This all-times guarantee is the paper's key enabler for the full
// algorithm: Figure 3 consults the rough estimate R(t) on every update
// to decide the subsampling depth b, so R must be correct at all times,
// not just at the end. Previous constant-factor subroutines needed
// O(log n · log m) bits for an all-times guarantee via union bound over
// the stream; Theorem 1 gets it in O(log n) by observing that the
// estimate is monotone and only log n distinct doubling times matter.
//
// Structure (Figure 2): three independent sub-estimators, each with
// K_RE counters. Sub-estimator j hashes item i to a counter via
// h3(h2(i)) and records the maximum subsampling level lsb(h1(i)) seen
// in that counter. T_r = |{i : C_i ≥ r}| is the occupancy at level r;
// the estimate is 2^r*·K_RE for the largest r* with T_r* ≥ ρ·K_RE,
// where ρ = 0.99·(1 − e^{−1/3}). The output is the median of the three
// sub-estimates and, being monotone in t, satisfies
// F0(t) ≤ Est(t) ≤ 8·F0(t) for all t with F0(t) ≥ K_RE (Theorem 1).
//
// Reporting is O(1): each sub-estimator maintains the suffix occupancy
// counts T_r incrementally and a monotone cursor r* that only ever
// advances (Lemma 5's windowed deamortization achieves worst-case O(1);
// our cursor is amortized O(1) with a worst case bounded by
// log n ≤ 64 word operations — constant on the word RAM the paper
// assumes).
package rough

import (
	"math"
	"math/rand"
	"slices"

	"repro/internal/bitutil"
	"repro/internal/hashfn"
)

// Rho is the occupancy threshold fraction ρ = 0.99·(1 − e^{−1/3}) from
// Figure 2.
var Rho = 0.99 * (1 - math.Exp(-1.0/3.0))

// PaperKRE returns the paper's K_RE = max(8, log(n)/loglog(n))
// (Figure 2, step 1) for a universe of 2^logN items.
func PaperKRE(logN uint) int {
	if logN < 2 {
		return 8
	}
	ll := math.Log2(float64(logN))
	k := int(float64(logN) / ll)
	if k < 8 {
		k = 8
	}
	return k
}

// DefaultKRE returns the library's default K_RE: the paper's asymptotic
// choice makes the failure probability O(log n / K_RE²) = o(1) only as
// n → ∞; at practical n (2^32) that bound is vacuous, so we take
// K_RE = max(64, paper value), rounded to a power of two. This is a
// constant-factor space change (still O(log n) bits total) that makes
// Theorem 1's event hold with probability ≳ 0.99 at realistic n;
// experiment E2 measures both choices.
func DefaultKRE(logN uint) int {
	k := PaperKRE(logN)
	if k < 64 {
		k = 64
	}
	return int(bitutil.NextPow2(uint64(k)))
}

// Config parameterizes a RoughEstimator.
type Config struct {
	// LogN is log2 of the universe size (items are hashed into [2^LogN]).
	LogN uint
	// KRE is the number of counters per sub-estimator; 0 means
	// DefaultKRE(LogN). Power of two recommended so downstream
	// doubling tests are exact.
	KRE int
	// Fast selects the O(1)-evaluation mixed-tabulation family for h3
	// (the Lemma 5 / Theorem 6 substitution) instead of the
	// 2·K_RE-wise Carter–Wegman polynomial the reference analysis uses.
	Fast bool
}

// Estimator is the Figure 2 structure.
type Estimator struct {
	logN uint
	kre  int
	// thresh is ⌈ρ·K_RE⌉ compared against the integer occupancy T_r.
	thresh int
	subs   [3]sub
}

type sub struct {
	h1 *hashfn.TwoWise // [n] → [0, n−1]; its lsb is the subsampling level
	h2 *hashfn.TwoWise // [n] → [K_RE³]: perfect-hashing stage
	h3 hashfn.Family   // [K_RE³] → [K_RE]: balls-and-bins stage
	c  []int8          // counters, −1 (empty) .. logN
	t  []uint32        // t[r] = |{i : c[i] ≥ r}|, r ∈ [0, logN]
	r  int             // monotone cursor: largest r with t[r] ≥ thresh, or −1
}

// New draws a fresh RoughEstimator using randomness from rng.
func New(cfg Config, rng *rand.Rand) *Estimator { return Draw(cfg, rng).Blank() }

// Draw draws an estimator's hash functions from rng, in the order New
// draws them, and returns them as a template: an Estimator without
// counters, good only as the receiver of Blank and SeedBits.
func Draw(cfg Config, rng *rand.Rand) *Estimator {
	if cfg.LogN == 0 || cfg.LogN > 62 {
		panic("rough: LogN must be in [1, 62]")
	}
	kre := cfg.KRE
	if kre == 0 {
		kre = DefaultKRE(cfg.LogN)
	}
	if kre < 2 {
		panic("rough: KRE too small")
	}
	e := &Estimator{logN: cfg.LogN, kre: kre}
	e.thresh = int(math.Ceil(Rho * float64(kre)))
	k3 := uint64(kre) * uint64(kre) * uint64(kre)
	for j := range e.subs {
		s := &e.subs[j]
		s.h1 = hashfn.NewTwoWise(rng, 1) // raw field output used
		s.h2 = hashfn.NewTwoWise(rng, k3)
		if cfg.Fast {
			s.h3 = hashfn.NewTabulation32(rng, uint64(kre))
		} else {
			// Figure 2 asks for 2·K_RE-wise independence on [K_RE³].
			s.h3 = hashfn.NewKWise(rng, 2*kre, uint64(kre))
		}
	}
	return e
}

// Blank returns a fresh estimator over e's hash functions: e's
// configuration, new empty counters. e may be a template or a live
// estimator. Nothing writes a hash function after Draw, so estimators
// sharing them may run on different goroutines.
func (e *Estimator) Blank() *Estimator {
	b := &Estimator{logN: e.logN, kre: e.kre, thresh: e.thresh}
	nt := int(b.logN) + 2
	cs := make([]int8, len(b.subs)*b.kre)
	for i := range cs {
		cs[i] = -1
	}
	ts := make([]uint32, len(b.subs)*nt)
	for j := range b.subs {
		s := &b.subs[j]
		s.h1, s.h2, s.h3 = e.subs[j].h1, e.subs[j].h2, e.subs[j].h3
		s.c = cs[j*b.kre : (j+1)*b.kre : (j+1)*b.kre]
		s.t = ts[j*nt : (j+1)*nt : (j+1)*nt]
		s.r = -1
	}
	return b
}

// CopyFrom makes e's counters, occupancy counts and cursors equal to
// o's. Both must have the same configuration; o is only read.
func (e *Estimator) CopyFrom(o *Estimator) {
	if e.kre != o.kre || e.logN != o.logN {
		panic("rough: copy between incompatible estimators")
	}
	for j := range e.subs {
		s, os := &e.subs[j], &o.subs[j]
		copy(s.c, os.c)
		copy(s.t, os.t)
		s.r = os.r
	}
}

// KRE returns the per-sub-estimator counter count.
func (e *Estimator) KRE() int { return e.kre }

// Update feeds stream item i (Figure 2, step 4):
// C_{h3(h2(i))} ← max(C_{h3(h2(i))}, lsb(h1(i))).
func (e *Estimator) Update(i uint64) {
	mask := bitutil.Mask(e.logN)
	for j := range e.subs {
		s := &e.subs[j]
		lvl := int8(bitutil.LSB(s.h1.HashField(i)&mask, e.logN))
		idx := s.h3.Hash(s.h2.Hash(i))
		if old := s.c[idx]; lvl > old {
			s.c[idx] = lvl
			// Maintain suffix occupancy: levels (old, lvl] gain a counter.
			lo := int(old) + 1
			if lo < 0 {
				lo = 0
			}
			for r := lo; r <= int(lvl); r++ {
				s.t[r]++
			}
		}
	}
}

// ChunkSize is the number of keys a Scratch holds — the chunk
// granularity of the batched ingestion path throughout the module.
const ChunkSize = 512

// Scratch holds one chunk's precomputed hash values for ApplyChunk:
// per sub-estimator, the kept keys' positions in the chunk, levels and
// counter indices. Allocate it once per batch loop and reuse it; it is
// a few KB and lives happily on the stack.
type Scratch struct {
	pos [3][ChunkSize + 1]int32 // kept keys' positions, ascending, then ChunkSize
	lvl [3][ChunkSize]int8
	idx [3][ChunkSize]int32
}

// Precompute fills sc with the hash values Update would compute for
// each key — per sub-estimator, the subsampling level lsb(h1(key)) and
// the counter index h3(h2(key)) — evaluating each hash family over the
// whole chunk in a tight loop (devirtualized for the tabulation h3).
// Batched callers precompute a chunk, then apply it with ApplyChunk so
// the estimate sequence (and hence all downstream rescale decisions)
// is identical to scalar Update calls.
func (e *Estimator) Precompute(keys []uint64, sc *Scratch) {
	var red [ChunkSize]uint64
	if len(keys) > ChunkSize {
		panic("rough: chunk exceeds ChunkSize")
	}
	hashfn.ReduceChunk(keys, red[:len(keys)])
	e.PrecomputeReduced(red[:len(keys)], sc)
}

// PrecomputeReduced is Precompute for callers that already hold the
// keys' M61 reductions (the core batch paths compute them for their
// own hash chunking; sharing skips a second reduction pass).
func (e *Estimator) PrecomputeReduced(red []uint64, sc *Scratch) {
	e.PrecomputeAbove(red, Floors{-1, -1, -1}, sc)
}

// Floors holds, per sub-estimator, a level at or below which no key
// can change that sub-estimator's counters (see Estimator.Floors).
type Floors [3]int8

// Floors returns each sub-estimator's smallest counter (−1 while one is
// still empty). A key whose level in sub-estimator j is at or below
// floor j cannot raise any counter of j, wherever h3 sends it; counters
// only grow, so the floors stay valid until the next Reset.
func (e *Estimator) Floors() Floors {
	var f Floors
	for j := range e.subs {
		f[j] = slices.Min(e.subs[j].c)
	}
	return f
}

// Lower lowers f to o where o is lower: the floors of several
// estimators sharing one Scratch are their minimum.
func (f *Floors) Lower(o Floors) {
	for j, v := range o {
		f[j] = min(f[j], v)
	}
}

// PrecomputeAbove is PrecomputeReduced that keeps, per sub-estimator,
// only the keys that can change some estimator with the given floors —
// those whose level in sub-estimator j is above floors[j] — and
// evaluates levels, h2 and h3 for those only. Applying the result to
// an estimator whose floors are at or above the given ones is
// state-identical to Update of each key, so floors read before a chunk
// serve every update in it. It returns the number of (key,
// sub-estimator) pairs it kept.
func (e *Estimator) PrecomputeAbove(red []uint64, floors Floors, sc *Scratch) (kept int) {
	n := len(red)
	if n > ChunkSize {
		panic("rough: chunk exceeds ChunkSize")
	}
	mask := bitutil.Mask(e.logN)
	var z [ChunkSize]uint64
	for j := range e.subs {
		s := &e.subs[j]
		pos := &sc.pos[j]
		s.h1.HashFieldChunkReduced(red[:n], z[:n])
		// A key's level lsb(z & mask) is above floor f exactly when the
		// low f+1 bits of z are clear; no level exceeds LogN.
		m := 0
		if f := int(floors[j]); f < int(e.logN) {
			low := bitutil.Mask(uint(f + 1))
			for i, v := range z[:n] {
				pos[m] = int32(i)
				if v&low == 0 {
					m++
				}
			}
		}
		pos[m] = ChunkSize
		// Level the kept keys and gather them into z (each write lands
		// at or before the position read), then hash them in place.
		for q, i := range pos[:m] {
			sc.lvl[j][q] = int8(bitutil.LSB(z[i]&mask, e.logN))
			z[q] = red[i]
		}
		s.h2.HashChunkReduced(z[:m], z[:m])
		s.hash3Chunk(z[:m], sc.idx[j][:m])
		kept += m
	}
	return kept
}

// hash3Chunk writes h3(xs[i]) into out[i], devirtualized for the
// tabulation h3.
func (s *sub) hash3Chunk(xs []uint64, out []int32) {
	if tab, ok := s.h3.(*hashfn.Tabulation32); ok {
		tab.HashChunk32(xs, out)
		return
	}
	for i, v := range xs {
		out[i] = int32(s.h3.Hash(v))
	}
}

// ApplyChunk applies the kept entries of sc, filled by PrecomputeAbove,
// merging the three sub-estimators' lists in key order — state-identical
// to Update of each key of the chunk — and records the change points
// sparsely: on return, idxs[:m] holds (ascending) the positions whose
// update changed some counter and ests[:m] the estimate right after
// each such update; between change points the estimate is provably
// unmoved (it is pure in the counters and monotone). r0 is the
// estimate from before the chunk. Batched callers replay their per-key
// estimate consultations against this record instead of calling
// Estimate per key — the dominant steady-state rough cost. The work is
// proportional to the kept entries, not to the chunk.
func (e *Estimator) ApplyChunk(sc *Scratch, idxs *[ChunkSize]int32, ests *[ChunkSize]uint64) (r0 uint64, m int) {
	r0 = e.Estimate()
	var q [3]int // next kept entry per sub-estimator
	for {
		i := min(sc.pos[0][q[0]], sc.pos[1][q[1]], sc.pos[2][q[2]])
		if i == ChunkSize {
			return r0, m
		}
		changed := false
		for j := range e.subs {
			if sc.pos[j][q[j]] != i {
				continue
			}
			s := &e.subs[j]
			lvl, idx := sc.lvl[j][q[j]], sc.idx[j][q[j]]
			q[j]++
			if old := s.c[idx]; lvl > old {
				s.c[idx] = lvl
				changed = true
				// Levels (old, lvl] gain a counter.
				for r := max(int(old)+1, 0); r <= int(lvl); r++ {
					s.t[r]++
				}
			}
		}
		if changed {
			idxs[m] = i
			ests[m] = e.Estimate()
			m++
		}
	}
}

// Estimate returns the current rough estimate of F0 (Figure 2, step 5):
// the median of 2^{r*_j}·K_RE over the three sub-estimators. It returns
// 0 while no sub-estimator has reached its threshold (F0 ≲ K_RE; the
// full algorithm does not consult R in that regime — Section 3.3's
// small-F0 machinery governs there). The returned values are
// non-decreasing in stream time.
func (e *Estimator) Estimate() uint64 {
	var rs [3]int
	for j := range e.subs {
		s := &e.subs[j]
		// Advance the monotone cursor. T_r is non-increasing in r and
		// non-decreasing in time, so the largest satisfying r only grows.
		for s.r+1 <= int(e.logN) && int(s.t[s.r+1]) >= e.thresh {
			s.r++
		}
		rs[j] = s.r
	}
	m := median3(rs[0], rs[1], rs[2])
	if m < 0 {
		return 0
	}
	return uint64(e.kre) << uint(m)
}

// MergeFrom merges another estimator that was constructed with the
// same configuration and rng seed stream (identical hash functions)
// into e, making e reflect the union of the two streams. Counters are
// max-merged — valid because each counter stores a maximum of lsb
// levels, and max is associative/commutative/idempotent.
func (e *Estimator) MergeFrom(o *Estimator) {
	if e.kre != o.kre || e.logN != o.logN {
		panic("rough: merge of incompatible estimators")
	}
	for j := range e.subs {
		s, os := &e.subs[j], &o.subs[j]
		for i := range s.c {
			if os.c[i] > s.c[i] {
				lo := int(s.c[i]) + 1
				if lo < 0 {
					lo = 0
				}
				for r := lo; r <= int(os.c[i]); r++ {
					s.t[r]++
				}
				s.c[i] = os.c[i]
			}
		}
	}
}

// Reset returns the estimator to its freshly constructed state without
// redrawing hash functions (scratch-sketch reuse; see core.FastSketch.Reset).
func (e *Estimator) Reset() {
	for j := range e.subs {
		s := &e.subs[j]
		for i := range s.c {
			s.c[i] = -1
		}
		clear(s.t)
		s.r = -1
	}
}

// SpaceBits returns the structure's accounted space: counters
// (loglog n bits each would suffice; we charge the ⌈log2(logN+2)⌉ bits
// a packed representation needs), the maintained suffix counts, and
// hash seeds — O(log n) total as Theorem 1 requires (for the
// polynomial h3, O(K_RE·log K_RE) seed bits; tabulation is charged at
// its table size, see DESIGN.md §5(1)).
func (e *Estimator) SpaceBits() int {
	perCounter := int(bitutil.CeilLog2(uint64(e.logN) + 2))
	total := e.SeedBits()
	for j := range e.subs {
		total += e.kre * perCounter
		total += len(e.subs[j].t) * 32
	}
	return total
}

// SeedBits returns the bits of the three sub-estimators' hash
// functions: the part Blank shares rather than allocates.
func (e *Estimator) SeedBits() int {
	total := 0
	for j := range e.subs {
		s := &e.subs[j]
		total += s.h1.SeedBits() + s.h2.SeedBits() + s.h3.SeedBits()
	}
	return total
}

func median3(a, b, c int) int {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		b = a
	}
	return b
}
