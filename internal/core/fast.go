package core

import (
	"math"
	"math/rand"

	"repro/internal/bitutil"
	"repro/internal/hashfn"
	"repro/internal/lntable"
	"repro/internal/rough"
	"repro/internal/vla"
)

// copyChunk is the number of counters migrated per stream update during
// a deamortized offset rescale — the paper's 3·256 (proof of
// Theorem 9: est can rise by at most 3 within K/256 updates when
// RoughEstimator is correct, so copying 3·256 counters per update
// finishes each phase in time).
const copyChunk = 3 * 256

// copyChunk and every K (a power of two ≥ 32) are multiples of
// vla.BlockSize, so copy and reset phases start and stop on block
// boundaries and move whole blocks. The constants fail to compile
// otherwise.
const (
	_ uint = -(copyChunk % vla.BlockSize)
	_ uint = -(32 % vla.BlockSize)
)

// FastSketch is the Theorem 9 implementation of Figure 3, with O(1)
// worst-case update and reporting times:
//
//   - counters live in a variable-bit-length array (Theorem 8) as
//     v = C_j + 1, so an empty counter (−1) stores zero payload bits;
//   - h3 is an O(1)-evaluation tabulation family (Theorems 6–7
//     substitution; DESIGN.md §5);
//   - reporting uses the maintained occupancy T and the Appendix A.2
//     logarithm table (Lemma 7);
//   - when the offset b must change, a copy phase migrates copyChunk
//     counters per update from the primary array into a secondary one
//     at the new offset, while updates are applied to both and
//     estimates are answered from the primary (proof of Theorem 9).
//
// A FastSketch is not safe for concurrent use.
type FastSketch struct {
	cfg     Config
	keyMask uint64

	h1 *hashfn.TwoWise
	h2 *hashfn.TwoWise
	h3 *hashfn.Tabulation32 // [K³] → [2K], O(1) evaluation

	re    *rough.Estimator
	small smallF0
	ln    *lntable.Table // non-nil only when Config.UseLnTable
	lnK   float64        // ln(1 − 1/K), the estimator's fixed denominator

	// Counter arrays; arr[cur] is primary. arr[1] is nil until the
	// first copy phase needs a secondary.
	arr  [2]*vla.Array
	cur  int
	aPri int // A of the primary (Figure 3's packed-bits accounting)
	tPri int // occupancy T of the primary
	b    int // primary's offset
	est  int

	// Copy-phase state (Theorem 9's primary/secondary scheme).
	copyPos int // next slot to migrate; −1 when no phase is active
	bPend   int // the offset the secondary is being built at
	aSec    int
	tSec    int

	// Lazy reset of the retired array after a swap.
	resetPos int

	failed bool

	// Statistics for experiment E6.
	rescales int // offset changes
	drains   int // synchronous drains (rough-estimate jumps mid-phase)
}

// NewFastSketch draws a fresh Theorem 9 sketch using randomness from rng.
func NewFastSketch(cfg Config, rng *rand.Rand) *FastSketch {
	return DrawFastSketch(cfg, rng).Blank()
}

// DrawFastSketch draws a sketch's hash functions from rng — h1, h2, h3,
// then the rough estimator's, in the order NewFastSketch draws them —
// and builds the optional logarithm table. It returns them as a
// template: a FastSketch without counters, good only as the receiver
// of Blank and SeedBits.
func DrawFastSketch(cfg Config, rng *rand.Rand) *FastSketch {
	cfg.normalize()
	k := cfg.K
	s := &FastSketch{
		cfg:     cfg,
		keyMask: bitutil.Mask(cfg.LogN),
		h1:      hashfn.NewTwoWise(rng, 1),
		h2:      hashfn.NewTwoWise(rng, uint64(k)*uint64(k)*uint64(k)),
		h3:      hashfn.NewTabulation32(rng, uint64(2*k)),
		re:      rough.Draw(rough.Config{LogN: cfg.LogN, KRE: cfg.RoughKRE, Fast: true}, rng),
		lnK:     math.Log1p(-1 / float64(k)),
	}
	if cfg.UseLnTable {
		s.ln = lntable.New(k)
	}
	return s
}

// Blank returns a fresh sketch over s's hash functions and logarithm
// table: s's configuration, new empty counter state. s may be a
// template or a live sketch. Nothing writes the shared parts after
// DrawFastSketch, so sketches sharing them may run on different
// goroutines.
func (s *FastSketch) Blank() *FastSketch {
	k := s.cfg.K
	return &FastSketch{
		cfg:      s.cfg,
		keyMask:  s.keyMask,
		h1:       s.h1,
		h2:       s.h2,
		h3:       s.h3,
		re:       s.re.Blank(),
		small:    newSmallF0(k),
		ln:       s.ln,
		lnK:      s.lnK,
		arr:      [2]*vla.Array{vla.New(k)}, // the secondary comes with the first phase
		copyPos:  -1,
		resetPos: k, // the off array starts clean
	}
}

// K returns the counter count.
func (s *FastSketch) K() int { return s.cfg.K }

// Add processes stream item key in O(1) worst-case word operations.
func (s *FastSketch) Add(key uint64) {
	lvl := int(bitutil.LSB(s.h1.HashField(key)&s.keyMask, s.cfg.LogN))
	bit := int(s.h3.Hash(s.h2.Hash(key)))
	s.addHashed(key, lvl, bit)
}

// batchChunk is the number of keys whose hash values AddBatch
// precomputes per inner chunk. Small enough to stay in L1, large
// enough to amortize loop overhead and let the independent hash
// evaluations pipeline. It matches the rough estimator's chunk size so
// one chunk walk precomputes every hash the update path needs.
const batchChunk = rough.ChunkSize

// chunkHashes is the hash phase's output for one chunk of keys: what
// the apply phase of every sketch sharing the hash functions reads.
// It holds the kept keys only, those at or above the chunk's floor.
type chunkHashes struct {
	m          int               // kept keys
	pos        [batchChunk]int32 // kept keys' positions in the chunk, ascending
	lvls, bins [batchChunk]int32 // kept keys' lsb(h1(key)) and h3(h2(key))
	rsc        rough.Scratch
}

// AddBatch processes the keys exactly as sequential Add calls would —
// the resulting state is identical update for update — but evaluates
// each hash family (the sketch's own h1/h2/h3 and the rough
// estimator's nine per-key evaluations) over the whole chunk in tight
// loops, so per-key call overhead and hash-to-hash data dependencies
// are amortized across the batch, and hashes and applies only the keys
// that can change the state (AddBatchShared).
func (s *FastSketch) AddBatch(keys []uint64) {
	ss := [1]*FastSketch{s}
	AddBatchShared(ss[:], keys)
}

// AddBatchShared records the keys in every sketch of ss, leaving each
// exactly as its own AddBatch (and so per-key Add) would. The sketches
// must be distinct and share their hash functions: equal Configs drawn
// from one seed. Each chunk of keys goes through two phases:
//
//   - the hash phase runs once, over ss[0]'s functions: the level
//     lsb(h1(key)) of every key decides whether the key is kept (see
//     floors), and only kept keys get their bins h3(h2(key)); the
//     rough estimator keeps and hashes its own keys the same way;
//   - the apply phase runs per sketch: the rough estimator's kept
//     entries, then the kept keys and the rough change points in key
//     order, with the keys between them paced by run length.
//
// The floors are read from every sketch at the start of the chunk and
// combined by taking the minimum. Within a chunk counters, offsets and
// the small-F0 structure only grow, so a key below a sketch's floor at
// the chunk's start stays a no-op for it throughout the chunk, and the
// minimum keeps every key any sketch needs.
func AddBatchShared(ss []*FastSketch, keys []uint64) {
	for _, t := range ss[1:] {
		if t.cfg != ss[0].cfg {
			panic("core: shared batch over incompatible sketches")
		}
	}
	var h chunkHashes
	var cidx [batchChunk]int32
	var cest [batchChunk]uint64
	for first := true; len(keys) > 0; first = false {
		n := min(len(keys), batchChunk)
		chunk := keys[:n]
		keys = keys[n:]
		floor, rf := ss[0].floors()
		for _, t := range ss[1:] {
			f, tf := t.floors()
			floor = min(floor, f)
			rf.Lower(tf)
		}
		ss[0].hashChunk(chunk, floor, rf, &h)
		for _, t := range ss {
			t.applyChunk(chunk, &h, first, &cidx, &cest)
		}
	}
}

// floors returns the level below which no key changes s's main sketch
// and, per rough sub-estimator, the level at or below which no key
// changes s's rough estimator. A bin is read by the small-F0 structure
// until it is full, by the primary counter write when lvl ≥ b, and by
// the secondary write of a copy phase when lvl ≥ bPend > b; so the
// floor is b once the small-F0 structure is full (retired at the
// handover), and 0 (every key) before.
func (s *FastSketch) floors() (int, rough.Floors) {
	floor := 0
	if s.small.full() {
		floor = s.b
	}
	return floor, s.re.Floors()
}

// hashChunk is the hash phase of AddBatchShared: it fills h with the
// keys at level floor or above, evaluating h2/h3 for those only, and
// has the rough estimator keep the keys above its floors. It returns
// how many keys it kept and how many (key, sub-estimator) pairs of the
// rough estimator's.
func (s *FastSketch) hashChunk(keys []uint64, floor int, rf rough.Floors, h *chunkHashes) (nBins, nRough int) {
	n := len(keys)
	var red, z [batchChunk]uint64
	hashfn.ReduceChunk(keys, red[:n])
	s.h1.HashFieldChunkReduced(red[:n], z[:n])
	// A key's level lsb(z & keyMask) is at least floor exactly when the
	// low floor bits of z are clear; no level exceeds LogN.
	m := 0
	if floor <= int(s.cfg.LogN) {
		low := bitutil.Mask(uint(floor))
		for i, v := range z[:n] {
			h.pos[m] = int32(i)
			if v&low == 0 {
				m++
			}
		}
	}
	// Level the kept keys and gather them into z (each write lands at
	// or before the position read), then hash them in place.
	for q, i := range h.pos[:m] {
		h.lvls[q] = int32(bitutil.LSB(z[i]&s.keyMask, s.cfg.LogN))
		z[q] = red[i]
	}
	s.h2.HashChunkReduced(z[:m], z[:m])
	s.h3.HashChunk32(z[:m], h.bins[:m])
	h.m = m
	return m, s.re.PrecomputeAbove(red[:n], rf, &h.rsc)
}

// applyChunk is the apply phase of AddBatchShared for one sketch. It
// visits only events: the kept keys, the rough estimator's change
// points and, when first marks the batch's first chunk, the batch's
// first key. The batch's first rough consultation always runs (the
// estimate may already exceed 2^est after a merge or restore); after
// that, consultations replay only at the change points — between them
// the estimate is provably unmoved, so the skipped checks could not
// have fired. A key that is not kept has lvl < floor ≤ b < bPend, so
// its update writes no counter and is one copyChunk step of the copy
// phase or lazy reset, which pace takes by run length.
func (s *FastSketch) applyChunk(keys []uint64, h *chunkHashes, first bool, cidx *[batchChunk]int32, cest *[batchChunk]uint64) {
	// The small-F0 structure reads nothing the counters or the rough
	// estimator write, so it observes the chunk up front. Until it is
	// full the floor is 0 and every key is kept.
	if !s.small.full() {
		for q, i := range h.pos[:h.m] {
			s.small.observe(keys[i], int(h.bins[q]))
		}
	}
	// So does the rough estimator; the consultations below replay
	// against its recorded change points, exactly as the scalar path
	// would have seen them.
	r, m := s.re.ApplyChunk(&h.rsc, cidx, cest)
	n := len(keys)
	checked := !first
	next, q, p := 0, 0, 0 // next key to apply, kept key, change point
	for {
		i := n
		if !checked {
			i = next
		}
		if q < h.m {
			i = min(i, int(h.pos[q]))
		}
		if p < m {
			i = min(i, int(cidx[p]))
		}
		if i == n {
			break
		}
		s.pace(i - next)
		if q < h.m && int(h.pos[q]) == i {
			s.applyCounter(int(h.lvls[q]), int(h.bins[q]))
			q++
		} else {
			s.pace(1)
		}
		next = i + 1
		if p < m && int(cidx[p]) == i {
			r = cest[p]
			p++
		} else if checked {
			continue
		}
		if r > 0 && r > uint64(1)<<uint(s.est) {
			s.onRoughChange(r)
		}
		checked = true
	}
	s.pace(n - next)
}

// pace takes n updates' deamortization steps: copyChunk slots of the
// copy phase each, then of the lazy reset, which starts at the step
// after the one that completes the phase. With no counter write
// between them, n steps at once leave what n one-step calls leave.
func (s *FastSketch) pace(n int) {
	if n > 0 && s.copyPos >= 0 {
		steps := min(n, (s.cfg.K-s.copyPos+copyChunk-1)/copyChunk)
		s.advanceCopy(steps * copyChunk)
		n -= steps
	}
	if n > 0 && s.resetPos < s.cfg.K {
		s.advanceReset(n * copyChunk)
	}
}

// addHashed is the post-hashing tail of Add: lvl is the subsampling
// level lsb(h1(key)) and bit is h3(h2(key)) ∈ [0, 2K).
func (s *FastSketch) addHashed(key uint64, lvl, bit int) {
	s.small.observe(key, bit)
	s.applyCounter(lvl, bit)
	s.re.Update(key)
	s.checkRough()
}

// checkRough is Figure 3's per-update "if R > 2^est" consultation.
func (s *FastSketch) checkRough() {
	if r := s.re.Estimate(); r > 0 && r > uint64(1)<<uint(s.est) {
		s.onRoughChange(r)
	}
}

// applyCounter applies the counter half of one update — the counter
// writes and the deamortized phase bookkeeping — shared by the scalar
// and batched paths.
func (s *FastSketch) applyCounter(lvl, bit int) {
	if x := lvl - s.b; x >= 0 {
		// A negative offset can never beat a counter (all are ≥ −1),
		// so the write — and the A re-check, since A is unchanged — is
		// skipped without touching the VLA. With a positive b this is
		// the (1 − 2^−b)-probability path.
		j := bit & (s.cfg.K - 1)
		s.writeMax(s.arr[s.cur], &s.aPri, &s.tPri, j, x)
		if s.aPri > 3*s.cfg.K {
			s.failed = true
		}
	}
	if s.copyPos >= 0 {
		// During a phase the secondary also receives the update, but
		// only for already-migrated slots: un-migrated slots will be
		// overwritten by the (update-inclusive) primary value anyway.
		if j := bit & (s.cfg.K - 1); j < s.copyPos {
			s.writeMax(s.arr[1-s.cur], &s.aSec, &s.tSec, j, lvl-s.bPend)
		}
	}
	s.pace(1)
}

// writeMax performs C_j ← max(C_j, x) on the given array (stored as
// C+1) while maintaining its A and T accumulators.
func (s *FastSketch) writeMax(a *vla.Array, accA, accT *int, j, x int) {
	if x < 0 {
		// Counters are ≥ −1 ≥ x: the max is a no-op, so the packed
		// read can be skipped. Once the offset b is positive this is
		// the common case (a key subsamples below b with probability
		// 1 − 2^−b), and it keeps the hot path off the VLA entirely.
		return
	}
	cur := int(a.Read(j)) - 1
	if x <= cur {
		return
	}
	*accA += int(bitutil.CeilLog2(uint64(x+2))) - int(bitutil.CeilLog2(uint64(cur+2)))
	if cur < 0 { // x > cur ≥ −1 implies x ≥ 0: the counter becomes occupied
		*accT++
	}
	a.Write(j, uint64(x+1))
}

// onRoughChange recomputes est and the target offset, starting (or, if
// the rough estimate jumped while a phase was still running, draining)
// a deamortized copy phase.
func (s *FastSketch) onRoughChange(r uint64) {
	s.est = int(bitutil.FloorLog2(r))
	bnew := s.offsetFor(s.est)
	if s.copyPos >= 0 {
		if bnew == s.bPend {
			return
		}
		// est moved again mid-phase: per the paper this means
		// RoughEstimator jumped by more than its 8x guarantee within
		// K/256 updates. Theorem 9's proof outputs FAIL; by default we
		// instead drain the phase synchronously (an O(K) hiccup with
		// probability o(1)) and start over.
		if s.cfg.StrictRescale {
			s.failed = true
			return
		}
		s.drains++
		s.advanceCopy(s.cfg.K)
	}
	if bnew == s.b {
		return
	}
	if s.resetPos < s.cfg.K {
		// The retired array is not yet clean (possible only when two
		// rescales land within ~K/256 updates of each other).
		s.drains++
		s.advanceReset(s.cfg.K)
	}
	s.rescales++
	if s.arr[1] == nil {
		s.arr[1] = vla.New(s.cfg.K) // cur is 0 until the first phase ends
	}
	s.bPend = bnew
	s.aSec, s.tSec = 0, 0
	s.copyPos = 0
	s.advanceCopy(copyChunk)
}

// offsetFor is Figure 3's offset for a rough estimate of 2^est:
// b = max(0, est − log2(K/32)). The offset never exceeds offsetFor(est)
// (est and b only grow, and a merge takes the maximum of each), so a
// rescale never shifts counters up.
func (s *FastSketch) offsetFor(est int) int {
	b := est - (int(bitutil.FloorLog2(uint64(s.cfg.K))) - 5)
	if b < 0 {
		return 0
	}
	return b
}

// advanceCopy migrates up to n counters from the primary to the
// secondary at the pending offset, swapping the arrays when done.
func (s *FastSketch) advanceCopy(n int) {
	pri, sec := s.arr[s.cur], s.arr[1-s.cur]
	end := s.copyPos + n
	if end > s.cfg.K {
		end = s.cfg.K
	}
	delta := s.b - s.bPend
	var vals [vla.BlockSize]uint64
	for ; s.copyPos < end; s.copyPos += vla.BlockSize {
		pri.DecodeRange(s.copyPos, vals[:])
		for i, v := range vals {
			nc := int(v) - 1
			if nc >= 0 {
				nc += delta
				if nc < -1 {
					nc = -1
				}
			}
			if nc >= 0 {
				s.tSec++
			}
			s.aSec += int(bitutil.CeilLog2(uint64(nc + 2)))
			vals[i] = uint64(nc + 1)
		}
		sec.EncodeRange(s.copyPos, vals[:])
	}
	if s.copyPos == s.cfg.K {
		// Phase complete: the secondary becomes primary.
		s.cur = 1 - s.cur
		s.aPri, s.tPri = s.aSec, s.tSec
		s.b = s.bPend
		s.copyPos = -1
		s.resetPos = 0 // retired array is now dirty; reset it lazily
		if s.aPri > 3*s.cfg.K {
			s.failed = true
		}
	}
}

// settle finishes a copy phase or lazy reset in flight (an O(K) step),
// leaving the state RestoreState rebuilds from AppendState's bytes.
func (s *FastSketch) settle() {
	if s.copyPos >= 0 {
		s.advanceCopy(s.cfg.K)
	}
	if s.resetPos < s.cfg.K {
		s.advanceReset(s.cfg.K)
	}
}

// advanceReset lazily zeroes up to n slots of the retired array.
func (s *FastSketch) advanceReset(n int) {
	end := s.resetPos + n
	if end > s.cfg.K {
		end = s.cfg.K
	}
	s.arr[1-s.cur].ZeroRange(s.resetPos, end-s.resetPos)
	s.resetPos = end
}

// Estimate returns F̃0 with the same contract as Sketch.Estimate, in
// O(1) worst-case time (maintained T, table-based logarithm).
func (s *FastSketch) Estimate() (float64, error) {
	if v, ok := s.small.estimate(s.cfg.K); ok {
		return v, nil
	}
	if s.failed {
		return 0, ErrFailed
	}
	k := s.cfg.K
	if s.tPri == k {
		return 0, ErrSaturated
	}
	num := math.Log1p(-float64(s.tPri) / float64(k))
	if s.ln != nil {
		num = s.ln.Ln1MinusCOverK(s.tPri)
	}
	return exp2(s.b) * num / s.lnK, nil
}

// Failed reports whether the FAIL event has occurred.
func (s *FastSketch) Failed() bool { return s.failed }

// Rescales returns how many offset changes have happened (E6).
func (s *FastSketch) Rescales() int { return s.rescales }

// Drains returns how many synchronous drains were forced by mid-phase
// rough-estimate jumps (0 in healthy runs; E6 failure injection).
func (s *FastSketch) Drains() int { return s.drains }

// B returns the current subsampling offset.
func (s *FastSketch) B() int { return s.b }

// Occupied returns the primary's occupancy T.
func (s *FastSketch) Occupied() int { return s.tPri }

// InPhase reports whether a deamortized copy phase is running.
func (s *FastSketch) InPhase() bool { return s.copyPos >= 0 }

// MergeFrom merges another FastSketch built from the same Config and
// rng seed. Any active copy phases are drained first (merging is not a
// hot-path operation).
func (s *FastSketch) MergeFrom(o *FastSketch) {
	if s.cfg.K != o.cfg.K || s.cfg.LogN != o.cfg.LogN {
		panic("core: merge of incompatible sketches")
	}
	if s.copyPos >= 0 {
		s.advanceCopy(s.cfg.K)
	}
	if o.copyPos >= 0 {
		o.advanceCopy(o.cfg.K)
	}
	if o.est > s.est {
		s.est = o.est
	}
	if o.b > s.b {
		s.shiftTo(o.b)
	}
	pri, opri := s.arr[s.cur], o.arr[o.cur]
	s.aPri, s.tPri = 0, 0
	var cs, ocs [vla.BlockSize]uint64
	for lo := 0; lo < s.cfg.K; lo += vla.BlockSize {
		pri.DecodeRange(lo, cs[:])
		opri.DecodeRange(lo, ocs[:])
		changed := false
		for i := range cs {
			cv := int(cs[i]) - 1
			if ov := int(ocs[i]) - 1; ov >= 0 {
				ov += o.b - s.b
				if ov > cv {
					cv = ov
					cs[i] = uint64(cv + 1)
					changed = true
				}
			}
			s.aPri += int(bitutil.CeilLog2(uint64(cv + 2)))
			if cv >= 0 {
				s.tPri++
			}
		}
		if changed {
			pri.EncodeRange(lo, cs[:])
		}
	}
	if s.aPri > 3*s.cfg.K {
		s.failed = true
	}
	s.failed = s.failed || o.failed
	s.re.MergeFrom(o.re)
	s.small.mergeFrom(&o.small)
}

// shiftTo rebases the primary to offset bnew ≥ s.b (merge support).
func (s *FastSketch) shiftTo(bnew int) {
	if bnew == s.b {
		return
	}
	pri := s.arr[s.cur]
	delta := s.b - bnew
	var vals [vla.BlockSize]uint64
	for lo := 0; lo < s.cfg.K; lo += vla.BlockSize {
		pri.DecodeRange(lo, vals[:])
		changed := false
		for i, v := range vals {
			if v == 0 {
				continue
			}
			cv := int(v) - 1 + delta
			if cv < -1 {
				cv = -1
			}
			vals[i] = uint64(cv + 1)
			changed = true
		}
		if changed {
			pri.EncodeRange(lo, vals[:])
		}
	}
	s.b = bnew
}

// CopyFrom overwrites s's counter state with o's, reusing s's storage,
// so s ends holding what RestoreState would load from o's AppendState
// bytes: a copy phase or lazy reset in flight in o is finished in s.
// o is only read, never drained, so a sketch nobody writes can be
// copied from several goroutines at once. s and o must share their
// Config and the seed their hash functions were drawn from.
func (s *FastSketch) CopyFrom(o *FastSketch) {
	if s.cfg != o.cfg {
		panic("core: copy between incompatible sketches")
	}
	s.re.CopyFrom(o.re)
	s.small.copyFrom(&o.small)
	s.arr[0].CopyFrom(o.arr[o.cur])
	s.cur = 0
	s.aPri, s.tPri, s.b, s.est = o.aPri, o.tPri, o.b, o.est
	s.failed, s.rescales, s.drains = o.failed, o.rescales, o.drains
	s.copyPos, s.resetPos = -1, s.cfg.K
	if o.copyPos < 0 {
		if s.arr[1] != nil {
			s.arr[1].Reset()
		}
		return
	}
	// Finish o's phase in s: resume it over a copy of o's secondary,
	// then clean the array the swap retires.
	if s.arr[1] == nil {
		s.arr[1] = vla.New(s.cfg.K)
	}
	s.arr[1].CopyFrom(o.arr[1-o.cur])
	s.copyPos, s.bPend, s.aSec, s.tSec = o.copyPos, o.bPend, o.aSec, o.tSec
	s.settle()
}

// Reset returns the sketch to its freshly constructed state without
// redrawing hash functions, so a scratch sketch can be pooled and
// reused across merge-and-estimate passes.
func (s *FastSketch) Reset() {
	s.arr[0].Reset()
	if s.arr[1] != nil {
		s.arr[1].Reset()
	}
	s.cur = 0
	s.aPri, s.tPri = 0, 0
	s.b, s.est = 0, 0
	s.copyPos = -1
	s.bPend, s.aSec, s.tSec = 0, 0, 0
	s.resetPos = s.cfg.K
	s.failed = false
	s.rescales, s.drains = 0, 0
	s.re.Reset()
	s.small.reset()
}

// SeedBits returns the bits of the hash functions, the rough
// estimator's included, and of the logarithm table: the part Blank
// shares rather than allocates.
func (s *FastSketch) SeedBits() int {
	total := s.h1.SeedBits() + s.h2.SeedBits() + s.h3.SeedBits() + s.re.SeedBits()
	if s.ln != nil {
		total += s.ln.SpaceBits()
	}
	return total
}

// SpaceBits reports the accounted footprint: both counter arrays (the
// secondary exists throughout in the paper's primary/secondary
// scheme; until the first phase allocates it, it is charged as the
// all-zero array it starts as), hash seeds, the rough estimator, the
// small-F0 structure, the logarithm table, and O(1) words of
// bookkeeping. Like AppendState it first finishes a copy phase or lazy
// reset in flight, so a sketch reports what its restored copy would.
func (s *FastSketch) SpaceBits() int {
	s.settle()
	total := s.arr[0].SpaceBits()
	if s.arr[1] != nil {
		total += s.arr[1].SpaceBits()
	} else {
		total += vla.EmptyBits(s.cfg.K)
	}
	total += s.h1.SeedBits() + s.h2.SeedBits() + s.h3.SeedBits()
	total += s.re.SpaceBits()
	total += s.small.spaceBits(s.cfg.LogN)
	if s.ln != nil {
		total += s.ln.SpaceBits()
	}
	total += 10 * 64 // scalar bookkeeping
	return total
}
