package l0core

import (
	"math/bits"
	"math/rand"

	"repro/internal/bitutil"
	"repro/internal/hashfn"
)

// RoughL0Estimator is the Appendix A.3 structure (Theorem 11): a
// constant-factor approximation of L0 under insertions and deletions,
// in O(log(n)·loglog(mM)) bits with O(1) update and reporting times.
//
// A pairwise-independent h splits the universe into substreams
// S_j = {x : lsb(h(x)) = j}; each substream feeds a Lemma 8 structure
// B_j, all sharing the same O(log 1/δ) bucket-hash functions. The
// reported level ĵ is the deepest j whose B_j counts more than 8 live
// items; 2^ĵ then sits within a constant factor below L0 (between
// ~L0/220 and ~L0/2 with probability ≥ 9/16 by the Theorem 11
// analysis), and a fixed scale-up yields R with L0 ≤ R ≤ O(1)·L0.
//
// O(1) reporting uses the paper's machine-word trick: a word z keeps
// bit j set iff B_j currently reports > 8, maintained on counter
// zero↔nonzero transitions; the deepest reporting level is then a
// most-significant-bit computation.
type RoughL0Estimator struct {
	logN    uint
	h       *hashfn.TwoWise
	c       int // Lemma 8 promise bound per level (paper: 141)
	buckets int
	fp      fieldRef
	bucketH []*hashfn.TwoWise // shared across levels, O(log 1/δ) of them
	// cnt[level][trial][bucket] and nonzero[level][trial].
	cnt     [][][]uint64
	nonzero [][]int
	z       uint64 // bit j set iff level j reports > 8 live items
}

// fieldRef is a tiny copy of the prime field parameters shared by all
// levels (one random prime for the whole structure, as the paper's
// instantiations share hash functions).
type fieldRef struct {
	p uint64
}

func (f fieldRef) add(a, b uint64) uint64 {
	s := a + b
	if s >= f.p {
		s -= f.p
	}
	return s
}

func (f fieldRef) reduceInt(v int64) uint64 {
	m := v % int64(f.p)
	if m < 0 {
		m += int64(f.p)
	}
	return uint64(m)
}

// RoughL0Config parameterizes RoughL0Estimator.
type RoughL0Config struct {
	// LogN: universe is [2^LogN]. Must be in [1, 62].
	LogN uint
	// C is the per-level Lemma 8 exactness bound. The paper uses 141;
	// the threshold test "count > 8" only needs exact counting slightly
	// above 8 plus non-collapsing behaviour above (the number of
	// occupied buckets among c² is monotone-ish in the live set and
	// exceeds 8 whenever > ~10 items are live), so the default 24 keeps
	// the c² bucket arrays practical. Zero selects 24; tests also
	// exercise the paper's 141.
	C int
	// Delta is each level's Lemma 8 failure probability (paper: 1/16).
	Delta float64
	// LogMM bounds frequency magnitudes by 2^LogMM (paper's mM).
	LogMM uint
}

func (c *RoughL0Config) normalize() {
	if c.LogN == 0 || c.LogN > 62 {
		panic("l0core: LogN must be in [1, 62]")
	}
	if c.C == 0 {
		c.C = 24
	}
	if c.C < 9 {
		panic("l0core: C must be > 8 for the reporting threshold")
	}
	if c.Delta == 0 {
		c.Delta = 1.0 / 16
	}
	if c.LogMM == 0 {
		c.LogMM = 32
	}
}

// reportThreshold is the "more than 8 live items" rule of Theorem 11.
const reportThreshold = 8

// NewRoughL0 draws a fresh RoughL0Estimator.
func NewRoughL0(cfg RoughL0Config, rng *rand.Rand) *RoughL0Estimator {
	cfg.normalize()
	trials := Lemma8Trials(cfg.Delta)
	// One Lemma 8 instance supplies the shared prime; its own arrays
	// are discarded (levels have their own).
	proto := NewExactSmallL0(cfg.C, cfg.Delta, cfg.LogMM, rng)
	levels := int(cfg.LogN) + 1
	e := &RoughL0Estimator{
		logN:    cfg.LogN,
		h:       hashfn.NewTwoWise(rng, 1),
		c:       cfg.C,
		buckets: cfg.C * cfg.C,
		fp:      fieldRef{p: proto.fp.P},
		bucketH: make([]*hashfn.TwoWise, trials),
		cnt:     make([][][]uint64, levels),
		nonzero: make([][]int, levels),
	}
	for t := range e.bucketH {
		e.bucketH[t] = hashfn.NewTwoWise(rng, uint64(e.buckets))
	}
	for j := range e.cnt {
		e.cnt[j] = make([][]uint64, trials)
		e.nonzero[j] = make([]int, trials)
		for t := range e.cnt[j] {
			e.cnt[j][t] = make([]uint64, e.buckets)
		}
	}
	return e
}

// blank returns a fresh estimator over e's hash functions and prime.
func (e *RoughL0Estimator) blank() *RoughL0Estimator {
	b := *e
	b.cnt = make([][][]uint64, len(e.cnt))
	b.nonzero = make([][]int, len(e.nonzero))
	for j := range b.cnt {
		b.cnt[j] = make([][]uint64, len(e.bucketH))
		b.nonzero[j] = make([]int, len(e.bucketH))
		for t := range b.cnt[j] {
			b.cnt[j][t] = make([]uint64, e.buckets)
		}
	}
	b.z = 0
	return &b
}

// copyFrom makes e's counters and report word equal to o's.
func (e *RoughL0Estimator) copyFrom(o *RoughL0Estimator) {
	for j := range e.cnt {
		for t := range e.cnt[j] {
			copy(e.cnt[j][t], o.cnt[j][t])
		}
		copy(e.nonzero[j], o.nonzero[j])
	}
	e.z = o.z
}

// Update processes the turnstile update x_key ← x_key + v in O(1)
// (one level, constant trials).
func (e *RoughL0Estimator) Update(key uint64, v int64) {
	dv := e.fp.reduceInt(v)
	if dv == 0 {
		return
	}
	j := bitutil.LSB(e.h.HashField(key)&bitutil.Mask(e.logN), e.logN)
	lvl := e.cnt[j]
	changed := false
	for t := range e.bucketH {
		b := e.bucketH[t].Hash(key)
		old := lvl[t][b]
		nw := e.fp.add(old, dv)
		lvl[t][b] = nw
		switch {
		case old == 0 && nw != 0:
			e.nonzero[j][t]++
			changed = true
		case old != 0 && nw == 0:
			e.nonzero[j][t]--
			changed = true
		}
	}
	if changed {
		e.refreshZ(int(j))
	}
}

// refreshZ recomputes bit j of the report word from the maintained
// per-trial counts (O(trials) = O(1)).
func (e *RoughL0Estimator) refreshZ(j int) {
	above := false
	for _, nz := range e.nonzero[j] {
		if nz > reportThreshold {
			above = true
			break
		}
	}
	if above {
		e.z |= 1 << uint(j)
	} else {
		e.z &^= 1 << uint(j)
	}
}

// LevelEstimate returns B_j's Lemma 8 output (max over trials of the
// nonzero-bucket count) — exact when L0(S_j) ≤ C.
func (e *RoughL0Estimator) LevelEstimate(j int) int {
	best := 0
	for _, nz := range e.nonzero[j] {
		if nz > best {
			best = nz
		}
	}
	return best
}

// deepestReporting returns the largest j with a > 8 report, or −1.
func (e *RoughL0Estimator) deepestReporting() int {
	if e.z == 0 {
		return -1
	}
	return 63 - bits.LeadingZeros64(e.z)
}

// EstimateCoarse is the paper-literal Theorem 11 output: 2^ĵ for the
// deepest reporting level ĵ (1 when none reports). It sits within
// (L0/220, L0/2] with probability ≥ 9/16, i.e. it is a constant-factor
// UNDER-estimate by design; callers wanting R ≥ L0 use Estimate.
func (e *RoughL0Estimator) EstimateCoarse() uint64 {
	j := e.deepestReporting()
	if j < 0 {
		return 1
	}
	return 1 << uint(j)
}

// Estimate returns R with L0 ≤ R ≤ O(1)·L0 (with the Theorem 11
// success probability; amplify externally if needed). Rather than
// scaling the coarse 2^ĵ by its worst-case factor 220 — which would
// make the Figure 4 row estimator subsample ~256× too deep in the
// typical case — we exploit that B_ĵ's count is L0(S_ĵ) exactly (whp,
// Lemma 8): L0(S_ĵ)·2^{ĵ+1} is an unbiased estimate of L0, and a 4×
// safety factor puts R above L0 with the same probability the paper's
// analysis gives the coarse bound. Experiment E9 measures both.
// Returns 0 when no level reports and the structure has seen nothing
// at shallow levels either (L0 small; the Figure 4 caller is then in
// its small-L0 regime and never consults R).
func (e *RoughL0Estimator) Estimate() uint64 {
	j := e.deepestReporting()
	if j < 0 {
		return 0
	}
	count := e.LevelEstimate(j)
	r := uint64(count) << uint(j+1) // ≈ L0
	return 4 * r
}

// Reset clears all counters for reuse without redrawing hashes.
func (e *RoughL0Estimator) Reset() {
	for j := range e.cnt {
		for t := range e.cnt[j] {
			clear(e.cnt[j][t])
		}
		clear(e.nonzero[j])
	}
	e.z = 0
}

// SpaceBits charges buckets at ⌈log2 p⌉ bits plus hash seeds —
// O(log n · loglog mM) with the paper's (large) constants; see the
// RoughL0Config.C note.
func (e *RoughL0Estimator) SpaceBits() int {
	perBucket := 0
	for p := e.fp.p; p > 1; p >>= 1 {
		perBucket++
	}
	total := len(e.cnt) * len(e.bucketH) * e.buckets * perBucket
	total += e.h.SeedBits()
	for _, h := range e.bucketH {
		total += h.SeedBits()
	}
	total += 64 // z
	return total
}
