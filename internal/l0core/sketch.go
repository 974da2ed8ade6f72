package l0core

import (
	"errors"
	"math"
	"math/rand"
	"sort"

	"repro/internal/ballsbins"
	"repro/internal/bitutil"
	"repro/internal/hashfn"
	"repro/internal/prime"
)

// ErrSaturated is returned when the consulted estimator row is fully
// occupied, which only happens when the rough L0 estimate failed low.
var ErrSaturated = errors.New("l0core: estimator row saturated")

// Config parameterizes an L0 Sketch.
type Config struct {
	// LogN: universe is [2^LogN]; defaults to 32, must be in [4, 62].
	LogN uint
	// K is the number of columns (the paper's K = 1/ε²); power of two
	// ≥ 32. Zero selects KForEpsilon-equivalent 4096.
	K int
	// LogMM bounds frequency magnitudes by 2^LogMM (default 32).
	LogMM uint
	// Reference selects the k-wise Carter–Wegman polynomial for h3
	// (Figure 4's analysis hash) instead of the O(1) tabulation family.
	Reference bool
	// Rough overrides the RoughL0Estimator configuration (C, Delta);
	// LogN/LogMM are copied from this Config.
	RoughC     int
	RoughDelta float64
}

func (c *Config) normalize() {
	if c.LogN == 0 {
		c.LogN = 32
	}
	if c.LogN < 4 || c.LogN > 62 {
		panic("l0core: LogN must be in [4, 62]")
	}
	if c.K == 0 {
		c.K = 4096
	}
	if c.K < 32 || !bitutil.IsPow2(uint64(c.K)) {
		panic("l0core: K must be a power of two >= 32")
	}
	if c.LogMM == 0 {
		c.LogMM = 32
	}
}

// Sketch is the Section 4 L0 estimator: the Figure 4 bit-matrix
// skeleton with every bit A_{i,j} realized as a Lemma 6 counter B_{i,j}
// over a random prime field, so deletions cannot produce false
// negatives. It supports turnstile updates (i, v) with v of either
// sign and reports (1 ± O(ε))·L0 with constant probability
// (Theorem 10); use Amplified for 1 − δ.
//
// Components:
//
//   - matrix: (log n + 1) × K counters; row = lsb(h1(i)), column =
//     h3(h2(i)); each update adds v·u_{h4(h2(i))} mod p (Lemma 6).
//   - small: an unsubsampled row of 2K counters playing the role of
//     Section 3.3's 2K-bit array, again via Lemma 6 counters, plus a
//     Lemma 8 structure for exact answers when L0 ≤ 100.
//   - rough: RoughL0Estimator supplying R at reporting time (unlike
//     F0, the full matrix is retained, so R is consulted only by the
//     estimator — this is where the extra log n factor in space comes
//     from, and why L0 needs no all-times guarantee from its rough
//     estimator).
type Sketch struct {
	cfg Config

	h1 *hashfn.TwoWise // level hash
	h2 *hashfn.TwoWise // [n] → [K³]
	h3 hashfn.Family   // [K³] → [2K]
	h4 *hashfn.TwoWise // [K³] → [K]: selects the u-coordinate (Lemma 6)

	fp prime.Field
	u  []uint64 // random vector in F_p^K

	rows    [][]uint64 // rows[r][j]: Lemma 6 counter
	rowNZ   []int      // maintained nonzero count per row
	smallC  []uint64   // 2K unsubsampled counters
	smallNZ int

	exact *ExactSmallL0
	rough *RoughL0Estimator
}

// NewSketch draws a fresh L0 sketch using randomness from rng.
func NewSketch(cfg Config, rng *rand.Rand) *Sketch {
	cfg.normalize()
	k := cfg.K
	k3 := uint64(k) * uint64(k) * uint64(k)
	// Lemma 6: p random in [D, D³] with D = 100·K·log(mM). We sample
	// from [D, 4D] — any prime ≥ D gives the divisibility bound, and
	// keeping p = Θ(D) keeps each counter at log K + loglog mM + O(1)
	// bits, the representation Theorem 10's space bound wants.
	d := uint64(100) * uint64(k) * uint64(cfg.LogMM)
	p := prime.RandPrimeIn(rng, d, 4*d)
	s := &Sketch{
		cfg: cfg,
		h1:  hashfn.NewTwoWise(rng, 1),
		h2:  hashfn.NewTwoWise(rng, k3),
		h4:  hashfn.NewTwoWise(rng, uint64(k)),
		fp:  prime.NewField(p),
	}
	if cfg.Reference {
		s.h3 = hashfn.NewKWise(rng,
			hashfn.KForEps(uint64(k), 1/math.Sqrt(float64(k))), uint64(2*k))
	} else {
		s.h3 = hashfn.NewTabulation32(rng, uint64(2*k))
	}
	s.u = make([]uint64, k)
	for i := range s.u {
		// u must avoid 0 so a lone item is never invisible (Fact 3's
		// vector w needs nonzero coordinates on singletons).
		for s.u[i] == 0 {
			s.u[i] = s.fp.Rand(rng)
		}
	}
	levels := int(cfg.LogN) + 1
	s.rows = make([][]uint64, levels)
	for r := range s.rows {
		s.rows[r] = make([]uint64, k)
	}
	s.rowNZ = make([]int, levels)
	s.smallC = make([]uint64, 2*k)
	s.exact = NewExactSmallL0(ExactCap, 1.0/64, cfg.LogMM, rng)
	s.rough = NewRoughL0(RoughL0Config{
		LogN: cfg.LogN, LogMM: cfg.LogMM,
		C: cfg.RoughC, Delta: cfg.RoughDelta,
	}, rng)
	return s
}

// Blank returns a fresh sketch over s's hash functions, prime and
// vector u: s's configuration, new zero counters. Nothing writes the
// shared parts after NewSketch, so sketches sharing them may run on
// different goroutines.
func (s *Sketch) Blank() *Sketch {
	k := s.cfg.K
	levels := len(s.rows)
	b := &Sketch{
		cfg: s.cfg,
		h1:  s.h1, h2: s.h2, h3: s.h3, h4: s.h4,
		fp: s.fp, u: s.u,
		rows:   make([][]uint64, levels),
		rowNZ:  make([]int, levels),
		smallC: make([]uint64, 2*k),
		exact:  s.exact.blank(),
		rough:  s.rough.blank(),
	}
	cells := make([]uint64, levels*k)
	for r := range b.rows {
		b.rows[r] = cells[r*k : (r+1)*k : (r+1)*k]
	}
	return b
}

// CopyFrom overwrites s's counters with o's, reusing s's storage. s and
// o must share their Config and the seed their randomness was drawn
// from; o is only read.
func (s *Sketch) CopyFrom(o *Sketch) {
	if s.cfg != o.cfg || s.fp.P != o.fp.P {
		panic("l0core: copy between incompatible sketches")
	}
	for r := range s.rows {
		copy(s.rows[r], o.rows[r])
	}
	copy(s.rowNZ, o.rowNZ)
	copy(s.smallC, o.smallC)
	s.smallNZ = o.smallNZ
	s.exact.copyFrom(o.exact)
	s.rough.copyFrom(o.rough)
}

// ExactCap is the exact-counting bound of the small-L0 regime
// (Section 4's "detecting and estimating when L0 ≤ 100").
const ExactCap = 100

// K returns the column count.
func (s *Sketch) K() int { return s.cfg.K }

// Update processes the turnstile update x_key ← x_key + v in O(1).
func (s *Sketch) Update(key uint64, v int64) {
	if v == 0 {
		return
	}
	z2 := s.h2.Hash(key)
	col2 := int(s.h3.Hash(z2)) // ∈ [0, 2K)
	r := int(bitutil.LSB(s.h1.HashField(key)&bitutil.Mask(s.cfg.LogN), s.cfg.LogN))
	s.updateHashed(key, v, z2, col2, r)
}

// batchChunk is the number of updates whose hash values UpdateBatch
// precomputes per inner chunk (see core.FastSketch.AddBatch).
const batchChunk = 256

// UpdateBatch applies the updates exactly as sequential Update calls
// would. A nil deltas slice means every delta is +1 (the F0-as-L0
// special case); otherwise len(deltas) must equal len(keys). The three
// hash families are each evaluated over the chunk in a tight loop, so
// per-call overhead and hash-to-hash data dependencies are amortized
// across the batch.
func (s *Sketch) UpdateBatch(keys []uint64, deltas []int64) {
	if deltas != nil && len(deltas) != len(keys) {
		panic("l0core: UpdateBatch length mismatch")
	}
	var z2s [batchChunk]uint64
	var col2s, rs [batchChunk]int32
	mask := bitutil.Mask(s.cfg.LogN)
	for len(keys) > 0 {
		n := len(keys)
		if n > batchChunk {
			n = batchChunk
		}
		chunk := keys[:n]
		keys = keys[n:]
		var dchunk []int64
		if deltas != nil {
			dchunk = deltas[:n]
			deltas = deltas[n:]
		}
		for i, key := range chunk {
			z2s[i] = s.h2.Hash(key)
		}
		for i := range chunk {
			col2s[i] = int32(s.h3.Hash(z2s[i]))
		}
		for i, key := range chunk {
			rs[i] = int32(bitutil.LSB(s.h1.HashField(key)&mask, s.cfg.LogN))
		}
		for i, key := range chunk {
			v := int64(1)
			if dchunk != nil {
				v = dchunk[i]
			}
			if v == 0 {
				continue
			}
			s.updateHashed(key, v, z2s[i], int(col2s[i]), int(rs[i]))
		}
	}
}

// AddBatch records the keys with delta +1 each.
func (s *Sketch) AddBatch(keys []uint64) { s.UpdateBatch(keys, nil) }

// updateHashed is the post-hashing tail of Update, shared with
// UpdateBatch: z2 = h2(key), col2 = h3(z2), r = lsb(h1(key)).
func (s *Sketch) updateHashed(key uint64, v int64, z2 uint64, col2, r int) {
	col := col2 & (s.cfg.K - 1) // matrix column
	uc := s.u[s.h4.Hash(z2)]    // Lemma 6's u-coordinate
	dv := s.fp.Mul(s.fp.ReduceInt(v), uc)

	// Matrix cell.
	row := s.rows[r]
	old := row[col]
	nw := s.fp.Add(old, dv)
	row[col] = nw
	switch {
	case old == 0 && nw != 0:
		s.rowNZ[r]++
	case old != 0 && nw == 0:
		s.rowNZ[r]--
	}

	// Unsubsampled small row.
	old = s.smallC[col2]
	nw = s.fp.Add(old, dv)
	s.smallC[col2] = nw
	switch {
	case old == 0 && nw != 0:
		s.smallNZ++
	case old != 0 && nw == 0:
		s.smallNZ--
	}

	s.exact.Update(key, v)
	s.rough.Update(key, v)
}

// Estimate returns L̃0 with Theorem 10's contract: exact (whp) when
// L0 ≤ 100, the 2K-counter inversion while L0 < K/16, and the Figure 4
// row estimator above, with R supplied by the rough estimator.
func (s *Sketch) Estimate() (float64, error) {
	k := s.cfg.K
	k2 := 2 * k
	// Small regimes, exactly as Section 3.3 transplanted by Section 4.
	// The paper's switch point is K/16, which presumes K/16 ≫ 100; for
	// small K we keep the exact structure authoritative up to its
	// promise, so the switch point is max(K/16, 2·ExactCap).
	smallLimit := float64(k) / 16
	if smallLimit < 2*ExactCap {
		smallLimit = 2 * ExactCap
	}
	if s.smallNZ < k2 {
		fb := ballsbins.Invert(s.smallNZ, k2)
		if fb < smallLimit {
			if ex := s.exact.Estimate(); ex < ExactCap && fb < 2*ExactCap {
				return float64(ex), nil
			}
			return fb, nil
		}
	}
	// Figure 4 estimator: row i* = log(16R/K), scale 2^{i*+1}.
	r := s.rough.Estimate()
	if r == 0 {
		// Rough estimator says tiny but the small row says big:
		// inconsistent state possible only inside the rough failure
		// probability; fall back to the small row's inversion.
		return ballsbins.Invert(s.smallNZ, k2), nil
	}
	row := 0
	if ratio := 16 * float64(r) / float64(k); ratio > 1 {
		row = int(math.Floor(math.Log2(ratio)))
	}
	if row > int(s.cfg.LogN) {
		row = int(s.cfg.LogN)
	}
	t := s.rowNZ[row]
	if t == k {
		return 0, ErrSaturated
	}
	return math.Exp2(float64(row+1)) * ballsbins.Invert(t, k), nil
}

// MergeFrom merges another sketch built with identical randomness:
// all Lemma 6 counters are linear over F_p, so cell-wise addition
// yields the sketch of the summed frequency vectors.
func (s *Sketch) MergeFrom(o *Sketch) {
	if s.cfg.K != o.cfg.K || s.cfg.LogN != o.cfg.LogN || s.fp.P != o.fp.P {
		panic("l0core: merge of incompatible sketches")
	}
	for r := range s.rows {
		nz := 0
		for j := range s.rows[r] {
			s.rows[r][j] = s.fp.Add(s.rows[r][j], o.rows[r][j])
			if s.rows[r][j] != 0 {
				nz++
			}
		}
		s.rowNZ[r] = nz
	}
	nz := 0
	for j := range s.smallC {
		s.smallC[j] = s.fp.Add(s.smallC[j], o.smallC[j])
		if s.smallC[j] != 0 {
			nz++
		}
	}
	s.smallNZ = nz
	s.exact.MergeFrom(o.exact)
	// The rough estimator's per-bucket counters are likewise linear.
	if len(s.rough.cnt) != len(o.rough.cnt) || s.rough.fp.p != o.rough.fp.p {
		panic("l0core: merge of incompatible rough estimators")
	}
	for j := range s.rough.cnt {
		for t := range s.rough.cnt[j] {
			nz := 0
			for b := range s.rough.cnt[j][t] {
				s.rough.cnt[j][t][b] = s.rough.fp.add(s.rough.cnt[j][t][b], o.rough.cnt[j][t][b])
				if s.rough.cnt[j][t][b] != 0 {
					nz++
				}
			}
			s.rough.nonzero[j][t] = nz
		}
		s.rough.refreshZ(j)
	}
}

// Reset returns the sketch to its freshly constructed state without
// redrawing hash functions, the prime, or the vector u, so a scratch
// sketch can be pooled and reused across merge-and-estimate passes.
func (s *Sketch) Reset() {
	for r := range s.rows {
		clear(s.rows[r])
	}
	clear(s.rowNZ)
	clear(s.smallC)
	s.smallNZ = 0
	s.exact.Reset()
	s.rough.Reset()
}

// SpaceBits charges each Lemma 6 counter at ⌈log2 p⌉ =
// log K + loglog mM + O(1) bits — Theorem 10's
// O(ε⁻²·log n·(log 1/ε + loglog mM)) — plus the small row, the exact
// structure, the rough estimator, seeds, and u (K·log p bits; the
// paper generates u from a short seed via Theorem 7's family, we store
// it explicitly and charge it).
func (s *Sketch) SpaceBits() int {
	perCell := 0
	for p := s.fp.P; p > 1; p >>= 1 {
		perCell++
	}
	total := len(s.rows) * s.cfg.K * perCell
	total += len(s.smallC) * perCell
	total += len(s.u) * perCell
	total += s.exact.SpaceBits() + s.rough.SpaceBits()
	total += s.h1.SeedBits() + s.h2.SeedBits() + s.h3.SeedBits() + s.h4.SeedBits()
	return total
}

// Amplified medians independent copies (Theorem 10's 2/3 success
// probability amplified by repetition).
type Amplified struct {
	copies []*Sketch
}

// NewAmplified builds c independent copies.
func NewAmplified(c int, cfg Config, rng *rand.Rand) *Amplified {
	if c < 1 {
		panic("l0core: need at least one copy")
	}
	a := &Amplified{copies: make([]*Sketch, c)}
	for i := range a.copies {
		a.copies[i] = NewSketch(cfg, rand.New(rand.NewSource(rng.Int63())))
	}
	return a
}

// Update feeds all copies.
func (a *Amplified) Update(key uint64, v int64) {
	for _, s := range a.copies {
		s.Update(key, v)
	}
}

// Estimate returns the median of the copies' estimates.
func (a *Amplified) Estimate() (float64, error) {
	vals := make([]float64, 0, len(a.copies))
	var lastErr error
	for _, s := range a.copies {
		v, err := s.Estimate()
		if err != nil {
			lastErr = err
			continue
		}
		vals = append(vals, v)
	}
	if len(vals) == 0 {
		return 0, lastErr
	}
	sort.Float64s(vals)
	m := len(vals) / 2
	if len(vals)%2 == 1 {
		return vals[m], nil
	}
	return (vals[m-1] + vals[m]) / 2, nil
}

// SpaceBits sums the copies.
func (a *Amplified) SpaceBits() int {
	total := 0
	for _, s := range a.copies {
		total += s.SpaceBits()
	}
	return total
}
