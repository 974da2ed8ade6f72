package knw

import (
	"math"
	"sort"

	"repro/internal/l0core"
)

// L0 estimates the Hamming norm |{i : x_i ≠ 0}| of a vector maintained
// by a turnstile stream of (key, delta) updates, with relative error ε
// and failure probability δ — the paper's Section 4 algorithm
// (Theorem 10): O(ε⁻²·log n·(log 1/ε + loglog mM)) bits per copy, O(1)
// update and reporting times, and no x_i ≥ 0 restriction.
//
// An L0 is not safe for concurrent use. Sketches with the same options
// and seed are mergeable (all counters are linear over F_p), which
// also means a merged sketch of streams A and +(−1)·B estimates the
// number of coordinates where A and B differ — the paper's data
// cleaning application.
type L0 struct {
	cfg    settings
	copies []*l0core.Sketch
}

// NewL0 builds a sketch. With no options: ε = 0.05, δ = 0.05, 32-bit
// universe, 32-bit frequency bound, time-seeded randomness.
func NewL0(opts ...Option) *L0 {
	cfg := defaultSettings()
	cfg.resolve(opts)
	return newL0From(cfg)
}

// newL0From builds a sketch from resolved settings (shared by NewL0
// and UnmarshalBinary, which must reproduce the exact hash draws).
func newL0From(cfg settings) *L0 {
	l := &L0{cfg: cfg}
	rng := cfg.rng()
	lc := l0core.Config{
		LogN:      cfg.logN,
		K:         cfg.k(),
		LogMM:     cfg.logMM,
		Reference: cfg.reference,
	}
	for i := 0; i < cfg.copies; i++ {
		l.copies = append(l.copies, l0core.NewSketch(lc, rng))
	}
	return l
}

// blank returns a fresh sketch over l's hash functions.
func (l *L0) blank() *L0 {
	b := &L0{cfg: l.cfg}
	for _, s := range l.copies {
		b.copies = append(b.copies, s.Blank())
	}
	return b
}

// copyFrom overwrites l's counters with src's (see F0.copyFrom).
func (l *L0) copyFrom(src *L0) {
	for i, s := range l.copies {
		s.CopyFrom(src.copies[i])
	}
}

// clone returns a native copy of l (see F0.clone).
func (l *L0) clone() *L0 {
	c := l.blank()
	c.copyFrom(l)
	return c
}

// Update applies x_key ← x_key + delta. Deltas of either sign are
// supported; a zero delta is a no-op.
func (l *L0) Update(key uint64, delta int64) {
	for _, s := range l.copies {
		s.Update(key, delta)
	}
}

// Add is shorthand for Update(key, 1), giving L0 the same insert-only
// interface as F0 (an F0 stream is the special case of L0 where every
// update is +1, as the paper notes).
func (l *L0) Add(key uint64) { l.Update(key, 1) }

// UpdateBatch applies the updates as if Update had been called on each
// (key, delta) pair in order, with per-call overhead amortized across
// the batch. A nil deltas slice means every delta is +1; otherwise
// len(deltas) must equal len(keys).
func (l *L0) UpdateBatch(keys []uint64, deltas []int64) {
	for _, s := range l.copies {
		s.UpdateBatch(keys, deltas)
	}
}

// AddBatch records the keys with delta +1 each.
func (l *L0) AddBatch(keys []uint64) { l.UpdateBatch(keys, nil) }

// Reset returns the sketch to its freshly constructed state while
// keeping its configuration, seed, and hash draws (see F0.Reset).
func (l *L0) Reset() {
	for _, s := range l.copies {
		s.Reset()
	}
}

// Estimate returns the median estimate across copies (NaN if every
// copy errored — see EstimateErr).
func (l *L0) Estimate() float64 {
	v, err := l.EstimateErr()
	if err != nil {
		return math.NaN()
	}
	return v
}

// EstimateErr is Estimate with an explicit error.
func (l *L0) EstimateErr() (float64, error) {
	vals := make([]float64, 0, len(l.copies))
	var lastErr error
	for _, s := range l.copies {
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

// Merge folds other into l (same options and seed required). The
// merged sketch estimates the L0 of the sum of the two streams'
// frequency vectors.
func (l *L0) Merge(other *L0) error {
	if l.cfg != other.cfg {
		return errCfgMismatch(l)
	}
	for i := range l.copies {
		l.copies[i].MergeFrom(other.copies[i])
	}
	return nil
}

// Copies returns the number of independent copies.
func (l *L0) Copies() int { return len(l.copies) }

// Seed returns the seed the sketch's hash functions were drawn from
// (see F0.Seed).
func (l *L0) Seed() int64 { return l.cfg.seed }

// UniverseBits returns log2 of the configured key universe.
func (l *L0) UniverseBits() uint { return l.cfg.logN }

// Epsilon returns the configured target relative standard error ε
// (see F0.Epsilon).
func (l *L0) Epsilon() float64 { return l.cfg.eps }

// Kind returns KindL0 (the registry/envelope tag).
func (l *L0) Kind() Kind { return KindL0 }

// SpaceBits returns the total accounted state across copies.
func (l *L0) SpaceBits() int {
	total := 0
	for _, s := range l.copies {
		total += s.SpaceBits()
	}
	return total
}

// Name labels the sketch in experiment tables.
func (l *L0) Name() string { return "KNW-L0" }
