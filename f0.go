package knw

import (
	"math"
	"slices"
	"sort"

	"repro/internal/core"
)

// F0 estimates the number of distinct elements in an insertion-only
// stream with relative error ε and failure probability δ, in
// O(log(1/δ)·(ε⁻² + log n)) bits with O(1) worst-case update and
// reporting time per copy — the paper's main result (Theorems 2, 3,
// 9), amplified by the median over independent copies.
//
// An F0 is not safe for concurrent use: give each writer its own
// sketch built with the same options and seed and Merge them (counters
// are max-mergeable), or serialize the writers. The store package does
// the latter: its delta slots buffer each writer's hashed keys, and the
// entry's sketches take them under the entry lock.
type F0 struct {
	cfg  settings
	fast []*core.FastSketch
	ref  []*core.Sketch
}

// NewF0 builds a sketch. With no options: ε = 0.05, δ = 0.05, 32-bit
// universe, time-seeded randomness, Theorem 9 fast implementation.
func NewF0(opts ...Option) *F0 {
	cfg := defaultSettings()
	cfg.resolve(opts)
	return newF0From(cfg)
}

// newF0From builds a sketch from resolved settings (shared by NewF0,
// UnmarshalBinary and the legacy fold, which must reproduce the exact
// hash draws): fresh counters over the functions the draw cache holds
// for cfg (draws.go).
func newF0From(cfg settings) *F0 { return draws.template(cfg).blank() }

// drawF0 draws every copy's hash functions from cfg's seed, in the
// order F0 has always drawn them, into a template: an F0 without
// counter state, good only as the receiver of blank and seedBits.
func drawF0(cfg settings) *F0 {
	t := &F0{cfg: cfg}
	rng := cfg.rng()
	cc := core.Config{
		LogN:          cfg.logN,
		K:             cfg.k(),
		StrictRescale: cfg.strict,
		UseLnTable:    cfg.lnTable,
	}
	for i := 0; i < cfg.copies; i++ {
		if cfg.reference {
			t.ref = append(t.ref, core.DrawSketch(cc, rng))
		} else {
			t.fast = append(t.fast, core.DrawFastSketch(cc, rng))
		}
	}
	return t
}

// blank returns a fresh sketch over f's hash functions.
func (f *F0) blank() *F0 {
	b := &F0{cfg: f.cfg}
	for _, s := range f.fast {
		b.fast = append(b.fast, s.Blank())
	}
	for _, s := range f.ref {
		b.ref = append(b.ref, s.Blank())
	}
	return b
}

// copyFrom overwrites f's counter state with src's, reusing f's
// storage. The settings must be equal (so the hash functions are);
// src is only read. f ends holding what Open would restore from src's
// bytes: a copy phase in flight in src is finished in f.
func (f *F0) copyFrom(src *F0) {
	for i, s := range f.fast {
		s.CopyFrom(src.fast[i])
	}
	for i, s := range f.ref {
		s.CopyFrom(src.ref[i])
	}
}

// clone returns a native copy of f: fresh counter state over f's hash
// functions, filled by copyFrom.
func (f *F0) clone() *F0 {
	c := f.blank()
	c.copyFrom(f)
	return c
}

// seedBits returns the bits of every copy's hash functions: what a
// draw costs the cache.
func (f *F0) seedBits() int {
	total := 0
	for _, s := range f.fast {
		total += s.SeedBits()
	}
	for _, s := range f.ref {
		total += s.SeedBits()
	}
	return total
}

// Add records one stream element.
func (f *F0) Add(key uint64) {
	for _, s := range f.fast {
		s.Add(key)
	}
	for _, s := range f.ref {
		s.Add(key)
	}
}

// AddBatch records a batch of stream elements, equivalent to calling
// Add on each key in order (the resulting state is byte-identical
// under MarshalBinary) but with per-call overhead amortized: each copy
// evaluates its hash functions over the batch in tight pipelined
// loops. Prefer it whenever keys arrive in groups.
func (f *F0) AddBatch(keys []uint64) {
	for _, s := range f.fast {
		s.AddBatch(keys)
	}
	for _, s := range f.ref {
		s.AddBatch(keys)
	}
}

// AddBatchAll records the keys in each of ests, leaving each exactly
// as its own AddBatch would. F0s with equal settings (options and
// seed) draw equal hash functions, so each of their copies hashes a
// chunk of keys once for all of them, and only as deep as some of
// them can still change (core.AddBatchShared). Equal settings, not
// shared pointers, decide this: the draw cache may hand equal
// settings different but equal draws. Any other sketch — L0, the
// reference implementation, an F0 with other settings — takes the
// batch through its own AddBatch. The sketches must be distinct.
func AddBatchAll(keys []uint64, ests ...Estimator) {
	for i, est := range ests {
		f, ok := est.(*F0)
		if !ok || f.cfg.reference {
			est.AddBatch(keys)
			continue
		}
		if slices.ContainsFunc(ests[:i], f.sharesDraws) {
			continue // recorded with an earlier sketch's group
		}
		var buf [4]*F0
		group := append(buf[:0], f)
		for _, o := range ests[i+1:] {
			if f.sharesDraws(o) {
				group = append(group, o.(*F0))
			}
		}
		addBatchShared(group, keys)
	}
}

// sharesDraws reports whether o is a fast F0 with f's settings.
func (f *F0) sharesDraws(o Estimator) bool {
	g, ok := o.(*F0)
	return ok && g.cfg == f.cfg
}

// addBatchShared records keys in every F0 of group, all of one fast
// setting, hashing each chunk once per copy.
func addBatchShared(group []*F0, keys []uint64) {
	if len(group) == 1 {
		group[0].AddBatch(keys)
		return
	}
	var buf [4]*core.FastSketch
	for c := range group[0].fast {
		ss := buf[:0]
		for _, g := range group {
			ss = append(ss, g.fast[c])
		}
		core.AddBatchShared(ss, keys)
	}
}

// Reset returns the sketch to its freshly constructed state while
// keeping its configuration, seed, and hash draws, so it remains
// mergeable with sketches it was mergeable with before. Used to reuse
// scratch sketches instead of allocating fresh counter state.
func (f *F0) Reset() {
	for _, s := range f.fast {
		s.Reset()
	}
	for _, s := range f.ref {
		s.Reset()
	}
}

// Estimate returns the median estimate across copies. It returns NaN
// if every copy has failed (probability ≤ (1/32)^copies; see
// EstimateErr to distinguish failure from a zero estimate).
func (f *F0) Estimate() float64 {
	v, err := f.EstimateErr()
	if err != nil {
		return math.NaN()
	}
	return v
}

// EstimateErr is Estimate with an explicit error for the all-copies-
// failed case.
func (f *F0) EstimateErr() (float64, error) {
	vals := make([]float64, 0, f.cfg.copies)
	for _, s := range f.fast {
		if v, err := s.Estimate(); err == nil {
			vals = append(vals, v)
		}
	}
	for _, s := range f.ref {
		if v, err := s.Estimate(); err == nil {
			vals = append(vals, v)
		}
	}
	if len(vals) == 0 {
		return 0, core.ErrAllCopiesFailed
	}
	sort.Float64s(vals)
	m := len(vals) / 2
	if len(vals)%2 == 1 {
		return vals[m], nil
	}
	return (vals[m-1] + vals[m]) / 2, nil
}

// Merge folds other into f so that f reflects the union of both
// streams. Both sketches must have been built with the same options
// and seed (so their hash functions coincide); a mismatch returns an
// error wrapping ErrIncompatible.
func (f *F0) Merge(other *F0) error {
	if f.cfg != other.cfg {
		return errCfgMismatch(f)
	}
	for i := range f.fast {
		f.fast[i].MergeFrom(other.fast[i])
	}
	for i := range f.ref {
		f.ref[i].MergeFrom(other.ref[i])
	}
	return nil
}

// Copies returns the number of independent copies.
func (f *F0) Copies() int { return f.cfg.copies }

// Seed returns the seed the sketch's hash functions were drawn from.
// Sketches are mergeable only when built from the same options and
// seed; Keyed front-ends derive their default hasher from it.
func (f *F0) Seed() int64 { return f.cfg.seed }

// UniverseBits returns log2 of the configured key universe.
func (f *F0) UniverseBits() uint { return f.cfg.logN }

// Epsilon returns the configured target relative standard error ε
// (WithEpsilon), which the set-algebra helpers use to propagate error
// bounds through inclusion–exclusion.
func (f *F0) Epsilon() float64 { return f.cfg.eps }

// Kind returns KindF0 (the registry/envelope tag).
func (f *F0) Kind() Kind { return KindF0 }

// K returns the per-copy counter count.
func (f *F0) K() int { return f.cfg.k() }

// SpaceBits returns the total accounted state across copies: what a
// copy restored from the sketch's bytes reports, since each copy first
// finishes a rescale in flight, as encoding does.
func (f *F0) SpaceBits() int {
	total := 0
	for _, s := range f.fast {
		total += s.SpaceBits()
	}
	for _, s := range f.ref {
		total += s.SpaceBits()
	}
	return total
}

// Name labels the sketch in experiment tables.
func (f *F0) Name() string {
	if f.cfg.reference {
		return "KNW-F0(ref)"
	}
	return "KNW-F0"
}
