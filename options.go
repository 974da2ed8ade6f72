package knw

import (
	"math/rand"
	"time"

	"repro/internal/core"
)

// settings is the resolved option set shared by F0 and L0.
type settings struct {
	eps       float64
	copies    int // 0: derive from delta
	delta     float64
	seed      int64
	seedSet   bool
	logN      uint
	logMM     uint
	kOverride int
	reference bool
	lnTable   bool
	strict    bool
}

func defaultSettings() settings {
	return settings{
		eps:   0.05,
		delta: 0.05,
		logN:  32,
		logMM: 32,
	}
}

func (s *settings) resolve(opts []Option) {
	for _, o := range opts {
		o(s)
	}
	if s.copies == 0 {
		s.copies = core.CopiesForDelta(s.delta)
	}
	if !s.seedSet {
		s.seed = time.Now().UnixNano()
	}
	// Post-resolve the seed is always determined, so normalize the
	// flag: resolved settings are compared with == to gate Merge, and
	// a restored sketch (readSettings sets seedSet) must compare equal
	// to the time-seeded original it was checkpointed from.
	s.seedSet = true
}

func (s *settings) rng() *rand.Rand { return rand.New(rand.NewSource(s.seed)) }

func (s *settings) k() int {
	if s.kOverride != 0 {
		return s.kOverride
	}
	return core.KForEpsilon(s.eps)
}

// Option configures an F0 or L0 sketch.
type Option func(*settings)

// WithEpsilon sets the target relative standard error ε ∈ (0, 1)
// (default 0.05). Space grows as ε⁻².
func WithEpsilon(eps float64) Option {
	return func(s *settings) {
		if !(eps > 0 && eps < 1) { // NaN too
			panic("knw: epsilon must be in (0,1)")
		}
		s.eps = eps
	}
}

// WithDelta sets the failure probability δ (default 0.05); the sketch
// runs ⌈O(log 1/δ)⌉ independent copies and reports the median, as the
// paper prescribes ("amplified by independent repetition").
func WithDelta(delta float64) Option {
	return func(s *settings) {
		if !(delta > 0 && delta < 1) { // NaN too
			panic("knw: delta must be in (0,1)")
		}
		s.delta = delta
	}
}

// WithCopies overrides the number of independent copies directly
// (use an odd number; 1 gives the raw single-shot sketch with the
// paper's per-copy success probability).
func WithCopies(c int) Option {
	return func(s *settings) {
		if c < 1 {
			panic("knw: need at least one copy")
		}
		s.copies = c
	}
}

// WithSeed makes the sketch deterministic. Two sketches built with the
// same options and seed are mergeable. Without it, a time-derived seed
// is used.
func WithSeed(seed int64) Option {
	return func(s *settings) { s.seed = seed; s.seedSet = true }
}

// WithUniverseBits sets log2 of the key universe (default 32; up to
// 62). Space grows additively with this (the paper's log n term).
func WithUniverseBits(b uint) Option {
	return func(s *settings) {
		if b < 4 || b > 62 {
			panic("knw: universe bits must be in [4, 62]")
		}
		s.logN = b
	}
}

// WithUpdateBits (L0 only) sets log2 of the maximum absolute frequency
// any item can reach (the paper's mM; default 32).
func WithUpdateBits(b uint) Option {
	return func(s *settings) {
		if b < 1 || b > 62 {
			panic("knw: update bits must be in [1, 62]")
		}
		s.logMM = b
	}
}

// WithK overrides the counter count K = 1/ε'² directly (a power of two
// ≥ 32), bypassing the calibrated ε→K mapping. For experiments.
func WithK(k int) Option {
	return func(s *settings) { s.kOverride = k }
}

// WithReference selects the reference implementations (Figure 3 with
// plain counters and Carter–Wegman polynomial hashing; O(1) amortized
// rather than worst-case time). Default is the Theorem 9 fast variant.
func WithReference() Option {
	return func(s *settings) { s.reference = true }
}

// WithLnTable routes reporting through the Appendix A.2 logarithm
// table (paper-exact Theorem 9 reporting) instead of the hardware
// log1p. F0 fast variant only.
func WithLnTable() Option {
	return func(s *settings) { s.lnTable = true }
}

// WithStrictRescale makes mid-rescale rough-estimate jumps FAIL the
// affected copy, exactly as in the proof of Theorem 9, instead of
// draining the copy phase synchronously.
func WithStrictRescale() Option {
	return func(s *settings) { s.strict = true }
}
