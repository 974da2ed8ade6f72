package core

// Property-based tests on the sketch algebra: the merge operation is a
// semilattice join (counters combine by max), so union order must
// never matter, merging a sketch with itself must be the identity, and
// the two implementations must agree on identical inputs.

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/binenc"
	"repro/internal/vla"
)

func buildPair(seed int64, keysA, keysB []uint64) (*FastSketch, *FastSketch) {
	a := NewFastSketch(Config{K: 256, LogN: 32}, rand.New(rand.NewSource(seed)))
	b := NewFastSketch(Config{K: 256, LogN: 32}, rand.New(rand.NewSource(seed)))
	for _, k := range keysA {
		a.Add(k)
	}
	for _, k := range keysB {
		b.Add(k)
	}
	return a, b
}

func TestMergeCommutative(t *testing.T) {
	f := func(seed int64, rawA, rawB []uint64) bool {
		ab1, ab2 := buildPair(seed, rawA, rawB)
		ba1, ba2 := buildPair(seed, rawB, rawA)
		ab1.MergeFrom(ab2) // A ∪ B
		ba1.MergeFrom(ba2) // B ∪ A
		va, ea := ab1.Estimate()
		vb, eb := ba1.Estimate()
		if (ea == nil) != (eb == nil) {
			return false
		}
		if ea != nil {
			return true
		}
		return va == vb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestMergeIdempotent(t *testing.T) {
	f := func(seed int64, raw []uint64) bool {
		a, b := buildPair(seed, raw, raw) // identical streams
		before, err1 := a.Estimate()
		a.MergeFrom(b)
		after, err2 := a.Estimate()
		if (err1 == nil) != (err2 == nil) {
			return false
		}
		if err1 != nil {
			return true
		}
		return before == after
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestMergeAssociativeAcrossThree(t *testing.T) {
	mk := func(keys []uint64) *FastSketch {
		s := NewFastSketch(Config{K: 256, LogN: 32}, rand.New(rand.NewSource(99)))
		for _, k := range keys {
			s.Add(k)
		}
		return s
	}
	f := func(ka, kb, kc []uint64) bool {
		// (A ∪ B) ∪ C
		left := mk(ka)
		left.MergeFrom(mk(kb))
		left.MergeFrom(mk(kc))
		// A ∪ (B ∪ C)
		bc := mk(kb)
		bc.MergeFrom(mk(kc))
		right := mk(ka)
		right.MergeFrom(bc)
		lv, le := left.Estimate()
		rv, re := right.Estimate()
		if (le == nil) != (re == nil) {
			return false
		}
		if le != nil {
			return true
		}
		return lv == rv
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestEstimateNonNegativeAndFinite(t *testing.T) {
	f := func(seed int64, raw []uint64) bool {
		s := NewFastSketch(Config{K: 64, LogN: 16}, rand.New(rand.NewSource(seed)))
		for _, k := range raw {
			s.Add(k)
		}
		v, err := s.Estimate()
		if err != nil {
			return true // FAIL/saturation surfaces as error, never as NaN
		}
		return v >= 0 && !math.IsNaN(v) && !math.IsInf(v, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestImplementationsAgreeOnSmallStreams(t *testing.T) {
	// Below ExactCap both implementations are exact, so they must agree
	// bit-for-bit regardless of their different internals.
	f := func(raw []uint64) bool {
		ref := NewSketch(Config{K: 64, LogN: 32}, rand.New(rand.NewSource(5)))
		fast := NewFastSketch(Config{K: 64, LogN: 32}, rand.New(rand.NewSource(5)))
		seen := map[uint64]struct{}{}
		for _, k := range raw {
			if len(seen) >= ExactCap-1 {
				break
			}
			seen[k] = struct{}{}
			ref.Add(k)
			fast.Add(k)
		}
		rv, _ := ref.Estimate()
		fv, _ := fast.Estimate()
		return rv == float64(len(seen)) && fv == float64(len(seen))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestOffsetNeverNegativeProperty(t *testing.T) {
	// b = max(0, est − log(K/32)) must never go negative no matter the
	// stream shape (Figure 3 step a).
	rng := rand.New(rand.NewSource(6))
	s := NewFastSketch(Config{K: 32}, rng) // smallest legal K stresses bnew
	for i := 0; i < 200000; i++ {
		s.Add(rng.Uint64())
		if s.B() < 0 {
			t.Fatalf("offset went negative at update %d", i)
		}
	}
}

// TestBlankSharesDrawsNotState: a blank of a live sketch starts empty,
// then evolves exactly like a sketch drawn afresh from the same seed,
// and leaves the live sketch's state alone — for both implementations.
func TestBlankSharesDrawsNotState(t *testing.T) {
	cfg := Config{K: 256}
	keys := make([]uint64, 20000)
	for i := range keys {
		keys[i] = uint64(i)*0x9e3779b97f4a7c15 + 1
	}
	type sketch interface {
		AddBatch([]uint64)
		Estimate() (float64, error)
		AppendState(*binenc.Writer)
	}
	state := func(s sketch) string {
		var w binenc.Writer
		s.AppendState(&w)
		return string(w.Buf)
	}
	for name, mk := range map[string]func() (live, blank, fresh sketch){
		"fast": func() (sketch, sketch, sketch) {
			live := NewFastSketch(cfg, rand.New(rand.NewSource(8)))
			live.AddBatch(keys)
			return live, live.Blank(), NewFastSketch(cfg, rand.New(rand.NewSource(8)))
		},
		"reference": func() (sketch, sketch, sketch) {
			live := NewSketch(cfg, rand.New(rand.NewSource(8)))
			live.AddBatch(keys)
			return live, live.Blank(), NewSketch(cfg, rand.New(rand.NewSource(8)))
		},
	} {
		live, blank, fresh := mk()
		before := state(live)
		if v, err := blank.Estimate(); v != 0 || err != nil {
			t.Errorf("%s: blank estimates %v, %v; want 0", name, v, err)
		}
		blank.AddBatch(keys[:5000])
		fresh.AddBatch(keys[:5000])
		if state(blank) != state(fresh) {
			t.Errorf("%s: blank and fresh draw diverge on the same stream", name)
		}
		if state(live) != before {
			t.Errorf("%s: updating the blank changed the live sketch", name)
		}
	}
}

func TestPhasesStayBlockAligned(t *testing.T) {
	// copyChunk and every legal K are multiples of vla.BlockSize, so
	// copy and reset phases start and stop on block boundaries and the
	// whole-block passes never see part of a block (fast.go guards the
	// constants at compile time; here the phases are watched running).
	if copyChunk%vla.BlockSize != 0 {
		t.Fatalf("copyChunk %d is not a multiple of vla.BlockSize %d", copyChunk, vla.BlockSize)
	}
	for _, k := range []int{32, 64, 1024, 4096} {
		rng := rand.New(rand.NewSource(int64(k)))
		s := NewFastSketch(Config{K: k}, rng)
		midPhase := 0
		for i := 0; i < 100000; i++ {
			s.Add(rng.Uint64())
			if s.copyPos%vla.BlockSize > 0 || s.resetPos%vla.BlockSize != 0 {
				t.Fatalf("K=%d, update %d: phase positions %d (copy), %d (reset) are not block-aligned",
					k, i, s.copyPos, s.resetPos)
			}
			if s.copyPos > 0 {
				midPhase++
			}
		}
		if k > copyChunk && midPhase == 0 {
			t.Errorf("K=%d: no update landed inside a copy phase", k)
		}
	}
}

func TestAInvariantMatchesCounters(t *testing.T) {
	// The maintained A must equal Σ⌈log2(C_j+2)⌉ recomputed from
	// scratch at any point (Figure 3's accounting, which the FAIL
	// bound depends on).
	rng := rand.New(rand.NewSource(7))
	s := NewSketch(Config{K: 1024}, rng)
	for i := 0; i < 300000; i++ {
		s.Add(rng.Uint64())
		if i%50000 == 0 {
			want := 0
			occ := 0
			for _, c := range s.c {
				want += ceilLog2ForTest(int(c) + 2)
				if c >= 0 {
					occ++
				}
			}
			if s.A() != want {
				t.Fatalf("A=%d but recomputed %d at update %d", s.A(), want, i)
			}
			if s.Occupied() != occ {
				t.Fatalf("T=%d but recomputed %d at update %d", s.Occupied(), occ, i)
			}
		}
	}
}

func ceilLog2ForTest(x int) int {
	if x <= 1 {
		return 0
	}
	n, p := 0, 1
	for p < x {
		p <<= 1
		n++
	}
	return n
}
