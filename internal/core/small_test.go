package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/binenc"
	"repro/internal/bitutil"
)

// TestSmallF0RetiresAtHandover: the small-F0 array retires — sets
// every bit — at the first observation that finds the exact phase over
// and the occupancy at handoverBits(K), and no estimate moves for it:
// a shadow array that never retires answers every estimate the same,
// through Add and through AddBatch.
func TestSmallF0RetiresAtHandover(t *testing.T) {
	for _, c := range []struct{ k, bits int }{{32, 2}, {2048, 127}, {32768, 2017}} {
		if got := handoverBits(c.k); got != c.bits {
			t.Errorf("handoverBits(%d) = %d, want %d", c.k, got, c.bits)
		}
		// The rule is a threshold: the array answers below it and
		// defers to Figure 3 at and above it.
		for tb := 0; tb <= 2*c.k; tb++ {
			if _, ok := bitsEstimate(tb, c.k); ok != (tb < c.bits) {
				t.Fatalf("K=%d: bitsEstimate(%d) answers %v against a handover at %d", c.k, tb, ok, c.bits)
			}
		}
	}
	for _, k := range []int{32, 2048, 32768} {
		tmpl := DrawFastSketch(Config{K: k}, rand.New(rand.NewSource(5)))
		keys := oracleStream(rand.New(rand.NewSource(int64(k))), 4*ExactCap+3*handoverBits(k))
		split := randomSplit(rand.New(rand.NewSource(6)), keys)
		single := make([][]uint64, len(keys))
		for i := range keys {
			single[i] = keys[i : i+1]
		}
		for _, path := range []struct {
			name    string
			batches [][]uint64
			add     func(s *FastSketch, batch []uint64)
		}{
			{"Add", single, func(s *FastSketch, b []uint64) { s.Add(b[0]) }},
			{"AddBatch/single", single, (*FastSketch).AddBatch},
			{"AddBatch/split", split, (*FastSketch).AddBatch},
		} {
			t.Run(fmt.Sprintf("K=%d/%s", k, path.name), func(t *testing.T) {
				s := tmpl.Blank()
				shadow := smallF0{bv: bitutil.NewBitVector(2 * k), handover: 2*k + 1}
				retired := false
				for bi, batch := range path.batches {
					path.add(s, batch)
					for _, key := range batch {
						shadow.observe(key, int(s.h3.Hash(s.h2.Hash(key))))
					}
					gv, gok := s.small.estimate(k)
					wv, wok := shadow.estimate(k)
					if gv != wv || gok != wok {
						t.Fatalf("batch %d: estimate (%v, %v), the never-retiring array's (%v, %v)", bi, gv, gok, wv, wok)
					}
					handed := shadow.overflow && shadow.bv.Count() >= handoverBits(k)
					if s.small.full() != handed {
						t.Fatalf("batch %d: retired %v with %d of %d bits set and the exact phase over %v",
							bi, s.small.full(), shadow.bv.Count(), 2*k, shadow.overflow)
					}
					if !handed && !slices.Equal(s.small.bv.Words(), shadow.bv.Words()) {
						t.Fatalf("batch %d: bits differ before the handover", bi)
					}
					retired = retired || handed
				}
				if !retired {
					t.Fatal("the stream never reached the handover")
				}
			})
		}
	}
	t.Run("MergeFrom, RestoreState, CopyFrom", handoverSurvivesMergeRestoreCopy)
}

// handoverSurvivesMergeRestoreCopy: MergeFrom, RestoreState and
// CopyFrom carry a handed-over array's bits as they are, so their bytes
// stay those of the union, the encoding and the source; the next
// observed key, through Add or AddBatch, retires the array.
func handoverSurvivesMergeRestoreCopy(t *testing.T) {
	const k = 2048
	tmpl := DrawFastSketch(Config{K: k}, rand.New(rand.NewSource(5)))
	rng := rand.New(rand.NewSource(9))
	// Each half is past its exact phase and short of the handover;
	// together they are past it.
	half := func() *FastSketch {
		s := tmpl.Blank()
		for !s.small.overflow || s.small.bv.Count() < handoverBits(k)-15 {
			s.Add(rng.Uint64())
		}
		return s
	}
	a, b := half(), half()
	union := a.small.bv.Clone()
	union.Or(b.small.bv)
	if union.Count() < handoverBits(k) || union.Count() == 2*k {
		t.Fatalf("the union holds %d bits; the test needs it handed over and not full", union.Count())
	}

	merged := tmpl.Blank()
	merged.CopyFrom(a)
	merged.MergeFrom(b)
	var w binenc.Writer
	merged.AppendState(&w)
	restored := tmpl.Blank()
	if err := restored.RestoreState(&binenc.Reader{Buf: slices.Clone(w.Buf)}); err != nil {
		t.Fatal(err)
	}
	copied := tmpl.Blank()
	copied.CopyFrom(merged)
	batched := tmpl.Blank()
	batched.CopyFrom(merged)
	targets := []struct {
		name string
		s    *FastSketch
	}{{"merged", merged}, {"restored", restored}, {"copied", copied}, {"copied for AddBatch", batched}}
	for _, c := range targets {
		if !slices.Equal(c.s.small.bv.Words(), union.Words()) {
			t.Errorf("%s: bits are not the union's", c.name)
		}
		if floor, _ := c.s.floors(); floor != 0 {
			t.Errorf("%s: floor %d before any key retired the array", c.name, floor)
		}
	}
	var w2 binenc.Writer
	restored.AppendState(&w2)
	if !bytes.Equal(w.Buf, w2.Buf) {
		t.Error("the restored sketch re-encodes differently")
	}

	key := rng.Uint64()
	merged.Add(key)
	restored.Add(key)
	copied.Add(key)
	batched.AddBatch([]uint64{key})
	for _, c := range targets {
		if !c.s.small.full() {
			t.Errorf("%s: the next key left %d of %d bits set", c.name, c.s.small.bv.Count(), 2*k)
		}
	}
}

// TestSpaceBitsMatchesRestored: a live sketch caught with a copy phase
// or a lazy reset in flight reports the SpaceBits of the sketch
// restored from its bytes. SpaceBits used to charge the payload those
// phases leave in the arrays, which a restored sketch never holds, so
// a store's estimate before and after a restart could differ.
func TestSpaceBitsMatchesRestored(t *testing.T) {
	cfg := Config{K: 8192}
	tmpl := DrawFastSketch(cfg, rand.New(rand.NewSource(3)))
	s := tmpl.Blank()
	rng := rand.New(rand.NewSource(4))
	var inCopy, inReset int
	for i := 0; i < 4_000_000 && (inCopy < 4 || inReset < 4); i++ {
		s.Add(rng.Uint64())
		// SpaceBits finishes what it finds in flight, so alternate
		// rescales are caught in their copy phase and in their reset.
		switch {
		case s.rescales%2 == 0 && s.copyPos >= 0:
			inCopy++
		case s.rescales%2 == 1 && s.copyPos < 0 && s.resetPos < cfg.K:
			inReset++
		default:
			continue
		}
		live := s.SpaceBits()
		var w binenc.Writer
		s.AppendState(&w)
		r := tmpl.Blank()
		if err := r.RestoreState(&binenc.Reader{Buf: w.Buf}); err != nil {
			t.Fatal(err)
		}
		if restored := r.SpaceBits(); live != restored {
			t.Fatalf("key %d, rescale %d: SpaceBits %d live, %d restored", i, s.rescales, live, restored)
		}
	}
	if inCopy < 4 || inReset < 4 {
		t.Fatalf("caught %d copy phases and %d resets in flight; the test covers too little", inCopy, inReset)
	}
}
