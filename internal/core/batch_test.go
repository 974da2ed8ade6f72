package core

// The batch path's oracle is per-key Add. AddBatch and AddBatchShared
// hash a chunk once and keep, hash and apply only the keys at or above
// the targets' floors; every sketch must still end each batch exactly
// where Add of each key leaves it — counters, phase bookkeeping and
// encoded bytes — whatever the batch split and whatever state each
// target starts in.

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/binenc"
	"repro/internal/bitutil"
	"repro/internal/hashfn"
)

// phaseState is the bookkeeping AppendState does not carry: a copy
// phase in flight, the lazy reset and the arrays' roles.
func phaseState(s *FastSketch) string {
	return fmt.Sprintf("cur=%d a=%d t=%d b=%d est=%d copy=%d bPend=%d aSec=%d tSec=%d reset=%d failed=%v rescales=%d drains=%d",
		s.cur, s.aPri, s.tPri, s.b, s.est, s.copyPos, s.bPend, s.aSec, s.tSec, s.resetPos, s.failed, s.rescales, s.drains)
}

// encoded returns s's encoding without draining s: AppendState of a
// copy, which finishes any phase in flight on its own storage.
func encoded(s *FastSketch) []byte {
	c := s.Blank()
	c.CopyFrom(s)
	var w binenc.Writer
	c.AppendState(&w)
	return w.Buf
}

// sameState fails t unless got holds exactly want's state.
func sameState(t *testing.T, what string, got, want *FastSketch) {
	t.Helper()
	if g, w := phaseState(got), phaseState(want); g != w {
		t.Fatalf("%s: phase state diverged:\n got %s\nwant %s", what, g, w)
	}
	if !bytes.Equal(encoded(got), encoded(want)) {
		t.Fatalf("%s: encoded state diverged from per-key Add", what)
	}
}

// oracleStream draws n keys: fresh ones mixed with repeats of recent
// and of hot keys, so duplicates land inside and across chunks.
func oracleStream(rng *rand.Rand, n int) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		switch r := rng.Intn(10); {
		case r < 6 || i == 0:
			keys[i] = rng.Uint64()
		case r < 8:
			keys[i] = keys[rng.Intn(i)]
		default:
			keys[i] = uint64(rng.Intn(200))
		}
	}
	return keys
}

// randomSplit cuts keys into batches of random sizes, from single keys
// to several chunks.
func randomSplit(rng *rand.Rand, keys []uint64) [][]uint64 {
	var out [][]uint64
	for len(keys) > 0 {
		n := min(len(keys), 1+rng.Intn(3*batchChunk))
		if rng.Intn(4) == 0 {
			n = min(len(keys), 1+rng.Intn(8))
		}
		out = append(out, keys[:n])
		keys = keys[n:]
	}
	return out
}

// oracleTarget pairs a sketch fed through the batch path with its
// oracle, a sketch of the same draw fed per key.
type oracleTarget struct {
	name          string
	batched, want *FastSketch
}

func (o *oracleTarget) addKeys(keys []uint64) {
	for _, k := range keys {
		o.want.Add(k)
	}
}

// feed records each batch in every target, through AddBatch when
// there is one target and AddBatchShared otherwise, and checks every
// target against its oracle after each batch.
func feed(t *testing.T, rng *rand.Rand, what string, keys []uint64, ts ...*oracleTarget) {
	t.Helper()
	ss := make([]*FastSketch, len(ts))
	for i, o := range ts {
		ss[i] = o.batched
	}
	for bi, batch := range randomSplit(rng, keys) {
		if len(ss) == 1 {
			ss[0].AddBatch(batch)
		} else {
			AddBatchShared(ss, batch)
		}
		for _, o := range ts {
			o.addKeys(batch)
			where := fmt.Sprintf("%s, batch %d (%d keys), %s", what, bi, len(batch), o.name)
			sameState(t, where, o.batched, o.want)
			handoverFloor(t, where, o.batched)
		}
	}
}

// handoverFloor fails t unless s's main floor follows the handover
// rule after a batch: 0 while the small-F0 array is in its exact phase
// or below handoverBits(K), and b once a batch has observed it at or
// past the handover, which retires it.
func handoverFloor(t *testing.T, what string, s *FastSketch) {
	t.Helper()
	floor, _ := s.floors()
	if !s.small.overflow || s.small.bv.Count() < handoverBits(s.cfg.K) {
		if floor != 0 {
			t.Fatalf("%s: floor %d before the handover", what, floor)
		}
		return
	}
	if !s.small.full() || floor != s.b {
		t.Fatalf("%s: after the handover the array holds %d of %d bits and the floor is %d with b = %d",
			what, s.small.bv.Count(), s.small.bv.Len(), floor, s.b)
	}
}

// TestAddBatchSharedMatchesAdd runs each configuration through the
// regimes the keep rule must respect: the exact phase, a bit array
// before and after its handover, copy phases in flight (K = 8192 spans
// a phase over 11 updates, so rescales land mid-chunk), after Merge
// raised b and the counters, after a restore, after Reset, and two
// targets in different states — a mature total sharing its hash phase
// with a fresh bucket.
// The shared targets are drawn separately from one seed, as the draw
// cache may hand equal settings different but equal draws.
func TestAddBatchSharedMatchesAdd(t *testing.T) {
	for _, cfg := range []Config{
		{K: 2048},
		{K: 8192},
		{K: 32},
		{K: 1024, StrictRescale: true},
		{K: 1024, UseLnTable: true},
		{K: 2048, LogN: 62},
		{K: 256, RoughKRE: 16},
	} {
		t.Run(fmt.Sprintf("K=%d/logN=%d/strict=%v/ln=%v/kre=%d", cfg.K, cfg.LogN, cfg.StrictRescale, cfg.UseLnTable, cfg.RoughKRE), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(cfg.K) + int64(cfg.LogN)))
			draw := func() *FastSketch { return DrawFastSketch(cfg, rand.New(rand.NewSource(11))) }
			pair := func(name string) *oracleTarget {
				return &oracleTarget{name: name, batched: draw().Blank(), want: draw().Blank()}
			}
			total, bucket := pair("total"), pair("bucket")
			n := 12 * cfg.K

			// One target: the exact phase, the bit array filling up to
			// and past its handover (feed checks the floor against the
			// handover rule after every batch), then mature.
			feed(t, rng, "exact phase", oracleStream(rng, 90), total)
			feed(t, rng, "bit array filling", oracleStream(rng, max(cfg.K, 4*ExactCap)), total)
			if !total.batched.small.full() {
				t.Fatal("the bit array did not retire; the test covers no handover")
			}
			feed(t, rng, "mature", oracleStream(rng, 4*n), total)
			if !skipping(total.batched) {
				t.Fatal("the mature total skips no hashing; the test covers nothing")
			}

			// A fresh bucket shares the mature total's hash phase.
			feed(t, rng, "mature total, fresh bucket", oracleStream(rng, n), total, bucket)

			// Merge a larger stream into the bucket: b and the counters
			// jump past what the bucket's own stream raised them to.
			peer := draw().Blank()
			peer.AddBatch(oracleStream(rng, 8*n))
			bucket.batched.MergeFrom(peer)
			bucket.want.MergeFrom(peer)
			if !skipping(bucket.batched) {
				t.Fatal("the merged bucket skips no hashing; the test covers nothing")
			}
			feed(t, rng, "after merge", oracleStream(rng, n), total, bucket)

			// Restore the total from its bytes, reset the bucket.
			for _, s := range []*FastSketch{total.batched, total.want} {
				var w binenc.Writer
				s.AppendState(&w)
				if err := s.RestoreState(&binenc.Reader{Buf: w.Buf}); err != nil {
					t.Fatal(err)
				}
			}
			bucket.batched.Reset()
			bucket.want.Reset()
			feed(t, rng, "after restore and reset", oracleStream(rng, n), total, bucket)
			feed(t, rng, "three targets", oracleStream(rng, n/2), total, bucket, pair("fresh"))
		})
	}
}

// TestAddBatchPacesRoughOnlyChanges: a key below the main floor that
// raises only a rough counter is an event of the apply loop, a change
// point, and still takes its copy-phase step. Random streams rarely
// land such keys inside a phase, so the test builds a batch of them:
// a K = 8192 sketch past its handover, caught as a copy phase starts,
// then keys below b that each raise a rough counter, with keys that
// change nothing between them.
func TestAddBatchPacesRoughOnlyChanges(t *testing.T) {
	tmpl := DrawFastSketch(Config{K: 8192}, rand.New(rand.NewSource(11)))
	batched, want := tmpl.Blank(), tmpl.Blank()
	rng := rand.New(rand.NewSource(12))
	for !batched.small.full() || batched.b == 0 || batched.copyPos < 0 {
		k := rng.Uint64()
		batched.Add(k)
		want.Add(k)
	}
	roughBytes := func(s *FastSketch) []byte {
		var w binenc.Writer
		s.re.AppendState(&w)
		return w.Buf
	}
	// probe follows the rough estimator through the keys chosen so far.
	probe := tmpl.Blank()
	probe.re.CopyFrom(batched.re)
	var keys []uint64
	raised := 0
	for raised < 6 {
		k := rng.Uint64()
		if int(bitutil.LSB(tmpl.h1.HashField(k)&tmpl.keyMask, tmpl.cfg.LogN)) >= batched.b {
			continue
		}
		before := roughBytes(probe)
		probe.re.Update(k)
		if !bytes.Equal(before, roughBytes(probe)) {
			raised++
		} else if rng.Intn(2) == 0 {
			continue
		}
		keys = append(keys, k)
	}
	batched.AddBatch(keys)
	for _, k := range keys {
		want.Add(k)
	}
	sameState(t, fmt.Sprintf("%d keys, %d raising a rough counter", len(keys), raised), batched, want)
}

// skipping reports whether s's floors let the hash phase skip keys
// for both the main sketch and every rough sub-estimator.
func skipping(s *FastSketch) bool {
	floor, rf := s.floors()
	return floor > 0 && min(rf[0], rf[1], rf[2]) >= 0
}

// TestAddBatchSharedRejectsMixedConfigs: sketches that cannot share
// hash functions cannot share a hash phase.
func TestAddBatchSharedRejectsMixedConfigs(t *testing.T) {
	a := NewFastSketch(Config{K: 64}, rand.New(rand.NewSource(1)))
	b := NewFastSketch(Config{K: 128}, rand.New(rand.NewSource(1)))
	defer func() {
		if recover() == nil {
			t.Fatal("AddBatchShared accepted sketches with different configs")
		}
	}()
	AddBatchShared([]*FastSketch{a, b}, []uint64{1, 2, 3})
}

// keptWorkloads are the knwbench workloads' settings for one store.
var keptWorkloads = []struct {
	name       string
	k, targets int
	preload    int
}{
	{"ingest-node", KForEpsilon(0.05), 1, 96 << 10}, // unwindowed
	{"cluster-3node", KForEpsilon(0.2), 2, 20_000},  // total and live bucket
}

// keptShares replays workload w's key stream for one store at the
// workload's settings and returns the shares of main-sketch bins and
// of rough (key, sub-estimator) pairs that the hash phase kept on the
// third pass. Keys are drawn as knwbench draws them (zipf s = 1.1 over
// 2^20 ids); ids are hashed into the 32-bit universe with Mix64 rather
// than knwd's string hasher, which the shares do not depend on. Each
// workload sends one store its preload, then its quarter of the body
// pool (2 Mi keys in all) over and over — a 40 s run at a few hundred
// thousand keys/s goes through the pool several times.
func keptShares(k, targets, preload int) (bins, rough float64) {
	rng := rand.New(rand.NewSource(1))
	z := rand.NewZipf(rng, 1.1, 1, 1<<20-1)
	draw := func(n int) []uint64 {
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = hashfn.Mix64(z.Uint64(), 1) & (1<<32 - 1)
		}
		return keys
	}
	pre, pool := draw(preload), draw(2<<20/4)
	tmpl := DrawFastSketch(Config{K: k}, rand.New(rand.NewSource(1)))
	ss := make([]*FastSketch, targets)
	for j := range ss {
		ss[j] = tmpl.Blank()
	}
	replaySkips(ss, pre, 4096)
	replaySkips(ss, pool, 4096)
	replaySkips(ss, pool, 4096)
	return replaySkips(ss, pool, 4096)
}

// TestKeptShares: at each workload's settings, the hash phase keeps
// fewer than 1% of main bins and of rough pairs on the third pass, so
// the drain works in proportion to the keys that can change a sketch.
func TestKeptShares(t *testing.T) {
	if testing.Short() {
		t.Skip("replays 1.6 Mi keys per workload")
	}
	for _, w := range keptWorkloads {
		bins, rough := keptShares(w.k, w.targets, w.preload)
		t.Logf("%s: %.3f%% of bins, %.3f%% of rough pairs kept", w.name, 100*bins, 100*rough)
		if bins >= 0.01 || rough >= 0.01 {
			t.Errorf("%s: kept %.3f%% of bins and %.3f%% of rough pairs; want under 1%% each", w.name, 100*bins, 100*rough)
		}
	}
}

// BenchmarkHashSkipShare reports keptShares per workload:
// bins-kept-% for the main sketch, rough-kept-% for the rough
// estimator's three sub-estimators.
//
//	go test -run=NONE -bench=HashSkipShare -benchtime=1x ./internal/core
func BenchmarkHashSkipShare(b *testing.B) {
	for _, w := range keptWorkloads {
		b.Run(w.name, func(b *testing.B) {
			var bins, rough float64
			for i := 0; i < b.N; i++ {
				bins, rough = keptShares(w.k, w.targets, w.preload)
			}
			b.ReportMetric(100*bins, "bins-kept-%")
			b.ReportMetric(100*rough, "rough-kept-%")
		})
	}
}

// replaySkips feeds keys to ss in batches as AddBatchShared does and
// returns the shares of main-sketch bins and of rough (key,
// sub-estimator) pairs that the hash phase kept.
func replaySkips(ss []*FastSketch, keys []uint64, batch int) (bins, rough float64) {
	var h chunkHashes
	var cidx [batchChunk]int32
	var cest [batchChunk]uint64
	var nb, nr int
	for lo := 0; lo < len(keys); lo += batch {
		b := keys[lo:min(lo+batch, len(keys))]
		for off, first := 0, true; off < len(b); off, first = off+batchChunk, false {
			chunk := b[off:min(off+batchChunk, len(b))]
			floor, rf := ss[0].floors()
			for _, t := range ss[1:] {
				f, tf := t.floors()
				floor = min(floor, f)
				rf.Lower(tf)
			}
			cb, cr := ss[0].hashChunk(chunk, floor, rf, &h)
			nb += cb
			nr += cr
			for _, t := range ss {
				t.applyChunk(chunk, &h, first, &cidx, &cest)
			}
		}
	}
	return float64(nb) / float64(len(keys)), float64(nr) / float64(3*len(keys))
}
