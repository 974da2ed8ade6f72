package knw

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"repro/internal/binenc"
)

// resolved returns the settings NewF0 would build from opts.
func resolved(opts ...Option) settings {
	cfg := defaultSettings()
	cfg.resolve(opts)
	return cfg
}

// checkDrawCache asserts the cache's bookkeeping: the charged bytes
// are the sum over the sets it holds, and never above the budget.
func checkDrawCache(t *testing.T, c *drawCache) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	sum := 0
	for e := c.lru.Front(); e != nil; e = e.Next() {
		set := e.Value.(*drawSet)
		if c.sets[set.cfg] != e {
			t.Fatalf("set for seed %d is in the LRU list but not the index", set.cfg.seed)
		}
		sum += set.bytes
	}
	if len(c.sets) != c.lru.Len() || sum != c.used {
		t.Fatalf("cache holds %d indexed and %d listed sets of %d bytes, but charges %d",
			len(c.sets), c.lru.Len(), sum, c.used)
	}
	if c.used > c.budget {
		t.Fatalf("cache retains %d bytes, over its %d-byte budget", c.used, c.budget)
	}
}

// TestCachedDrawsMatchFreshDraw: a sketch built on the cache's shared
// hash functions and one on a fresh, uncached draw marshal to the same
// bytes after the same stream, for every construction the options
// select.
func TestCachedDrawsMatchFreshDraw(t *testing.T) {
	keys := batchKeys(24_000)
	for _, opts := range [][]Option{
		{WithSeed(11)},
		{WithSeed(12), WithEpsilon(0.2)},
		{WithSeed(13), WithEpsilon(0.1), WithLnTable(), WithStrictRescale()},
		{WithSeed(14), WithEpsilon(0.2), WithCopies(3), WithReference()},
	} {
		cached := NewF0(opts...)
		fresh := drawF0(cached.cfg).blank()
		cached.AddBatch(keys)
		fresh.AddBatch(keys)
		a, _ := cached.MarshalBinary()
		b, _ := fresh.MarshalBinary()
		if !bytes.Equal(a, b) {
			t.Errorf("seed %d: cached and fresh draws marshal differently", cached.Seed())
		}
		if cached.SpaceBits() != fresh.SpaceBits() {
			t.Errorf("seed %d: SpaceBits %d on cached draws, %d on a fresh draw",
				cached.Seed(), cached.SpaceBits(), fresh.SpaceBits())
		}
		if draws.template(cached.cfg) != draws.template(cached.cfg) {
			t.Errorf("seed %d: two builds did not share one draw", cached.Seed())
		}
	}
}

// TestDrawCacheEvictsLeastRecentlyUsed drives a private cache: sets are
// evicted least recently used first, and a set larger than the budget
// is drawn but not kept.
func TestDrawCacheEvictsLeastRecentlyUsed(t *testing.T) {
	cfg := func(seed int64, copies int) settings {
		return resolved(WithSeed(seed), WithEpsilon(0.3), WithCopies(copies))
	}
	one := drawF0(cfg(1, 1)).seedBits() / 8
	c := &drawCache{budget: 2 * one}
	a := c.template(cfg(1, 1))
	c.template(cfg(2, 1))
	if c.template(cfg(1, 1)) != a {
		t.Fatal("a cached set was drawn again")
	}
	c.template(cfg(3, 1)) // evicts seed 2, the least recently used
	checkDrawCache(t, c)
	for seed, want := range map[int64]bool{1: true, 2: false, 3: true} {
		if _, ok := c.sets[cfg(seed, 1)]; ok != want {
			t.Errorf("seed %d cached = %v, want %v", seed, ok, want)
		}
	}
	big := c.template(cfg(4, 3))
	if len(big.fast) != 3 || len(c.sets) != 2 || c.used != 2*one {
		t.Errorf("an oversized set was kept: %d sets, %d bytes", len(c.sets), c.used)
	}
	checkDrawCache(t, c)
}

// TestDrawCacheBoundedUnderSeedChurn opens envelopes under many
// distinct seeds through the process-wide cache: it never retains
// more than its budget, every envelope still round-trips, and a sketch
// whose draw was evicted keeps working and merges with one built on
// the redraw exactly as on one draw.
func TestDrawCacheBoundedUnderSeedChurn(t *testing.T) {
	keys := batchKeys(3000)
	first := NewF0(WithSeed(500), WithEpsilon(0.2))
	first.AddBatch(keys[:1500])
	setBytes := first.blank().seedBits() / 8
	seeds := 3*drawBudget/setBytes + 1
	for i := 0; i < seeds; i++ {
		// Drawn outside the cache, so the Open below is what fills it.
		src := drawF0(resolved(WithSeed(int64(501+i)), WithEpsilon(0.2))).blank()
		src.AddBatch(keys)
		env, _ := src.MarshalBinary()
		est, err := Open(env)
		if err != nil {
			t.Fatalf("seed %d: %v", src.Seed(), err)
		}
		again, _ := est.(*F0).MarshalBinary()
		if !bytes.Equal(env, again) {
			t.Fatalf("seed %d: envelope does not round-trip", src.Seed())
		}
		checkDrawCache(t, &draws)
	}
	if _, ok := draws.sets[first.cfg]; ok {
		t.Fatalf("%d sets of %d bytes did not evict the first", seeds, setBytes)
	}

	first.AddBatch(keys[1500:])
	redrawn := NewF0(WithSeed(500), WithEpsilon(0.2))
	redrawn.AddBatch(keys[:1500])
	if err := redrawn.Merge(first); err != nil {
		t.Fatal(err)
	}
	// The same work on fresh draws.
	wantSrc := drawF0(first.cfg).blank()
	wantSrc.AddBatch(keys[:1500])
	wantSrc.AddBatch(keys[1500:])
	want := drawF0(first.cfg).blank()
	want.AddBatch(keys[:1500])
	if err := want.Merge(wantSrc); err != nil {
		t.Fatal(err)
	}
	a, _ := redrawn.MarshalBinary()
	b, _ := want.MarshalBinary()
	if !bytes.Equal(a, b) {
		t.Error("merging across an evicted draw differs from the same merge on fresh draws")
	}
}

// TestConcurrentBuildsShareDraws: goroutines Open and build one seed
// at once, racing on its first draw, then ingest, merge and marshal
// their own sketches. Every result equals the same work done alone.
func TestConcurrentBuildsShareDraws(t *testing.T) {
	opts := []Option{WithSeed(4242), WithEpsilon(0.2)}
	cfg := resolved(opts...)
	keys := batchKeys(8000)
	base := drawF0(cfg).blank()
	base.AddBatch(keys[:1000])
	env, _ := base.MarshalBinary()
	part := func(g int) []uint64 { return keys[1000*g : 1000*(g+1)] }

	const workers = 8
	got := make([][]byte, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var dst Estimator
			if g%2 == 0 {
				var err error
				if dst, err = Open(env); err != nil {
					t.Error(err)
					return
				}
			} else {
				dst = NewF0(opts...)
			}
			src := NewF0(opts...)
			src.AddBatch(part(g))
			dst.AddBatch(part((g + 1) % workers))
			if err := MergeInto(dst, src); err != nil {
				t.Error(err)
				return
			}
			got[g], _ = dst.(*F0).MarshalBinary()
		}(g)
	}
	wg.Wait()

	for g := 0; g < workers; g++ {
		want := drawF0(cfg).blank()
		if g%2 == 0 {
			want.AddBatch(keys[:1000])
		}
		want.AddBatch(part((g + 1) % workers))
		src := drawF0(cfg).blank()
		src.AddBatch(part(g))
		if err := want.Merge(src); err != nil {
			t.Fatal(err)
		}
		if b, _ := want.MarshalBinary(); !bytes.Equal(got[g], b) {
			t.Errorf("goroutine %d: concurrent result differs from the same work done alone", g)
		}
	}
}

// editFirstCopy rewrites the counters, offset b and level est of the
// first copy in a fast F0 envelope, leaving the rest of its state as
// it was. It panics on an envelope it cannot split.
func editFirstCopy(env []byte, edit func(cs []uint64, b, est *int64)) []byte {
	es, err := SplitEnvelope(env)
	if err != nil {
		panic(err)
	}
	r := binenc.Reader{Buf: es.Sections[0]}
	k := r.Uvarint()
	cs := r.Uints(int(k))
	b, est := r.Varint(), r.Varint()
	if r.Err() != nil {
		panic(r.Err())
	}
	edit(cs, &b, &est)
	var w binenc.Writer
	w.Uvarint(k)
	w.Uints(cs)
	w.Varint(b)
	w.Varint(est)
	es.Sections[0] = append(w.Buf, r.Buf...)
	return es.AppendEnvelope(nil)
}

// overflowCounterF0 is a one-copy F0 envelope whose first counter is
// 2^61: far past LogN+1, and past the 60 bits the VLA can hold.
func overflowCounterF0() []byte {
	f := NewF0(WithSeed(2003), WithEpsilon(0.3), WithCopies(1), WithK(32), WithUniverseBits(16))
	f.AddBatch(batchKeys(200))
	env, _ := f.MarshalBinary()
	return editFirstCopy(env, func(cs []uint64, _, _ *int64) { cs[0] = 1 << 61 })
}

// TestOpenRejectsOutOfRangeCopyState: counters above LogN+1, and
// offsets or levels the algorithm cannot reach, are corrupt. Open
// reports them as binenc.ErrCorrupt instead of panicking in the VLA or
// admitting a sketch whose next rescale shifts counters up.
func TestOpenRejectsOutOfRangeCopyState(t *testing.T) {
	f := NewF0(WithSeed(2004), WithEpsilon(0.3), WithCopies(1), WithK(32), WithUniverseBits(16))
	f.AddBatch(batchKeys(5000))
	env, _ := f.MarshalBinary()
	logN := uint64(f.UniverseBits())
	if _, err := Open(editFirstCopy(env, func(cs []uint64, _, _ *int64) { cs[0] = logN + 1 })); err != nil {
		t.Fatalf("the largest reachable counter, LogN+1, was rejected: %v", err)
	}
	for name, data := range map[string][]byte{
		"counter 2^61":   overflowCounterF0(),
		"counter LogN+2": editFirstCopy(env, func(cs []uint64, _, _ *int64) { cs[0] = logN + 2 }),
		"offset 2^61":    editFirstCopy(env, func(_ []uint64, b, _ *int64) { *b = 1 << 61 }),
		"offset past est": editFirstCopy(env, func(_ []uint64, b, est *int64) {
			*b = *est + 1
		}),
		"level 64": editFirstCopy(env, func(_ []uint64, _, est *int64) { *est = 64 }),
	} {
		if _, err := Open(data); !errors.Is(err, binenc.ErrCorrupt) {
			t.Errorf("%s: Open returned %v, want binenc.ErrCorrupt", name, err)
		}
		var u F0
		if err := u.UnmarshalBinary(data); !errors.Is(err, binenc.ErrCorrupt) {
			t.Errorf("%s: UnmarshalBinary returned %v, want binenc.ErrCorrupt", name, err)
		}
	}
}
