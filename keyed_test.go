package knw

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// sketchBytes marshals and fails the test on error (state fingerprint
// for byte-identical comparisons).
func sketchBytes(t *testing.T, m interface{ MarshalBinary() ([]byte, error) }) []byte {
	t.Helper()
	b, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func testStrings(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("user-%d-%d", i%1000, i)
	}
	return out
}

// TestKeyedStringMatchesAddString: Keyed[string] hashes exactly as the
// removed AddString method did — the default hasher over the sketch's
// seed and universe — so sketches it fills stay mergeable with (and
// byte-identical to) ones written through that method.
func TestKeyedStringMatchesAddString(t *testing.T) {
	opts := []Option{WithSeed(71), WithEpsilon(0.1), WithCopies(3)}
	viaHasher := NewF0(opts...)
	h := NewHasher[string](viaHasher.Seed(), viaHasher.UniverseBits())
	viaKeyed := NewKeyed[string](NewF0(opts...))
	for _, s := range testStrings(20_000) {
		viaHasher.Add(h.Hash(s))
		viaKeyed.Add(s)
	}
	if !bytes.Equal(sketchBytes(t, viaHasher), sketchBytes(t, viaKeyed.Unwrap().(*F0))) {
		t.Fatal("the default hasher and Keyed[string].Add diverged")
	}
}

// TestKeyedBatchMatchesScalar: AddBatch must equal sequential Add for
// every key type, byte-identically.
func TestKeyedBatchMatchesScalar(t *testing.T) {
	opts := []Option{WithSeed(72), WithEpsilon(0.1), WithCopies(3)}
	strs := testStrings(30_000)

	scalar := NewKeyed[string](NewF0(opts...))
	batched := NewKeyed[string](NewF0(opts...))
	for _, s := range strs {
		scalar.Add(s)
	}
	batched.AddBatch(strs)
	if !bytes.Equal(sketchBytes(t, scalar.Unwrap().(*F0)), sketchBytes(t, batched.Unwrap().(*F0))) {
		t.Fatal("Keyed[string] batch != scalar")
	}

	bscalar := NewKeyed[[]byte](NewF0(opts...))
	bbatched := NewKeyed[[]byte](NewF0(opts...))
	raw := make([][]byte, len(strs))
	for i, s := range strs {
		raw[i] = []byte(s)
	}
	for _, b := range raw {
		bscalar.Add(b)
	}
	bbatched.AddBatch(raw)
	if !bytes.Equal(sketchBytes(t, bscalar.Unwrap().(*F0)), sketchBytes(t, bbatched.Unwrap().(*F0))) {
		t.Fatal("Keyed[[]byte] batch != scalar")
	}

	// A string and its bytes must hash identically.
	if !bytes.Equal(sketchBytes(t, scalar.Unwrap().(*F0)), sketchBytes(t, bscalar.Unwrap().(*F0))) {
		t.Fatal("string and []byte keys hash differently")
	}
}

// TestKeyedUint64Identity: for keys already inside the universe the
// default Keyed[uint64] path is exactly Add (the fold is the identity
// below 2^logN), so raw-key pipelines can adopt the typed front door
// without changing state.
func TestKeyedUint64Identity(t *testing.T) {
	opts := []Option{WithSeed(73), WithEpsilon(0.1), WithCopies(3)} // logN = 32
	direct := NewF0(opts...)
	keyed := NewKeyed[uint64](NewF0(opts...))
	keys := batchKeys(30_000)
	for i := range keys {
		keys[i] &= 1<<32 - 1 // in-universe
	}
	direct.AddBatch(keys)
	keyed.AddBatch(keys)
	if !bytes.Equal(sketchBytes(t, direct), sketchBytes(t, keyed.Unwrap().(*F0))) {
		t.Fatal("Keyed[uint64] is not the identity on in-universe keys")
	}
}

// TestHasherFoldsToUniverse: the default hasher lands inside the
// configured universe for every key type — the silent truncation bug
// the typed layer replaces (hashing into 64 bits while the sketch was
// built with logN < 64).
func TestHasherFoldsToUniverse(t *testing.T) {
	const logN = 16
	h := NewHasher[string](99, logN)
	hb := NewHasher[[]byte](99, logN)
	hu := NewHasher[uint64](99, logN)
	for i := 0; i < 50_000; i++ {
		s := fmt.Sprintf("key-%d", i)
		if v := h.Hash(s); v >= 1<<logN {
			t.Fatalf("string hash %d escapes %d-bit universe", v, logN)
		}
		if v := hb.Hash([]byte(s)); v >= 1<<logN {
			t.Fatalf("bytes hash %d escapes %d-bit universe", v, logN)
		}
		if v := hu.Hash(uint64(i) * 0x9e3779b97f4a7c15); v >= 1<<logN {
			t.Fatalf("uint64 fold %d escapes %d-bit universe", v, logN)
		}
	}
	// In-universe uint64 keys pass through unchanged.
	if got := hu.Hash(12345); got != 12345 {
		t.Fatalf("in-universe fold changed key: %d", got)
	}
	// Seeds matter: different seeds give different string hashes.
	if NewHasher[string](1, 32).Hash("x") == NewHasher[string](2, 32).Hash("x") {
		t.Fatal("seed does not affect the default hash")
	}
	// Keyed picks the sketch's universe up automatically.
	k := NewKeyed[string](NewF0(WithSeed(3), WithUniverseBits(logN), WithCopies(1)))
	if v := k.Hasher().Hash("probe"); v >= 1<<logN {
		t.Fatalf("Keyed default hasher ignored the sketch universe: %d", v)
	}
}

// TestKeyedTurnstile: Update/UpdateBatch work over an L0 and match the
// raw path; over an F0 they panic with a clear message.
func TestKeyedTurnstile(t *testing.T) {
	opts := []Option{WithSeed(74), WithEpsilon(0.2), WithCopies(1)}
	direct := NewL0(opts...)
	keyed := NewKeyed[string](NewL0(opts...))
	if !keyed.Turnstile() {
		t.Fatal("Keyed over L0 must report Turnstile")
	}
	strs := testStrings(10_000)
	h := keyed.Hasher()
	deltas := make([]int64, len(strs))
	for i, s := range strs {
		deltas[i] = int64(i%7 - 3)
		direct.Update(h.Hash(s), deltas[i])
	}
	keyed.UpdateBatch(strs, deltas)
	if !bytes.Equal(sketchBytes(t, direct), sketchBytes(t, keyed.Unwrap().(*L0))) {
		t.Fatal("Keyed turnstile batch != raw updates")
	}

	f := NewKeyed[string](NewF0(opts...))
	if f.Turnstile() {
		t.Fatal("Keyed over F0 must not report Turnstile")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Update on insertion-only Keyed did not panic")
		}
	}()
	f.Update("x", -1)
}

// TestKeyedConcurrent: concurrent writers each own a Keyed over their
// own same-seed sketch (the batch scratch is pooled, not shared), and
// the merged sketches count the union. Run under -race in CI.
func TestKeyedConcurrent(t *testing.T) {
	const workers, perWorker = 8, 4000
	ks := make([]*Keyed[string], workers)
	for w := range ks {
		ks[w] = NewKeyed[string](NewF0(WithSeed(75), WithEpsilon(0.1), WithCopies(3)))
	}
	var wg sync.WaitGroup
	for w, k := range ks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			batch := make([]string, 0, 256)
			for i := 0; i < perWorker; i++ {
				batch = append(batch, fmt.Sprintf("item-%d", (w*perWorker+i)%8000))
				if len(batch) == cap(batch) {
					k.AddBatch(batch)
					batch = batch[:0]
				}
			}
			k.AddBatch(batch)
		}()
	}
	wg.Wait()
	merged := ks[0].Unwrap().(*F0)
	for _, k := range ks[1:] {
		if err := merged.Merge(k.Unwrap().(*F0)); err != nil {
			t.Fatal(err)
		}
	}
	if est := merged.Estimate(); est < 8000*0.6 || est > 8000*1.4 {
		t.Fatalf("merged keyed estimate %v far from 8000", est)
	}
}

// TestKeyedCustomHasher: WithKeyHasher replaces the default.
type modHasher struct{ mod uint64 }

func (m modHasher) Hash(k uint64) uint64 { return k % m.mod }

func TestKeyedCustomHasher(t *testing.T) {
	k := NewKeyed[uint64](NewF0(WithSeed(76), WithCopies(1)),
		WithKeyHasher[uint64](modHasher{mod: 10}))
	for i := uint64(0); i < 1000; i++ {
		k.Add(i)
	}
	if est := k.Estimate(); est != 10 {
		t.Fatalf("custom hasher ignored: estimate %v, want 10", est)
	}
}

// TestKeyedHasherDeterminism: two Keyed fronts over same-seed sketches
// hash identically, so their sketches stay mergeable — the contract
// that makes typed ingestion distributable.
func TestKeyedHasherDeterminism(t *testing.T) {
	opts := []Option{WithSeed(77), WithEpsilon(0.1), WithCopies(3)}
	a := NewKeyed[string](NewF0(opts...))
	b := NewKeyed[string](NewF0(opts...))
	for i := 0; i < 1000; i++ {
		s := fmt.Sprintf("probe-%d", i)
		if a.Hasher().Hash(s) != b.Hasher().Hash(s) {
			t.Fatalf("same-seed Keyed fronts hash %q differently", s)
		}
	}
	strs := testStrings(20_000)
	a.AddBatch(strs[:10_000])
	b.AddBatch(strs[10_000:])
	if err := a.Unwrap().(*F0).Merge(b.Unwrap().(*F0)); err != nil {
		t.Fatal(err)
	}
	// testStrings(20k) has ~19k distinct values; the merged estimate
	// must land near it (ε = 0.1, 3 copies → generous 20% gate).
	exact := make(map[string]struct{}, len(strs))
	for _, s := range strs {
		exact[s] = struct{}{}
	}
	truth := float64(len(exact))
	if est := a.Estimate(); est < truth*0.8 || est > truth*1.2 {
		t.Fatalf("merged keyed shards estimate %v, truth %v", est, truth)
	}
}
