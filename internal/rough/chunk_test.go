package rough

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bitutil"
	"repro/internal/hashfn"
)

// TestChunkPathMatchesScalar drives one estimator through scalar
// Update and a twin through the chunk path and requires identical
// counters, occupancy, cursors, and estimates at every chunk boundary,
// and replayed change points equal to the scalar estimate after every
// key — the contract the core batch paths rely on for byte-identical
// sketches. The chunk path runs first as Precompute, which keeps every
// key, then as the production call: PrecomputeAbove with the twin's
// own Floors, over random chunks and over chunks that one or every
// sub-estimator keeps nothing of.
func TestChunkPathMatchesScalar(t *testing.T) {
	for _, fast := range []bool{true, false} {
		name := "tabulation"
		if !fast {
			name = "polynomial"
		}
		t.Run(name, func(t *testing.T) {
			cfg := Config{LogN: 32, Fast: fast}
			scalar := New(cfg, rand.New(rand.NewSource(42)))
			batched := New(cfg, rand.New(rand.NewSource(42)))
			rng := rand.New(rand.NewSource(7))
			randomChunk := func() []uint64 {
				keys := make([]uint64, 1+rng.Intn(ChunkSize))
				for i := range keys {
					keys[i] = rng.Uint64() >> uint(rng.Intn(24)) // vary density
				}
				return keys
			}
			var sc Scratch
			for round := 0; round < 50; round++ {
				keys := randomChunk()
				batched.Precompute(keys, &sc)
				checkChunk(t, fmt.Sprintf("Precompute round %d", round), scalar, batched, keys, &sc)
			}

			// Mature both, so that every floor is well above −1.
			for i := 0; i < 100_000; i++ {
				k := rng.Uint64()
				scalar.Update(k)
				batched.Update(k)
			}
			kept := 0
			above := func(what string, keys []uint64) {
				var red [ChunkSize]uint64
				hashfn.ReduceChunk(keys, red[:len(keys)])
				kept += batched.PrecomputeAbove(red[:len(keys)], batched.Floors(), &sc)
				checkChunk(t, what, scalar, batched, keys, &sc)
			}
			for round := 0; round < 100; round++ {
				above(fmt.Sprintf("PrecomputeAbove round %d", round), randomChunk())
			}
			if kept == 0 {
				t.Fatal("no chunk kept a key; the rounds apply nothing")
			}
			for j := 0; j <= len(batched.subs); j++ {
				for round := 0; round < 5; round++ {
					keys := belowFloors(rng, batched, j, 1+rng.Intn(ChunkSize))
					above(fmt.Sprintf("sub %d keeps nothing, round %d", j, round), keys)
				}
			}
		})
	}
}

// belowFloors draws n keys at or below e's floor in sub-estimator j,
// or in every sub-estimator when j is 3: chunks that those
// sub-estimators keep nothing of.
func belowFloors(rng *rand.Rand, e *Estimator, j, n int) []uint64 {
	f := e.Floors()
	mask := bitutil.Mask(e.logN)
	below := func(k uint64, j int) bool {
		return int8(bitutil.LSB(e.subs[j].h1.HashField(k)&mask, e.logN)) <= f[j]
	}
	keys := make([]uint64, 0, n)
	for len(keys) < n {
		k := rng.Uint64()
		ok := true
		for i := range e.subs {
			if i == j || j == len(e.subs) {
				ok = ok && below(k, i)
			}
		}
		if ok {
			keys = append(keys, k)
		}
	}
	return keys
}

// checkChunk applies sc, precomputed from keys, to batched and keys to
// scalar through Update, and fails t unless the replayed change points
// give the scalar estimate after every key and the two estimators end
// in the same state.
func checkChunk(t *testing.T, what string, scalar, batched *Estimator, keys []uint64, sc *Scratch) {
	t.Helper()
	want := make([]uint64, len(keys))
	for i, k := range keys {
		scalar.Update(k)
		want[i] = scalar.Estimate()
	}
	var idxs [ChunkSize]int32
	var ests [ChunkSize]uint64
	r, m := batched.ApplyChunk(sc, &idxs, &ests)
	// Replay: the estimate at position i is the last change point's
	// value (or r0), exactly what core consults.
	p := 0
	for i := range keys {
		if p < m && int(idxs[p]) == i {
			r = ests[p]
			p++
		}
		if r != want[i] {
			t.Fatalf("%s key %d: replayed estimate %d, scalar %d", what, i, r, want[i])
		}
	}
	if p != m {
		t.Fatalf("%s: %d change points past the chunk", what, m-p)
	}
	for j := range scalar.subs {
		a, b := &scalar.subs[j], &batched.subs[j]
		if a.r != b.r {
			t.Fatalf("%s sub %d: cursor %d vs %d", what, j, a.r, b.r)
		}
		for i := range a.c {
			if a.c[i] != b.c[i] {
				t.Fatalf("%s sub %d counter %d diverged", what, j, i)
			}
		}
		for i := range a.t {
			if a.t[i] != b.t[i] {
				t.Fatalf("%s sub %d occupancy %d diverged", what, j, i)
			}
		}
	}
}
