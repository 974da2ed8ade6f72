package knw

import (
	"bytes"
	"testing"

	"repro/internal/binenc"
)

// batchKeys builds a stream with duplicates, clusters, and enough
// distinct keys to push the sketches through several rescales.
func batchKeys(n int) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		switch i % 3 {
		case 0:
			keys[i] = uint64(i)*0x9e3779b97f4a7c15 + 1 // fresh
		case 1:
			keys[i] = uint64(i/7)*0x9e3779b97f4a7c15 + 1 // recent repeat
		default:
			keys[i] = uint64(i % 1000) // hot set
		}
	}
	return keys
}

// feedBatches drives AddBatch with deliberately ragged batch sizes so
// chunk boundaries (including short and oversized batches) are hit.
func feedBatches(add func([]uint64), keys []uint64) {
	sizes := []int{1, 97, 256, 3, 1000, 513}
	for i, pos := 0, 0; pos < len(keys); i++ {
		n := sizes[i%len(sizes)]
		if pos+n > len(keys) {
			n = len(keys) - pos
		}
		add(keys[pos : pos+n])
		pos += n
	}
}

// TestF0AddBatchMatchesScalar: same seed ⇒ AddBatch state is
// byte-identical under MarshalBinary to sequential Add, for every
// implementation variant.
func TestF0AddBatchMatchesScalar(t *testing.T) {
	variants := []struct {
		name string
		opts []Option
	}{
		{"fast", nil},
		{"fast-lntable", []Option{WithLnTable()}},
		{"fast-strict", []Option{WithStrictRescale()}},
		{"reference", []Option{WithReference()}},
	}
	keys := batchKeys(120_000)
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			opts := append([]Option{WithSeed(7), WithEpsilon(0.1), WithCopies(3)}, v.opts...)
			scalar := NewF0(opts...)
			batched := NewF0(opts...)
			for _, k := range keys {
				scalar.Add(k)
			}
			feedBatches(batched.AddBatch, keys)

			a, err := scalar.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			b, err := batched.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Fatalf("batched state diverged from scalar state (%d vs %d bytes)", len(a), len(b))
			}
		})
	}
}

// TestL0UpdateBatchMatchesScalar covers turnstile batches with mixed
// signs, zero deltas, and the nil-deltas (+1) form.
func TestL0UpdateBatchMatchesScalar(t *testing.T) {
	keys := batchKeys(40_000)
	deltas := make([]int64, len(keys))
	for i := range deltas {
		switch i % 5 {
		case 0:
			deltas[i] = 3
		case 1:
			deltas[i] = -3
		case 2:
			deltas[i] = 0
		default:
			deltas[i] = 1
		}
	}
	opts := []Option{WithSeed(8), WithEpsilon(0.1), WithCopies(3)}
	scalar := NewL0(opts...)
	batched := NewL0(opts...)
	for i, k := range keys {
		scalar.Update(k, deltas[i])
	}
	pos := 0
	feedBatches(func(chunk []uint64) {
		batched.UpdateBatch(chunk, deltas[pos:pos+len(chunk)])
		pos += len(chunk)
	}, keys)

	a, err := scalar.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	b, err := batched.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("batched L0 state diverged from scalar state")
	}

	// nil deltas ≡ all +1.
	plus := NewL0(opts...)
	ones := NewL0(opts...)
	plus.AddBatch(keys[:5000])
	for _, k := range keys[:5000] {
		ones.Update(k, 1)
	}
	pa, _ := plus.MarshalBinary()
	oa, _ := ones.MarshalBinary()
	if !bytes.Equal(pa, oa) {
		t.Fatal("AddBatch (nil deltas) diverged from Update(+1)")
	}
}

// marshalV1 writes the legacy version-1 (unframed) payload for f.
func marshalV1F0(f *F0) []byte {
	var w binenc.Writer
	w.Uvarint(f0Magic)
	w.Uvarint(1)
	appendSettings(&w, f.cfg)
	for _, s := range f.fast {
		s.AppendState(&w)
	}
	for _, s := range f.ref {
		s.AppendState(&w)
	}
	return w.Buf
}

func marshalV1L0(l *L0) []byte {
	var w binenc.Writer
	w.Uvarint(l0Magic)
	w.Uvarint(1)
	appendSettings(&w, l.cfg)
	for _, s := range l.copies {
		s.AppendState(&w)
	}
	return w.Buf
}

// TestVersion1PayloadStillUnmarshals: payloads written by the v1
// (unframed) format load under the version-2 reader and re-marshal to
// the same state as the original sketch's v2 payload.
func TestVersion1PayloadStillUnmarshals(t *testing.T) {
	f := NewF0(WithSeed(12), WithEpsilon(0.1), WithCopies(3))
	keys := batchKeys(50_000)
	f.AddBatch(keys)

	var restored F0
	if err := restored.UnmarshalBinary(marshalV1F0(f)); err != nil {
		t.Fatalf("v1 F0 payload rejected: %v", err)
	}
	wantBlob, _ := f.MarshalBinary()
	gotBlob, _ := restored.MarshalBinary()
	if !bytes.Equal(wantBlob, gotBlob) {
		t.Fatal("state restored from v1 differs from the original")
	}

	l := NewL0(WithSeed(13), WithEpsilon(0.1), WithCopies(3))
	for i, k := range keys[:20_000] {
		l.Update(k, int64(i%5-2))
	}
	var lr L0
	if err := lr.UnmarshalBinary(marshalV1L0(l)); err != nil {
		t.Fatalf("v1 L0 payload rejected: %v", err)
	}
	wantBlob, _ = l.MarshalBinary()
	gotBlob, _ = lr.MarshalBinary()
	if !bytes.Equal(wantBlob, gotBlob) {
		t.Fatal("L0 state restored from v1 differs from the original")
	}
}

// TestResetPreservesMergeability: a Reset sketch behaves like a fresh
// same-seed sketch (the pooled-scratch contract).
func TestResetPreservesMergeability(t *testing.T) {
	opts := []Option{WithSeed(14), WithEpsilon(0.1), WithCopies(3)}
	a := NewF0(opts...)
	keys := batchKeys(60_000)
	a.AddBatch(keys)
	a.Reset()
	fresh, _ := NewF0(opts...).MarshalBinary()
	after, _ := a.MarshalBinary()
	if !bytes.Equal(fresh, after) {
		t.Fatal("Reset F0 state differs from a fresh same-seed sketch")
	}
	a.AddBatch(keys)
	b := NewF0(opts...)
	b.AddBatch(keys)
	ab, _ := a.MarshalBinary()
	bb, _ := b.MarshalBinary()
	if !bytes.Equal(ab, bb) {
		t.Fatal("re-used F0 diverged from fresh sketch over the same stream")
	}

	l := NewL0(opts...)
	l.AddBatch(keys[:20_000])
	l.Reset()
	freshL, _ := NewL0(opts...).MarshalBinary()
	afterL, _ := l.MarshalBinary()
	if !bytes.Equal(freshL, afterL) {
		t.Fatal("Reset L0 state differs from a fresh same-seed sketch")
	}
}

// FuzzAddBatchMatchesAdd drives AddBatchAll with keys, batch splits and
// window events derived from the input, and checks every target
// against a twin fed the same keys one Add at a time. The first byte
// picks the settings: K, copies, the logarithm table, strict rescale,
// a 62-bit universe, and whether sketches that cannot share a hash
// phase ride along (an F0 with another seed, a reference F0, an L0).
// Every following 3-byte group (op, a, b) is one step:
//
//   - op%8 < 6 ingests (op%8+1)·(b+1)·8 keys from a range picked by a,
//     so ranges overlap and repeat, in batches of 1+5·(a^b) keys;
//   - op%8 = 6 resets the bucket, as a window rotation does, so a
//     fresh bucket shares hashing with a mature total;
//   - op%8 = 7 merges a peer fed (b+1)·64 keys into the bucket, raising
//     its offset and counters past what its own stream did.
func FuzzAddBatchMatchesAdd(f *testing.F) {
	f.Add([]byte{0x01, 5, 1, 40, 0, 9, 200, 6, 0, 0, 3, 2, 90})
	f.Add([]byte{0x02, 5, 7, 255, 7, 3, 30, 4, 7, 255, 6, 0, 0, 1, 9, 99})
	f.Add([]byte{0x7b, 5, 2, 255, 6, 0, 0, 2, 4, 120, 7, 9, 40, 5, 5, 60})
	f.Add([]byte{0x37, 3, 1, 255, 5, 200, 255, 7, 1, 255, 0, 11, 17})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		mode := data[0]
		opts := []Option{
			WithSeed(21),
			WithK([]int{32, 64, 1024, 2048}[mode&3]),
			WithCopies(1 + 2*int(mode>>2&1)),
		}
		if mode&0x08 != 0 {
			opts = append(opts, WithLnTable())
		}
		if mode&0x10 != 0 {
			opts = append(opts, WithStrictRescale())
		}
		if mode&0x20 != 0 {
			opts = append(opts, WithUniverseBits(62))
		}
		build := func() []Estimator {
			ests := []Estimator{NewF0(opts...), NewF0(opts...)} // total, bucket
			if mode&0x40 != 0 {
				other := append(append([]Option(nil), opts...), WithSeed(22))
				ref := append(append([]Option(nil), opts...), WithReference())
				ests = append(ests, NewF0(other...), NewF0(ref...), NewL0(opts...))
			}
			return ests
		}
		shared, twins := build(), build()
		for steps := data[1:]; len(steps) >= 3; steps = steps[3:] {
			op, a, b := steps[0]%8, steps[1], steps[2]
			switch op {
			case 6:
				shared[1].(*F0).Reset()
				twins[1].(*F0).Reset()
			case 7:
				peer := NewF0(opts...)
				peer.AddBatch(fuzzKeys(a, (int(b)+1)*64))
				if err := shared[1].(*F0).Merge(peer); err != nil {
					t.Fatal(err)
				}
				if err := twins[1].(*F0).Merge(peer); err != nil {
					t.Fatal(err)
				}
			default:
				keys := fuzzKeys(a, (int(op)+1)*(int(b)+1)*8)
				for size := 1 + 5*int(a^b); len(keys) > 0; keys = keys[min(size, len(keys)):] {
					AddBatchAll(keys[:min(size, len(keys))], shared...)
				}
				for _, k := range fuzzKeys(a, (int(op)+1)*(int(b)+1)*8) {
					for _, tw := range twins {
						tw.Add(k)
					}
				}
			}
		}
		for i := range shared {
			if !bytes.Equal(mustBytes(t, shared[i]), mustBytes(t, twins[i])) {
				t.Fatalf("target %d (%s): AddBatchAll state diverged from per-key Add", i, shared[i].Name())
			}
		}
	})
}

// fuzzKeys returns n keys from the range picked by a; ranges of nearby
// a overlap.
func fuzzKeys(a byte, n int) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = (uint64(a)*1000 + uint64(i)) * 0x9e3779b97f4a7c15
	}
	return keys
}
