package knw

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"repro/internal/binenc"
)

// Tests for the retired sharded payloads (legacy.go). Their writers are
// gone, so legacyShardedF0/L0 below rebuild that output from plain
// sketches the way the wrappers built it; TestGoldenWireFormats checks
// the result byte for byte against goldens the real writers produced.

// legacyRoute splits keys (and deltas, when non-nil) across n shards
// exactly as the wrappers' batch path did: the shard is a multiplicative
// mix of the key, and each shard keeps its keys in stream order.
func legacyRoute(keys []uint64, deltas []int64, n int) ([][]uint64, [][]int64) {
	ks := make([][]uint64, n)
	ds := make([][]int64, n)
	for i, k := range keys {
		s := int((k * 0x9e3779b97f4a7c15 >> 32) & uint64(n-1))
		ks[s] = append(ks[s], k)
		if deltas != nil {
			ds[s] = append(ds[s], deltas[i])
		}
	}
	return ks, ds
}

// keyRange returns the keys lo..hi inclusive.
func keyRange(lo, hi uint64) []uint64 {
	var ks []uint64
	for k := lo; k <= hi; k++ {
		ks = append(ks, k)
	}
	return ks
}

// legacyPayload writes the bare sharded payload for same-config shards.
func legacyPayload(magic uint64, cfg settings, shards []func(*binenc.Writer)) []byte {
	var w, sw binenc.Writer
	w.Uvarint(magic)
	w.Uvarint(version)
	appendSettings(&w, cfg)
	w.Uvarint(uint64(len(shards)))
	for _, appendShard := range shards {
		sw.Buf = sw.Buf[:0]
		appendShard(&sw)
		w.Bytes(sw.Buf)
	}
	return w.Buf
}

// legacyShardedF0 ingests keys into n routed same-seed F0 shards and
// returns them with their bare KNWS payload.
func legacyShardedF0(n int, keys []uint64, opts ...Option) ([]*F0, []byte) {
	groups, _ := legacyRoute(keys, nil, n)
	shards := make([]*F0, n)
	frames := make([]func(*binenc.Writer), n)
	for i := range shards {
		shards[i] = NewF0(opts...)
		shards[i].AddBatch(groups[i])
		frames[i] = shards[i].appendCopyFrames
	}
	return shards, legacyPayload(f0ShardedMagic, shards[0].cfg, frames)
}

// legacyShardedL0 is legacyShardedF0 for turnstile updates (KNWT).
func legacyShardedL0(n int, keys []uint64, deltas []int64, opts ...Option) ([]*L0, []byte) {
	groups, dgroups := legacyRoute(keys, deltas, n)
	shards := make([]*L0, n)
	frames := make([]func(*binenc.Writer), n)
	for i := range shards {
		shards[i] = NewL0(opts...)
		var d []int64
		if deltas != nil {
			d = dgroups[i]
		}
		shards[i].UpdateBatch(groups[i], d)
		frames[i] = shards[i].appendCopyFrames
	}
	return shards, legacyPayload(l0ShardedMagic, shards[0].cfg, frames)
}

// foldReference merges shards into an empty sketch — what the sharded
// wrapper's Estimate read — and returns its envelope.
func foldReference[T any, P interface {
	shardFolder[T]
	MarshalBinary() ([]byte, error)
}](t *testing.T, empty P, shards []P) []byte {
	t.Helper()
	for _, s := range shards {
		if err := empty.Merge(s); err != nil {
			t.Fatal(err)
		}
	}
	b, err := empty.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestConcurrentF0SerializeRoundTrip: a checkpointed sharded F0, bare or
// enveloped and with either framing version, opens as one plain F0
// holding the merge of its shards, re-marshals as KindF0, and stays
// ingestible.
func TestConcurrentF0SerializeRoundTrip(t *testing.T) {
	opts := []Option{WithSeed(10), WithEpsilon(0.1), WithCopies(3)}
	keys := batchKeys(80_000)
	shards, bare := legacyShardedF0(4, keys, opts...)
	want := foldReference(t, newF0From(shards[0].cfg), shards)
	v1 := append([]byte(nil), bare...)
	v1[5] = 1 // the magic is a 5-byte uvarint; byte 5 is the version

	for name, data := range map[string][]byte{
		"bare": bare, "bare v1": v1, "enveloped": wrapEnvelope(kindShardedF0, bare),
	} {
		est, err := Open(data)
		if err != nil {
			t.Fatalf("%s: Open: %v", name, err)
		}
		f, ok := est.(*F0)
		if !ok {
			t.Fatalf("%s: Open returned %T", name, est)
		}
		if got := mustMarshal(t, f); !bytes.Equal(got, want) {
			t.Fatalf("%s: folded state differs from the merge of its shards", name)
		}
		var direct F0
		if err := direct.UnmarshalBinary(data); err != nil {
			t.Fatalf("%s: F0.UnmarshalBinary: %v", name, err)
		}
		if !bytes.Equal(mustMarshal(t, &direct), want) {
			t.Fatalf("%s: UnmarshalBinary and Open disagree", name)
		}
	}

	back, err := Open(want)
	if err != nil {
		t.Fatal(err)
	}
	if k := back.(*F0).Kind(); k != KindF0 {
		t.Fatalf("folded sketch re-marshals as %s", k)
	}
	before := back.Estimate()
	back.AddBatch(keys)
	if got := back.Estimate(); math.Abs(got-before)/before > 0.05 {
		t.Fatalf("re-ingesting the same stream moved the estimate %v → %v", before, got)
	}
}

// TestConcurrentL0SerializeRoundTrip is the turnstile analogue, with
// deletions surviving the fold.
func TestConcurrentL0SerializeRoundTrip(t *testing.T) {
	const live = 20_000
	keys := make([]uint64, 0, 2*live)
	deltas := make([]int64, 0, 2*live)
	for i := 0; i < live+8000; i++ {
		k := uint64(i)*0x9e3779b97f4a7c15 + 1
		keys = append(keys, k)
		deltas = append(deltas, 4)
		if i >= live {
			keys = append(keys, k)
			deltas = append(deltas, -4)
		}
	}
	shards, bare := legacyShardedL0(4, keys, deltas, WithSeed(11), WithEpsilon(0.1), WithCopies(3))
	want := foldReference(t, newL0From(shards[0].cfg), shards)

	for name, data := range map[string][]byte{"bare": bare, "enveloped": wrapEnvelope(kindShardedL0, bare)} {
		var l L0
		if err := l.UnmarshalBinary(data); err != nil {
			t.Fatalf("%s: L0.UnmarshalBinary: %v", name, err)
		}
		if !bytes.Equal(mustMarshal(t, &l), want) {
			t.Fatalf("%s: folded state differs from the merge of its shards", name)
		}
		if got := l.Estimate(); math.Abs(got-live)/live > 0.2 {
			t.Fatalf("%s: folded estimate %v, want ≈%d", name, got, live)
		}
	}
	// A sharded L0 is not an F0, enveloped or bare.
	var f F0
	if err := f.UnmarshalBinary(wrapEnvelope(kindShardedL0, bare)); err == nil {
		t.Fatal("sharded L0 envelope accepted by F0")
	}
	if err := f.UnmarshalBinary(bare); err == nil {
		t.Fatal("bare sharded L0 payload accepted by F0")
	}
}

// TestConcurrentMerge: sketches folded from sharded payloads of
// different shard counts merge with each other and with a plain F0 of
// the same options, as a store mixing old checkpoints and new writes
// does; other seeds stay incompatible.
func TestConcurrentMerge(t *testing.T) {
	opts := []Option{WithSeed(15), WithEpsilon(0.1), WithCopies(1)}
	keys := batchKeys(150_000)
	third := len(keys) / 3
	_, p4 := legacyShardedF0(4, keys[:third], opts...)
	_, p8 := legacyShardedF0(8, keys[third:2*third], opts...)
	a, err := Open(p4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(p8)
	if err != nil {
		t.Fatal(err)
	}
	plain := NewF0(opts...)
	plain.AddBatch(keys[2*third:])
	if err := MergeInto(a, b); err != nil {
		t.Fatal(err)
	}
	if err := MergeInto(a, plain); err != nil {
		t.Fatal(err)
	}
	single := NewF0(opts...)
	single.AddBatch(keys)
	want := single.Estimate()
	if got := a.Estimate(); math.Abs(got-want)/want > 0.15 {
		t.Fatalf("merged estimate %v, single-sketch %v", got, want)
	}
	_, other := legacyShardedF0(2, keys[:10], WithSeed(16), WithEpsilon(0.1), WithCopies(1))
	o, err := Open(other)
	if err != nil {
		t.Fatal(err)
	}
	if err := MergeInto(a, o); !errors.Is(err, ErrIncompatible) {
		t.Fatalf("merge across seeds: err = %v, want ErrIncompatible", err)
	}
}

// TestHammingConcurrentL0: L0 sketches restored from sharded payloads
// answer Hamming queries, and neither argument changes.
func TestHammingConcurrentL0(t *testing.T) {
	_, pa := legacyShardedL0(4, keyRange(1, 300), nil, WithSeed(17))
	_, pb := legacyShardedL0(4, keyRange(1, 320), nil, WithSeed(17)) // 20 extra keys
	a, err := Open(pa)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(pb)
	if err != nil {
		t.Fatal(err)
	}
	h, err := Hamming(a, b)
	if err != nil {
		t.Fatal(err)
	}
	near := func(what string, got, want, tol float64) {
		if math.Abs(got-want) > tol {
			t.Errorf("%s = %v, want %v ± %v", what, got, want, tol)
		}
	}
	near("hamming", h, 20, 3*0.05*320)
	near("a after", a.Estimate(), 300, 3*0.05*300)
	near("b after", b.Estimate(), 320, 3*0.05*320)
}

// TestUnionSketchConcurrentKinds: sharded payloads of different shard
// counts fold into sketches that union with each other.
func TestUnionSketchConcurrentKinds(t *testing.T) {
	_, pa := legacyShardedF0(4, keyRange(1, 400), WithSeed(29))
	_, pb := legacyShardedF0(2, keyRange(201, 600), WithSeed(29))
	a, err := Open(pa)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(pb)
	if err != nil {
		t.Fatal(err)
	}
	u, err := Union(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(u-600) > 3*0.05*600 {
		t.Fatalf("union of folded sketches %v, want ≈600", u)
	}
}

// TestDeltaOnShardedBase: a sharded envelope still splits into one
// section per shard, and a delta diffed against it applies and folds,
// which is what loading a delta checkpoint chain written before the
// wrappers were retired needs.
func TestDeltaOnShardedBase(t *testing.T) {
	opts := []Option{WithSeed(19), WithEpsilon(0.2), WithCopies(1)}
	keys := batchKeys(20_000)
	_, before := legacyShardedF0(4, keys, opts...)
	more := append([]uint64(nil), keys...)
	for i := uint64(0); i < 200; i++ {
		more = append(more, (1_000_000+i)*11400714819323198485)
	}
	shards, after := legacyShardedF0(4, more, opts...)
	oldES, err := SplitEnvelope(wrapEnvelope(kindShardedF0, before))
	if err != nil {
		t.Fatal(err)
	}
	newES, err := SplitEnvelope(wrapEnvelope(kindShardedF0, after))
	if err != nil {
		t.Fatal(err)
	}
	if newES.Kind != kindShardedF0 || len(newES.Sections) != 4 {
		t.Fatalf("split: kind %s, %d sections; want the sharded tag and 4", newES.Kind, len(newES.Sections))
	}
	var changed []int
	for i := range newES.Sections {
		if !bytes.Equal(oldES.Sections[i], newES.Sections[i]) {
			changed = append(changed, i)
		}
	}
	if len(changed) == 0 {
		t.Fatal("new keys changed no shard")
	}
	delta, err := AppendDelta(nil, newES, 1, 2, changed, true)
	if err != nil {
		t.Fatal(err)
	}
	applied, err := ApplyDelta(wrapEnvelope(kindShardedF0, before), delta)
	if err != nil {
		t.Fatal(err)
	}
	est, err := Open(applied)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustMarshal(t, est), foldReference(t, newF0From(shards[0].cfg), shards)) {
		t.Fatal("applied sharded delta folds to a different sketch")
	}
}

// TestOpenRejectsCorruptSharded: malformed sharded headers and frames
// error out, never panic.
func TestOpenRejectsCorruptSharded(t *testing.T) {
	shards, good := legacyShardedF0(2, batchKeys(1000), WithSeed(18), WithEpsilon(0.3), WithCopies(1))
	frame := func(f *F0) func(*binenc.Writer) { return f.appendCopyFrames }
	cfg := shards[0].cfg
	bad := map[string][]byte{
		"three shards": legacyPayload(f0ShardedMagic, cfg, []func(*binenc.Writer){frame(shards[0]), frame(shards[1]), frame(shards[0])}),
		"no shards":    legacyPayload(f0ShardedMagic, cfg, nil),
		"trailing":     append(append([]byte(nil), good...), 0),
		"truncated":    good[:len(good)-3],
		"wrong magic":  legacyPayload(l0ShardedMagic, cfg, []func(*binenc.Writer){frame(shards[0])}),
	}
	for name, data := range bad {
		if est, err := Open(data); err == nil {
			t.Errorf("%s: Open accepted it as %T", name, est)
		}
		if err := new(F0).UnmarshalBinary(data); err == nil {
			t.Errorf("%s: F0.UnmarshalBinary accepted it", name)
		}
	}
}
