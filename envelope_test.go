package knw

import (
	"bytes"
	"encoding"
	"strings"
	"testing"

	"repro/internal/binenc"
)

// wrapEnvelope frames a payload with the envelope header for kind, so
// tests can build envelopes no production writer emits.
func wrapEnvelope(kind Kind, payload []byte) []byte {
	return appendEnvelope(nil, kind, func(b []byte) []byte { return append(b, payload...) })
}

// buildWireSketches returns one ingested sketch per wire kind, all
// deterministic (fixed seeds, fixed streams).
func buildWireSketches() map[Kind]Estimator {
	keys := batchKeys(40_000)
	f := NewF0(WithSeed(91), WithEpsilon(0.1), WithCopies(3))
	f.AddBatch(keys)
	l := NewL0(WithSeed(92), WithEpsilon(0.2), WithCopies(3))
	deltas := make([]int64, len(keys))
	for i := range deltas {
		deltas[i] = int64(i%5 - 2)
	}
	l.UpdateBatch(keys, deltas)
	return map[Kind]Estimator{KindF0: f, KindL0: l}
}

// TestOpenRoundTripsAllKinds is the acceptance gate: for every wire
// kind, Open(MarshalBinary()) restores the concrete type to
// byte-identical state.
func TestOpenRoundTripsAllKinds(t *testing.T) {
	for kind, orig := range buildWireSketches() {
		blob, err := orig.(encoding.BinaryMarshaler).MarshalBinary()
		if err != nil {
			t.Fatalf("%s: marshal: %v", kind, err)
		}
		back, err := Open(blob)
		if err != nil {
			t.Fatalf("%s: Open: %v", kind, err)
		}
		switch kind {
		case KindF0:
			if _, ok := back.(*F0); !ok {
				t.Fatalf("%s: Open returned %T", kind, back)
			}
		case KindL0:
			if _, ok := back.(*L0); !ok {
				t.Fatalf("%s: Open returned %T", kind, back)
			}
		}
		blob2, err := back.(encoding.BinaryMarshaler).MarshalBinary()
		if err != nil {
			t.Fatalf("%s: re-marshal: %v", kind, err)
		}
		if !bytes.Equal(blob, blob2) {
			t.Fatalf("%s: Open(MarshalBinary()) is not byte-identical", kind)
		}
		if got, want := back.Estimate(), orig.Estimate(); got != want {
			t.Fatalf("%s: restored estimate %v != %v", kind, got, want)
		}
		// Turnstile-ness survives the round trip.
		_, wasTurnstile := orig.(TurnstileEstimator)
		_, isTurnstile := back.(TurnstileEstimator)
		if wasTurnstile != isTurnstile {
			t.Fatalf("%s: turnstile surface lost in Open", kind)
		}
	}
}

// TestOpenLegacyPayloads: pre-envelope blobs — bare version-2 and the
// unframed version-1 format — still load, both through Open and the
// per-type UnmarshalBinary.
func TestOpenLegacyPayloads(t *testing.T) {
	sketches := buildWireSketches()

	bare := map[Kind][]byte{
		KindF0: sketches[KindF0].(*F0).marshalLegacy(),
		KindL0: sketches[KindL0].(*L0).marshalLegacy(),
	}
	for kind, payload := range bare {
		back, err := Open(payload)
		if err != nil {
			t.Fatalf("%s: Open(bare v2): %v", kind, err)
		}
		if got, want := back.Estimate(), sketches[kind].Estimate(); got != want {
			t.Fatalf("%s: bare v2 estimate %v != %v", kind, got, want)
		}
	}

	// v1 (unframed) payloads, as written before the framed format.
	v1f := marshalV1F0(sketches[KindF0].(*F0))
	back, err := Open(v1f)
	if err != nil {
		t.Fatalf("Open(v1 F0): %v", err)
	}
	if got, want := back.Estimate(), sketches[KindF0].Estimate(); got != want {
		t.Fatalf("v1 F0 estimate %v != %v", got, want)
	}
	v1l := marshalV1L0(sketches[KindL0].(*L0))
	back, err = Open(v1l)
	if err != nil {
		t.Fatalf("Open(v1 L0): %v", err)
	}
	if got, want := back.Estimate(), sketches[KindL0].Estimate(); got != want {
		t.Fatalf("v1 L0 estimate %v != %v", got, want)
	}

	// The per-type decoders accept all three framings.
	var f F0
	for _, payload := range [][]byte{v1f, bare[KindF0], mustMarshal(t, sketches[KindF0])} {
		if err := f.UnmarshalBinary(payload); err != nil {
			t.Fatalf("F0.UnmarshalBinary on legacy framing: %v", err)
		}
	}

	// Writers have always emitted the exact-phase keys sorted, but a
	// payload listing them unsorted or repeated names the same set:
	// it loads to the same estimate and re-marshals canonical.
	small := NewF0(WithSeed(93), WithEpsilon(0.3), WithCopies(1))
	small.AddBatch([]uint64{500, 100, 400, 200, 300})
	want := mustMarshal(t, small)
	for _, exact := range [][]uint64{
		{500, 300, 100, 400, 200},
		{300, 100, 300, 500, 100, 200, 400, 400},
	} {
		back, err := Open(wrapEnvelope(KindF0, v1WithExact(t, small, exact)))
		if err != nil {
			t.Fatalf("exact keys %v: Open: %v", exact, err)
		}
		if got := back.Estimate(); got != 5 {
			t.Errorf("exact keys %v: estimate %v, want 5", exact, got)
		}
		if !bytes.Equal(mustMarshal(t, back), want) {
			t.Errorf("exact keys %v: re-marshal is not the sorted, deduplicated encoding", exact)
		}
	}
}

// v1WithExact returns f's unframed version-1 payload with its one
// copy's exact-phase keys written as given, in order.
func v1WithExact(t *testing.T, f *F0, exact []uint64) []byte {
	t.Helper()
	if len(f.fast) != 1 {
		t.Fatal("v1WithExact needs a one-copy fast F0")
	}
	var w binenc.Writer
	f.fast[0].AppendState(&w)
	state := w.Buf
	// Skip what precedes the small-F0 section: K, the counters, b,
	// est, failed, rescales and drains.
	r := binenc.Reader{Buf: state}
	r.Uints(int(r.Uvarint()))
	r.Varint()
	r.Varint()
	r.Bool()
	r.Uvarint()
	r.Uvarint()
	start := len(state) - len(r.Buf)
	r.Uints(1 << 10)
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	end := len(state) - len(r.Buf)

	out := binenc.Writer{}
	out.Uvarint(f0Magic)
	out.Uvarint(1)
	appendSettings(&out, f.cfg)
	out.Buf = append(out.Buf, state[:start]...)
	out.Uints(exact)
	out.Buf = append(out.Buf, state[end:]...)
	return out.Buf
}

func mustMarshal(t *testing.T, e Estimator) []byte {
	t.Helper()
	b, err := e.(encoding.BinaryMarshaler).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestMergeAfterRestore: a sketch merges with its own restored
// checkpoint even when the seed was time-derived (regression: the
// settings comparison used to include the internal seed-was-explicit
// flag, which restore always sets, so un-seeded sketches rejected
// their own checkpoints).
func TestMergeAfterRestore(t *testing.T) {
	a := NewL0(WithEpsilon(0.3), WithCopies(1)) // no WithSeed
	for i := uint64(1); i <= 5000; i++ {
		a.Add(i)
	}
	blob := mustMarshal(t, a)
	restored, err := Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Merge(restored.(*L0)); err != nil {
		t.Fatalf("merge with own restored checkpoint: %v", err)
	}

	f := NewF0(WithEpsilon(0.3), WithCopies(1)) // no WithSeed
	f.Add(1)
	var fr F0
	if err := fr.UnmarshalBinary(mustMarshal(t, f)); err != nil {
		t.Fatal(err)
	}
	if err := f.Merge(&fr); err != nil {
		t.Fatalf("F0 merge with own restored checkpoint: %v", err)
	}
}

// TestEnvelopeKindMismatch: a blob of one kind refuses to unmarshal as
// another, with an error naming both kinds.
func TestEnvelopeKindMismatch(t *testing.T) {
	l := NewL0(WithSeed(95), WithEpsilon(0.3), WithCopies(1))
	blob := mustMarshal(t, l)
	var f F0
	err := f.UnmarshalBinary(blob)
	if err == nil {
		t.Fatal("L0 envelope accepted by F0")
	}
	if !strings.Contains(err.Error(), "l0") || !strings.Contains(err.Error(), "f0") {
		t.Errorf("mismatch error does not name the kinds: %v", err)
	}
}

// TestOpenRejectsCorrupt: malformed envelopes error out (never panic,
// never succeed).
func TestOpenRejectsCorrupt(t *testing.T) {
	f := NewF0(WithSeed(96), WithEpsilon(0.3), WithCopies(1))
	for i := 0; i < 5000; i++ {
		f.Add(uint64(i) + 1)
	}
	blob := mustMarshal(t, f)

	for name, data := range map[string][]byte{
		"empty":    nil,
		"one byte": {0x45},
		"text":     []byte("not a sketch at all, definitely"),
		"trailing": append(append([]byte{}, blob...), 0x00),
	} {
		if _, err := Open(data); err == nil {
			t.Errorf("Open accepted %s", name)
		}
	}
	for _, cut := range []int{1, 3, len(blob) / 4, len(blob) / 2, len(blob) - 1} {
		if _, err := Open(blob[:cut]); err == nil {
			t.Errorf("Open accepted truncation at %d", cut)
		}
	}

	// Unknown kind tag.
	unknown := wrapEnvelope(Kind(250), []byte("payload"))
	if _, err := Open(unknown); err == nil || !strings.Contains(err.Error(), "unknown kind") {
		t.Errorf("unknown kind: %v", err)
	}
	// Non-wire kind tag.
	nonWire := wrapEnvelope(KindHyperLogLog, []byte("payload"))
	if _, err := Open(nonWire); err == nil || !strings.Contains(err.Error(), "does not serialize") {
		t.Errorf("non-wire kind: %v", err)
	}
	// Future envelope version.
	var w = wrapEnvelope(KindF0, f.marshalLegacy())
	w[5]++ // envMagic is a 5-byte uvarint; byte 5 is the version
	if _, err := Open(w); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("future version: %v", err)
	}
}
