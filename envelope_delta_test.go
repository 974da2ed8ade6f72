package knw

import (
	"bytes"
	"testing"
)

// wireKindsUnderTest builds one small ingested sketch per wire kind.
func wireKindsUnderTest(t *testing.T) map[Kind]Estimator {
	t.Helper()
	out := make(map[Kind]Estimator)
	for _, kind := range []Kind{KindF0, KindL0} {
		est, err := New(kind, WithEpsilon(0.2), WithSeed(7))
		if err != nil {
			t.Fatalf("New(%s): %v", kind, err)
		}
		keys := make([]uint64, 500)
		for i := range keys {
			keys[i] = uint64(i) * 2654435761
		}
		est.AddBatch(keys)
		out[kind] = est
	}
	return out
}

func marshalSketch(t *testing.T, est Estimator) []byte {
	t.Helper()
	m, ok := est.(interface{ MarshalBinary() ([]byte, error) })
	if !ok {
		t.Fatalf("%s does not marshal", est.Name())
	}
	env, err := m.MarshalBinary()
	if err != nil {
		t.Fatalf("MarshalBinary: %v", err)
	}
	return env
}

// TestSplitAppendIdentity: SplitEnvelope → AppendEnvelope must be the
// identity on every wire kind's envelope.
func TestSplitAppendIdentity(t *testing.T) {
	for kind, est := range wireKindsUnderTest(t) {
		env := marshalSketch(t, est)
		es, err := SplitEnvelope(env)
		if err != nil {
			t.Fatalf("%s: SplitEnvelope: %v", kind, err)
		}
		if es.Kind != kind {
			t.Fatalf("%s: split reports kind %s", kind, es.Kind)
		}
		if len(es.Sections) == 0 {
			t.Fatalf("%s: split found no sections", kind)
		}
		if got := es.AppendEnvelope(nil); !bytes.Equal(got, env) {
			t.Fatalf("%s: reassembled envelope differs (%d vs %d bytes)", kind, len(got), len(env))
		}
	}
}

// TestDeltaRoundTrip: diffing two states of the same sketch and
// applying the delta to the old full envelope must reproduce the new
// full envelope byte for byte — compressed and uncompressed.
func TestDeltaRoundTrip(t *testing.T) {
	for _, compress := range []bool{false, true} {
		for kind, est := range wireKindsUnderTest(t) {
			before := marshalSketch(t, est)
			extra := make([]uint64, 200)
			for i := range extra {
				extra[i] = uint64(1_000_000+i) * 11400714819323198485
			}
			est.AddBatch(extra)
			after := marshalSketch(t, est)

			oldES, err := SplitEnvelope(before)
			if err != nil {
				t.Fatalf("%s: split before: %v", kind, err)
			}
			newES, err := SplitEnvelope(after)
			if err != nil {
				t.Fatalf("%s: split after: %v", kind, err)
			}
			if len(oldES.Sections) != len(newES.Sections) {
				t.Fatalf("%s: section count changed %d → %d", kind, len(oldES.Sections), len(newES.Sections))
			}
			var changed []int
			for i := range newES.Sections {
				if !bytes.Equal(oldES.Sections[i], newES.Sections[i]) {
					changed = append(changed, i)
				}
			}
			if len(changed) == 0 {
				t.Fatalf("%s: ingest changed no sections", kind)
			}
			delta, err := AppendDelta(nil, newES, 3, 4, changed, compress)
			if err != nil {
				t.Fatalf("%s: AppendDelta: %v", kind, err)
			}
			if !IsDelta(delta) {
				t.Fatalf("%s: IsDelta(delta) = false", kind)
			}
			if IsDelta(after) {
				t.Fatalf("%s: IsDelta(full envelope) = true", kind)
			}
			d, err := DecodeDelta(delta)
			if err != nil {
				t.Fatalf("%s: DecodeDelta: %v", kind, err)
			}
			if d.Kind != kind || d.Base != 3 || d.Next != 4 || d.TotalSections != len(newES.Sections) {
				t.Fatalf("%s: decoded delta header %+v", kind, d)
			}
			got, err := ApplyDelta(before, delta)
			if err != nil {
				t.Fatalf("%s: ApplyDelta: %v", kind, err)
			}
			if !bytes.Equal(got, after) {
				t.Fatalf("%s (compress=%v): applied delta differs from the full envelope", kind, compress)
			}
			// The applied envelope must open into a sketch with the same
			// estimate as the source.
			opened, err := Open(got)
			if err != nil {
				t.Fatalf("%s: Open(applied): %v", kind, err)
			}
			if opened.Estimate() != est.Estimate() {
				t.Fatalf("%s: applied estimate %v != source %v", kind, opened.Estimate(), est.Estimate())
			}
		}
	}
}

// TestDeltaCompressionShrinks: a sparse delta body of mostly-zero
// counters must compress.
func TestDeltaCompressionShrinks(t *testing.T) {
	est, err := New(KindF0, WithEpsilon(0.05), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	est.AddBatch([]uint64{1, 2, 3})
	es, err := SplitEnvelope(marshalSketch(t, est))
	if err != nil {
		t.Fatal(err)
	}
	all := make([]int, len(es.Sections))
	for i := range all {
		all[i] = i
	}
	plain, err := AppendDelta(nil, es, 0, 1, all, false)
	if err != nil {
		t.Fatal(err)
	}
	packed, err := AppendDelta(nil, es, 0, 1, all, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(packed) >= len(plain) {
		t.Fatalf("compressed delta %dB not smaller than plain %dB", len(packed), len(plain))
	}
	got, err := DecodeDelta(packed)
	if err != nil {
		t.Fatal(err)
	}
	want, err := DecodeDelta(plain)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Sections {
		if !bytes.Equal(got.Sections[i], want.Sections[i]) {
			t.Fatalf("section %d differs after compression round-trip", i)
		}
	}
}

// TestDeltaMismatchRejected: structural guards on apply.
func TestDeltaMismatchRejected(t *testing.T) {
	sketches := wireKindsUnderTest(t)
	f0 := marshalSketch(t, sketches[KindF0])
	l0 := marshalSketch(t, sketches[KindL0])
	f0ES, err := SplitEnvelope(f0)
	if err != nil {
		t.Fatal(err)
	}
	delta, err := AppendDelta(nil, f0ES, 1, 2, []int{0}, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ApplyDelta(l0, delta); err == nil {
		t.Fatal("F0 delta applied to an L0 base")
	}
	// Same kind, different settings → header checksum mismatch.
	other, err := New(KindF0, WithEpsilon(0.1), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	other.AddBatch([]uint64{1})
	if _, err := ApplyDelta(marshalSketch(t, other), delta); err == nil {
		t.Fatal("delta applied across differing settings")
	}
	// Out-of-order / out-of-range encode requests fail.
	if _, err := AppendDelta(nil, f0ES, 1, 2, []int{2, 1}, false); err == nil {
		t.Fatal("out-of-order section list encoded")
	}
	if _, err := AppendDelta(nil, f0ES, 1, 2, []int{len(f0ES.Sections)}, false); err == nil {
		t.Fatal("out-of-range section index encoded")
	}
	// Open must refuse a bare delta with a useful error.
	if _, err := Open(delta); err == nil {
		t.Fatal("Open accepted a KNWD delta")
	}
}

// TestSplitRejectsUnframed: version-1 (unframed) payloads and
// pre-envelope blobs cannot be split.
func TestSplitRejectsUnframed(t *testing.T) {
	est := wireKindsUnderTest(t)[KindF0]
	legacy := est.(*F0).marshalLegacy()
	if _, err := SplitEnvelope(legacy); err == nil {
		t.Fatal("split accepted a pre-envelope payload")
	}
	if _, err := SplitEnvelope([]byte{0x01, 0x02}); err == nil {
		t.Fatal("split accepted garbage")
	}
	if _, err := SplitEnvelope(nil); err == nil {
		t.Fatal("split accepted empty input")
	}
}

// addDeltaSeeds seeds a (delta, base) fuzz target: deltas plain and
// DEFLATE-compressed against their base, the pair swapped, and empty
// input.
func addDeltaSeeds(f *testing.F) {
	est, err := New(KindF0, WithEpsilon(0.2), WithSeed(7))
	if err != nil {
		f.Fatal(err)
	}
	est.AddBatch([]uint64{1, 2, 3, 4, 5})
	full, _ := est.(*F0).MarshalBinary()
	es, err := SplitEnvelope(full)
	if err != nil {
		f.Fatal(err)
	}
	seed, err := AppendDelta(nil, es, 1, 2, []int{0}, false)
	if err != nil {
		f.Fatal(err)
	}
	seedZ, err := AppendDelta(nil, es, 1, 2, []int{0}, true)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed, full)
	f.Add(seedZ, full)
	f.Add(full, seed)
	f.Add([]byte{}, []byte{})
}

// FuzzDeltaEnvelope drives the KNWD decode/apply path with arbitrary
// bytes: DecodeDelta and ApplyDelta must return errors, never panic,
// and a valid round-trip must stay byte-identical.
func FuzzDeltaEnvelope(f *testing.F) {
	addDeltaSeeds(f)
	f.Fuzz(func(t *testing.T, delta, base []byte) {
		d, err := DecodeDelta(delta)
		if err == nil {
			// A decodable delta must re-decode identically after a strict
			// re-encode of its own sections.
			if len(d.Indexes) != len(d.Sections) {
				t.Fatalf("decoded delta with %d indexes, %d sections", len(d.Indexes), len(d.Sections))
			}
		}
		out, err := ApplyDelta(base, delta)
		if err != nil {
			return
		}
		// A successful apply must produce a splittable envelope of the
		// same shape.
		res, err := SplitEnvelope(out)
		if err != nil {
			t.Fatalf("applied delta is not splittable: %v", err)
		}
		if len(res.Sections) != d.TotalSections {
			t.Fatalf("applied envelope has %d sections, delta claimed %d", len(res.Sections), d.TotalSections)
		}
	})
}
