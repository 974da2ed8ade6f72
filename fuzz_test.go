package knw

import (
	"bytes"
	"encoding"
	"os"
	"path/filepath"
	"testing"
)

// Fuzz targets for the deserialization surface: corrupted, truncated,
// or adversarial payloads must produce errors, never panics or
// unbounded allocations. The settings validator (serialize.go) is the
// load-bearing wall here — it bounds copies·K and rejects the
// non-power-of-two K overrides the core constructors panic on.
//
// Run with: go test -fuzz=FuzzOpen (or -fuzz=FuzzUnmarshal)

// fuzzSeeds returns valid payloads in every framing, as mutation
// starting points. The retired sharded framings come from the committed
// goldens, so the fold decoder (legacy.go) stays fuzzed. The last seed
// is an F0 envelope with a counter past what the VLA can hold.
func fuzzSeeds() [][]byte {
	keys := make([]uint64, 500)
	deltas := make([]int64, len(keys))
	for i := range keys {
		keys[i] = uint64(i)*0x9e3779b97f4a7c15>>32 + 1
		deltas[i] = int64(i%3 - 1)
	}
	small := []Option{WithEpsilon(0.3), WithCopies(1), WithK(32),
		WithUniverseBits(16), WithUpdateBits(8)}
	f := NewF0(append([]Option{WithSeed(2001)}, small...)...)
	f.AddBatch(keys)
	l := NewL0(append([]Option{WithSeed(2002)}, small...)...)
	l.UpdateBatch(keys, deltas)

	fEnv, _ := f.MarshalBinary()
	lEnv, _ := l.MarshalBinary()
	seeds := [][]byte{
		fEnv, lEnv,
		f.marshalLegacy(), l.marshalLegacy(),
		marshalV1F0(f), marshalV1L0(l),
		wrapEnvelope(Kind(99), []byte("junk")),
		fEnv[:len(fEnv)/2],
		nil,
	}
	for _, name := range []string{"concurrent_f0_v2", "concurrent_f0_envelope",
		"concurrent_l0_v2", "concurrent_l0_envelope"} {
		if b, err := os.ReadFile(filepath.Join("testdata", name+".golden")); err == nil {
			seeds = append(seeds, b)
		}
	}
	return append(seeds, overflowCounterF0())
}

// FuzzOpen: Open must never panic; when it accepts a payload, the
// restored sketch must be fully functional (re-marshal, re-open,
// byte-identical the second time around).
func FuzzOpen(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		est, err := Open(data)
		if err != nil {
			return
		}
		blob, err := est.(encoding.BinaryMarshaler).MarshalBinary()
		if err != nil {
			t.Fatalf("accepted payload failed to re-marshal: %v", err)
		}
		again, err := Open(blob)
		if err != nil {
			t.Fatalf("re-marshal of accepted payload failed to re-open: %v", err)
		}
		blob2, err := again.(encoding.BinaryMarshaler).MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(blob, blob2) {
			t.Fatal("re-marshal after Open is not a fixed point")
		}
		// The restored sketch must take updates without panicking.
		est.Add(12345)
		est.Estimate()
	})
}

// FuzzUnmarshal drives the two concrete decoders directly (the typed
// paths a service would call when it knows what it stored).
func FuzzUnmarshal(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var f0 F0
		if err := f0.UnmarshalBinary(data); err == nil {
			f0.Add(1)
			f0.Estimate()
		}
		var l0 L0
		if err := l0.UnmarshalBinary(data); err == nil {
			l0.Update(1, -1)
			l0.Estimate()
		}
	})
}
