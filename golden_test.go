package knw

import (
	"bytes"
	"crypto/sha256"
	"encoding"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// Golden wire-format tests. The files under testdata/ are committed
// payloads in each framing the readers promise to accept forever:
//
//	*_v1.golden        legacy unframed format (pre-framing writers)
//	*_v2.golden        bare framed format (pre-envelope writers)
//	*_envelope.golden  current self-describing envelope
//	concurrent_*       the retired sharded wrappers' payloads (legacy.go)
//
// The test asserts two independent things: (a) today's writers still
// produce byte-identical v2/envelope payloads for the same sketch
// state (format stability — any drift must be a deliberate version
// bump plus a -update regeneration), and (b) today's readers load
// every committed payload back to the recorded estimate (compatibility
// — old checkpoints keep working).
//
// Nothing writes the sharded payloads any more, so their files are
// never regenerated. For them, (a) checks the test-only rebuild in
// legacy_test.go instead, and (b) also pins the folded sketch to the
// one the sharded wrapper's Estimate merged its shards into.
//
// Regenerate with: go test -run TestGolden -update .
var updateGolden = flag.Bool("update", false, "rewrite golden wire-format files")

// goldenKeys is the stream every golden sketch ingests.
func goldenKeys() ([]uint64, []int64) {
	keys := make([]uint64, 3000)
	deltas := make([]int64, len(keys))
	for i := range keys {
		keys[i] = (uint64(i)*0x9e3779b97f4a7c15>>16 + 1) & (1<<16 - 1)
		deltas[i] = int64(i%5 - 2)
	}
	return keys, deltas
}

// goldenOpts returns the golden sketches' options. Small on purpose
// (copies=1, coarse ε) so the committed files stay a few KB: WithK(32)
// pins the counter count at the floor and the narrow universe/update
// bounds shrink the L0 levels.
func goldenOpts(seed int64) []Option {
	return []Option{WithSeed(seed), WithEpsilon(0.3), WithCopies(1), WithK(32),
		WithUniverseBits(16), WithUpdateBits(8)}
}

// goldenSketches builds the deterministic fixtures the golden files
// capture.
func goldenSketches() (f *F0, l *L0) {
	keys, deltas := goldenKeys()
	f = NewF0(goldenOpts(1001)...)
	f.AddBatch(keys)
	l = NewL0(goldenOpts(1002)...)
	l.UpdateBatch(keys, deltas)
	return
}

// Fold digests: SHA-256 of the envelope of the sketch the sharded
// wrapper's Estimate merged each sharded golden's shards into, recorded
// by the last release that still had the wrappers.
const (
	goldenFoldF0 = "461da1d3705d2b78868841f782f9d47d4b1ffbca28ab76dcd23d232a37b2a489"
	goldenFoldL0 = "bda6ff8238d5e8646a7c12ca6de242e1a06424ab5fe7d0ff66f6607265432c87"
)

func TestGoldenWireFormats(t *testing.T) {
	f, l := goldenSketches()
	keys, deltas := goldenKeys()
	_, cf := legacyShardedF0(2, keys, goldenOpts(1003)...)
	_, cl := legacyShardedL0(2, keys, deltas, goldenOpts(1004)...)
	cases := []struct {
		file string
		data []byte  // what today's writer produces for this framing
		want float64 // estimate the payload must restore to
		fold string  // sharded goldens: digest of the folded envelope
	}{
		{"f0_v1.golden", marshalV1F0(f), f.Estimate(), ""},
		{"f0_v2.golden", f.marshalLegacy(), f.Estimate(), ""},
		{"f0_envelope.golden", mustMarshal(t, f), f.Estimate(), ""},
		{"l0_v1.golden", marshalV1L0(l), l.Estimate(), ""},
		{"l0_v2.golden", l.marshalLegacy(), l.Estimate(), ""},
		{"l0_envelope.golden", mustMarshal(t, l), l.Estimate(), ""},
		// The sharded goldens' estimates are the ones the wrappers
		// reported for them (their K=32 floor reads 0 at this size).
		{"concurrent_f0_v2.golden", cf, 0, goldenFoldF0},
		{"concurrent_f0_envelope.golden", wrapEnvelope(kindShardedF0, cf), 0, goldenFoldF0},
		{"concurrent_l0_v2.golden", cl, 0, goldenFoldL0},
		{"concurrent_l0_envelope.golden", wrapEnvelope(kindShardedL0, cl), 0, goldenFoldL0},
	}

	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range cases {
		path := filepath.Join("testdata", c.file)
		if *updateGolden {
			if c.fold != "" {
				continue // retired format: the committed bytes are the record
			}
			if err := os.WriteFile(path, c.data, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		golden, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s missing (run `go test -run TestGolden -update .`): %v", c.file, err)
		}
		// (a) Writer stability.
		if !bytes.Equal(golden, c.data) {
			t.Errorf("%s: writer output drifted from committed golden bytes", c.file)
		}
		// (b) Reader compatibility, through the one front door.
		est, err := Open(golden)
		if err != nil {
			t.Errorf("%s: Open: %v", c.file, err)
			continue
		}
		if got := est.Estimate(); got != c.want {
			t.Errorf("%s: restored estimate %v, want %v", c.file, got, c.want)
		}
		// Re-marshaling a restored golden produces the current
		// (enveloped) framing and round-trips again.
		blob, err := est.(encoding.BinaryMarshaler).MarshalBinary()
		if err != nil {
			t.Errorf("%s: re-marshal: %v", c.file, err)
			continue
		}
		if _, err := Open(blob); err != nil {
			t.Errorf("%s: reopen of re-marshal: %v", c.file, err)
		}
		if c.fold != "" {
			if sum := fmt.Sprintf("%x", sha256.Sum256(blob)); sum != c.fold {
				t.Errorf("%s: folded sketch digest %s, want %s", c.file, sum, c.fold)
			}
		}
	}
}
