package store

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	knw "repro"
)

// testConfig is a small deterministic store config: plain F0 keeps the
// unit tests fast, the pinned seed makes merges and restores exact.
func testConfig() Config {
	return Config{
		Kind:    knw.KindF0,
		Options: []knw.Option{knw.WithEpsilon(0.05), knw.WithSeed(1)},
	}
}

func keys(prefix string, lo, hi int) []string {
	out := make([]string, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, fmt.Sprintf("%s-%d", prefix, i))
	}
	return out
}

// within asserts |got − want| ≤ tol·want.
func within(t *testing.T, what string, got, want, tol float64) {
	t.Helper()
	if math.IsNaN(got) || math.Abs(got-want) > tol*want {
		t.Fatalf("%s: got %.1f, want %.1f ± %.0f%%", what, got, want, tol*100)
	}
}

func TestCreateOnFirstWriteAndEstimate(t *testing.T) {
	s, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Estimate("acme/users"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("estimate before write: got %v, want ErrNotFound", err)
	}
	if err := s.Ingest("acme/users", keys("u", 0, 5000)); err != nil {
		t.Fatal(err)
	}
	if err := s.Ingest("acme/users", keys("u", 0, 5000)); err != nil { // duplicates
		t.Fatal(err)
	}
	est, err := s.Estimate("acme/users")
	if err != nil {
		t.Fatal(err)
	}
	within(t, "all-time estimate", est.AllTime, 5000, 0.25)
	if est.Windowed {
		t.Fatal("windowed estimate reported by an unwindowed store")
	}
	if got := s.Names(); len(got) != 1 || got[0] != "acme/users" {
		t.Fatalf("Names() = %v", got)
	}
}

func TestNameValidation(t *testing.T) {
	s, _ := New(testConfig())
	for _, bad := range []string{"", "a\x00b", "x\n", string(make([]byte, 300))} {
		if err := s.Ingest(bad, []string{"k"}); err == nil {
			t.Fatalf("name %q accepted", bad)
		}
	}
}

func TestConcurrentIngest(t *testing.T) {
	cfg := testConfig()
	cfg.Kind = knw.KindF0
	cfg.Window = Window{Buckets: 4, Interval: time.Hour}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := fmt.Sprintf("tenant%d/users", g%4)
			for b := 0; b < 10; b++ {
				if err := s.Ingest(name, keys("k", b*100, b*100+100)); err != nil {
					t.Error(err)
					return
				}
				if _, err := s.Estimate(name); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got := s.Len(); got != 4 {
		t.Fatalf("Len() = %d, want 4", got)
	}
	// Each tenant saw the same 1000 distinct keys from 2 goroutines.
	for i := 0; i < 4; i++ {
		est, err := s.Estimate(fmt.Sprintf("tenant%d/users", i))
		if err != nil {
			t.Fatal(err)
		}
		within(t, "concurrent estimate", est.AllTime, 1000, 0.25)
		within(t, "concurrent window estimate", est.Window, 1000, 0.25)
	}
}

// TestWindowRotation drives a fake clock through bucket boundaries and
// checks the bucket-granular sliding-window semantics: the windowed
// estimate is the union over the live ring, old buckets expire, and
// the all-time estimate keeps everything.
func TestWindowRotation(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	cfg := testConfig()
	cfg.Window = Window{Buckets: 3, Interval: time.Minute}
	cfg.Now = func() time.Time { return now }
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Minute 0: 1000 keys. Minute 1: 1000 more (500 overlapping).
	if err := s.Ingest("t/m", keys("a", 0, 1000)); err != nil {
		t.Fatal(err)
	}
	now = now.Add(time.Minute)
	if err := s.Ingest("t/m", keys("a", 500, 1500)); err != nil {
		t.Fatal(err)
	}
	est, _ := s.Estimate("t/m")
	if !est.Windowed {
		t.Fatal("store should be windowed")
	}
	// Both buckets live: union of [0,1500).
	within(t, "window union across buckets", est.Window, 1500, 0.25)
	within(t, "all-time", est.AllTime, 1500, 0.25)

	// Advance past the ring (3 more minutes): minute-0 and minute-1
	// buckets expire; a fresh bucket gets 200 new keys.
	now = now.Add(3 * time.Minute)
	if err := s.Ingest("t/m", keys("b", 0, 200)); err != nil {
		t.Fatal(err)
	}
	est, _ = s.Estimate("t/m")
	within(t, "window after expiry", est.Window, 200, 0.25)
	within(t, "all-time after expiry", est.AllTime, 1700, 0.25)

	// A long idle gap empties the whole window but not the total.
	now = now.Add(time.Hour)
	est, _ = s.Estimate("t/m")
	if est.Window != 0 {
		t.Fatalf("window after idle gap = %.1f, want 0", est.Window)
	}
	within(t, "all-time after idle gap", est.AllTime, 1700, 0.25)
}

func TestSnapshotMergeRoundTrip(t *testing.T) {
	a, _ := New(testConfig())
	b, _ := New(testConfig()) // same pinned seed → mergeable
	if err := a.Ingest("t/m", keys("x", 0, 3000)); err != nil {
		t.Fatal(err)
	}
	if err := b.Ingest("t/m", keys("x", 2000, 5000)); err != nil {
		t.Fatal(err)
	}
	env, err := a.Snapshot("t/m", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Merge("t/m", env); err != nil {
		t.Fatal(err)
	}
	est, _ := b.Estimate("t/m")
	within(t, "merged union", est.AllTime, 5000, 0.25)

	// Merge into a never-written name creates the entry.
	if err := b.Merge("fresh/m", env); err != nil {
		t.Fatal(err)
	}
	est, _ = b.Estimate("fresh/m")
	within(t, "merge-created store", est.AllTime, 3000, 0.25)
}

// TestMergeRestoreMismatch is the regression test for the 409 path:
// foreign envelopes (wrong kind, wrong options, wrong seed, corrupt
// bytes) are rejected with a typed error and never panic.
func TestMergeRestoreMismatch(t *testing.T) {
	s, _ := New(testConfig())
	if err := s.Ingest("t/m", keys("x", 0, 100)); err != nil {
		t.Fatal(err)
	}

	foreign := map[string][]byte{}
	wrongKind, _ := knw.New(knw.KindL0, knw.WithEpsilon(0.05), knw.WithSeed(1))
	foreign["kind"], _ = wrongKind.(*knw.L0).MarshalBinary()
	wrongEps := knw.NewF0(knw.WithEpsilon(0.1), knw.WithSeed(1))
	foreign["epsilon"], _ = wrongEps.MarshalBinary()
	wrongSeed := knw.NewF0(knw.WithEpsilon(0.05), knw.WithSeed(99))
	foreign["seed"], _ = wrongSeed.MarshalBinary()

	for what, env := range foreign {
		if err := s.Merge("t/m", env); !errors.Is(err, knw.ErrIncompatible) {
			t.Fatalf("Merge(%s mismatch): got %v, want ErrIncompatible", what, err)
		}
		if err := s.Restore("t/m", env); !errors.Is(err, knw.ErrIncompatible) {
			t.Fatalf("Restore(%s mismatch): got %v, want ErrIncompatible", what, err)
		}
	}

	// Corrupt bytes are a decode error, not a mismatch (and never a
	// panic).
	if err := s.Merge("t/m", []byte("not an envelope")); err == nil || errors.Is(err, knw.ErrIncompatible) {
		t.Fatalf("Merge(corrupt): got %v, want plain decode error", err)
	}

	// A rejected merge into a never-written name must not leave a ghost
	// entry behind (it would shadow 404s and pollute checkpoints).
	if err := s.Merge("ghost/m", foreign["seed"]); !errors.Is(err, knw.ErrIncompatible) {
		t.Fatalf("Merge(ghost): got %v, want ErrIncompatible", err)
	}
	if _, err := s.Estimate("ghost/m"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("rejected merge created a ghost entry: %v", err)
	}

	// Nothing above disturbed the existing sketch.
	est, _ := s.Estimate("t/m")
	within(t, "estimate after rejected merges", est.AllTime, 100, 0.3)
}

func TestRestoreReplacesState(t *testing.T) {
	s, _ := New(testConfig())
	if err := s.Ingest("t/m", keys("x", 0, 4000)); err != nil {
		t.Fatal(err)
	}
	donor := knw.NewF0(knw.WithEpsilon(0.05), knw.WithSeed(1))
	hasher := knw.NewHasher[string](1, 32)
	for _, k := range keys("y", 0, 700) {
		donor.Add(hasher.Hash(k))
	}
	env, _ := donor.MarshalBinary()
	if err := s.Restore("t/m", env); err != nil {
		t.Fatal(err)
	}
	est, _ := s.Estimate("t/m")
	within(t, "restored estimate", est.AllTime, 700, 0.25)

	// Ingestion continues on the restored sketch with the same hashing.
	if err := s.Ingest("t/m", keys("y", 0, 700)); err != nil { // duplicates
		t.Fatal(err)
	}
	est, _ = s.Estimate("t/m")
	within(t, "restored + duplicate ingest", est.AllTime, 700, 0.25)
}

// TestCheckpointRoundTrip proves restart semantics at the store level:
// a loaded checkpoint reproduces byte-identical snapshots and
// estimates, including window ring state.
func TestCheckpointRoundTrip(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	cfg := testConfig()
	cfg.Window = Window{Buckets: 3, Interval: time.Minute}
	cfg.Now = func() time.Time { return now }
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{"a/m", "b/m", "c/m", "d/m"} {
		if err := s.Ingest(name, keys(name, 0, 1000*(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	now = now.Add(time.Minute)
	if err := s.Ingest("a/m", keys("late", 0, 500)); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	if err := s.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}

	restored, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n, err := restored.LoadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("restored %d entries, want 4", n)
	}
	for _, name := range s.Names() {
		want, _ := s.Estimate(name)
		got, err := restored.Estimate(name)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%s: restored estimate %+v != original %+v", name, got, want)
		}
		wantEnv, _ := s.Snapshot(name, nil)
		gotEnv, _ := restored.Snapshot(name, nil)
		if string(wantEnv) != string(gotEnv) {
			t.Fatalf("%s: restored snapshot differs from original", name)
		}
	}

	// The restored ring keeps rotating correctly: expire everything and
	// check the window drains while the total stays.
	now = now.Add(time.Hour)
	est, _ := restored.Estimate("a/m")
	if est.Window != 0 {
		t.Fatalf("restored window after expiry = %.1f, want 0", est.Window)
	}
	within(t, "restored all-time after expiry", est.AllTime, 1500, 0.25)
}

// TestLoadCheckpointMismatch: a checkpoint written under different
// options must be rejected with the typed error, not installed.
func TestLoadCheckpointMismatch(t *testing.T) {
	s, _ := New(testConfig())
	if err := s.Ingest("t/m", keys("x", 0, 100)); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := s.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}

	other := testConfig()
	other.Options = []knw.Option{knw.WithEpsilon(0.05), knw.WithSeed(2)}
	s2, _ := New(other)
	if _, err := s2.LoadCheckpoint(dir); !errors.Is(err, knw.ErrIncompatible) {
		t.Fatalf("LoadCheckpoint(mismatched store): got %v, want ErrIncompatible", err)
	}

	// A missing checkpoint is not an error.
	s3, _ := New(testConfig())
	if n, err := s3.LoadCheckpoint(t.TempDir()); n != 0 || err != nil {
		t.Fatalf("LoadCheckpoint(empty dir) = %d, %v", n, err)
	}
}

// TestWindowConfigChangeDropsRing: loading a checkpoint whose ring
// shape differs keeps the totals and silently starts a fresh ring.
func TestWindowConfigChangeDropsRing(t *testing.T) {
	base := time.Unix(1_700_000_000, 0)
	now := base
	cfg := testConfig()
	cfg.Window = Window{Buckets: 3, Interval: time.Minute}
	cfg.Now = func() time.Time { return now }
	s, _ := New(cfg)
	if err := s.Ingest("t/m", keys("x", 0, 1000)); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := s.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}

	// Another bucket count, or another interval. The second is the
	// regression case for a frozen window: a 1 min ring used to restore
	// into a 1 h window because the bucket counts matched, with its
	// epoch (a minute index) far ahead of the store's hour index, so
	// rotation never advanced and the window read the restored keys
	// forever.
	for _, w := range []Window{{Buckets: 5, Interval: time.Minute}, {Buckets: 3, Interval: time.Hour}} {
		cfg2 := cfg
		cfg2.Window = w
		now = base
		s2, _ := New(cfg2)
		if _, err := s2.LoadCheckpoint(dir); err != nil {
			t.Fatal(err)
		}
		for _, later := range []time.Duration{0, 10 * time.Hour, 1010 * time.Hour} {
			now = base.Add(later)
			est, err := s2.Estimate("t/m")
			if err != nil {
				t.Fatal(err)
			}
			within(t, "all-time survives ring change", est.AllTime, 1000, 0.25)
			if est.Window != 0 {
				t.Fatalf("%+v window %v after restore = %.1f, want 0 (fresh ring)", w, later, est.Window)
			}
		}
	}
}
