package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	knw "repro"
	"repro/internal/metrics"
)

func fileSize(t *testing.T, path string) int {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return int(fi.Size())
}

// loadedSnapshot loads dir into a fresh store and returns name's
// snapshot bytes.
func loadedSnapshot(t *testing.T, cfg Config, dir, name string) []byte {
	t.Helper()
	cfg.Metrics = nil // a second store cannot re-register the gauges
	fresh, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.LoadCheckpoint(dir); err != nil {
		t.Fatal(err)
	}
	env, err := fresh.Snapshot(name, nil)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// TestCheckpointIncremental: the incremental path writes a full file
// first, then cumulative delta files that are a tiny fraction of it in
// the duplicate-heavy steady state — and every load reproduces the
// live store's snapshot bytes exactly.
func TestCheckpointIncremental(t *testing.T) {
	cfg := testConfig()
	cfg.CheckpointFullEvery = 4
	cfg.Metrics = metrics.NewRegistry()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	name := "acme/users"
	if err := s.Ingest(name, keys("u", 0, 50_000)); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	fullPath := filepath.Join(dir, CheckpointFile)
	deltaPath := filepath.Join(dir, CheckpointDeltaFile)

	// Call 1: no chain yet — a full rewrite, no delta file.
	if err := s.CheckpointIncremental(dir); err != nil {
		t.Fatal(err)
	}
	fullSize := fileSize(t, fullPath)
	if _, err := os.Stat(deltaPath); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("delta file after the full rewrite: %v", err)
	}
	if got := int(s.met.ckptBytes.Value()); got != fullSize {
		t.Fatalf("checkpoint bytes gauge = %d, want full size %d", got, fullSize)
	}

	// Steady state: re-observed keys bump versions but change no
	// section, so the cumulative delta file is a sliver of the full one.
	if err := s.Ingest(name, keys("u", 0, 500)); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckpointIncremental(dir); err != nil {
		t.Fatal(err)
	}
	deltaSize := fileSize(t, deltaPath)
	if deltaSize*5 > fullSize {
		t.Fatalf("steady-state delta file %dB not ≥5x smaller than full %dB", deltaSize, fullSize)
	}
	if got := int(s.met.ckptBytes.Value()); got != deltaSize {
		t.Fatalf("checkpoint bytes gauge = %d, want delta size %d", got, deltaSize)
	}
	want, err := s.Snapshot(name, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(loadedSnapshot(t, cfg, dir, name), want) {
		t.Fatal("load after steady-state delta differs from the live store")
	}

	// Fresh keys and a brand-new entry: the delta file carries changed
	// sections for one and a full envelope for the other, cumulatively.
	if err := s.Ingest(name, keys("v", 0, 40)); err != nil {
		t.Fatal(err)
	}
	if err := s.Ingest("acme/new", keys("n", 0, 300)); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckpointIncremental(dir); err != nil {
		t.Fatal(err)
	}
	want, err = s.Snapshot(name, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(loadedSnapshot(t, cfg, dir, name), want) {
		t.Fatal("load after fresh-key delta differs from the live store")
	}
	wantNew, err := s.Snapshot("acme/new", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(loadedSnapshot(t, cfg, dir, "acme/new"), wantNew) {
		t.Fatal("entry created after the full rewrite did not survive the load")
	}

	// CheckpointFullEvery = 4: the cycle is one full rewrite then three
	// deltas, so call 4 still extends the chain and call 5 restarts it —
	// full file rewritten, delta file removed.
	if err := s.CheckpointIncremental(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(deltaPath); err != nil {
		t.Fatalf("call 4 should still write the delta file: %v", err)
	}
	if err := s.CheckpointIncremental(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(deltaPath); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("delta file survived the scheduled full rewrite: %v", err)
	}
	if !bytes.Equal(loadedSnapshot(t, cfg, dir, name), want) {
		t.Fatal("load after the full rewrite differs from the live store")
	}
}

// TestCheckpointDeltaStale: a delta file whose base id does not match
// the full file (a crash between the full rewrite and the delta
// removal) is ignored whole, not applied and not an error.
func TestCheckpointDeltaStale(t *testing.T) {
	cfg := testConfig()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	name := "acme/users"
	if err := s.Ingest(name, keys("u", 0, 5_000)); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := s.CheckpointIncremental(dir); err != nil {
		t.Fatal(err)
	}
	if err := s.Ingest(name, keys("u", 0, 100)); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckpointIncremental(dir); err != nil {
		t.Fatal(err)
	}
	stale, err := os.ReadFile(filepath.Join(dir, CheckpointDeltaFile))
	if err != nil {
		t.Fatal(err)
	}
	// A new full rewrite removes the delta file; resurrect the old one.
	if err := s.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, CheckpointDeltaFile), stale, 0o644); err != nil {
		t.Fatal(err)
	}
	want, err := s.Snapshot(name, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(loadedSnapshot(t, cfg, dir, name), want) {
		t.Fatal("stale delta file changed the loaded state")
	}
}

// TestCheckpointDeltaCorrupt: truncating the delta file anywhere fails
// the whole load with the typed corruption error and an empty store.
func TestCheckpointDeltaCorrupt(t *testing.T) {
	cfg := testConfig()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Ingest("acme/users", keys("u", 0, 5_000)); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := s.CheckpointIncremental(dir); err != nil {
		t.Fatal(err)
	}
	if err := s.Ingest("acme/users", keys("w", 0, 50)); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckpointIncremental(dir); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, CheckpointDeltaFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{1, 4, len(data) / 2, len(data) - 1} {
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		fresh, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		n, err := fresh.LoadCheckpoint(dir)
		if !errors.Is(err, ErrCorruptCheckpoint) {
			t.Fatalf("truncated delta at %d: %v", cut, err)
		}
		if n != 0 || fresh.Len() != 0 {
			t.Fatalf("truncated delta at %d: partial registry (n=%d, Len=%d)", cut, n, fresh.Len())
		}
	}
}

// TestCheckpointIncrementalWindowed: a windowed entry rides the delta
// file with its all-time sketch as a KNWD section delta, like any other
// entry (only its ring goes whole), so the delta file is smaller than
// the full one; it restores mid-rotation with byte-identical all-time
// and window snapshots.
func TestCheckpointIncrementalWindowed(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	cfg := Config{
		Kind:    knw.KindF0,
		Options: []knw.Option{knw.WithEpsilon(0.1), knw.WithSeed(1)},
		Window:  Window{Buckets: 3, Interval: time.Minute},
		Now:     func() time.Time { return now },
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	name := "acme/win"
	if err := s.Ingest(name, keys("a", 0, 2_000)); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := s.CheckpointIncremental(dir); err != nil {
		t.Fatal(err)
	}
	now = now.Add(time.Minute)
	if err := s.Ingest(name, keys("b", 0, 500)); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckpointIncremental(dir); err != nil {
		t.Fatal(err)
	}
	full := fileSize(t, filepath.Join(dir, CheckpointFile))
	delta := fileSize(t, filepath.Join(dir, CheckpointDeltaFile))
	if delta >= full {
		t.Fatalf("windowed delta file %dB not smaller than the full file %dB", delta, full)
	}
	t.Logf("full file %dB, delta file %dB", full, delta)
	want, err := s.Estimate(name)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.LoadCheckpoint(dir); err != nil {
		t.Fatal(err)
	}
	got, err := fresh.Estimate(name)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("windowed restore %+v != live %+v", got, want)
	}
	for what, snap := range map[string]func(*Store) ([]byte, error){
		"all-time": func(st *Store) ([]byte, error) { return st.Snapshot(name, nil) },
		"window":   func(st *Store) ([]byte, error) { return st.WindowSnapshot(name, nil) },
	} {
		live, err := snap(s)
		if err != nil {
			t.Fatal(err)
		}
		restored, err := snap(fresh)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(restored, live) {
			t.Fatalf("restored %s snapshot differs from the live store", what)
		}
	}
}
