package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	knw "repro"
	"repro/internal/binenc"
)

// TestVersionBumps: the version counter moves on exactly the
// operations that change canonical state.
func TestVersionBumps(t *testing.T) {
	s, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Version("acme/users"); got != 0 {
		t.Fatalf("version before write = %d", got)
	}
	if err := s.Ingest("acme/users", keys("u", 0, 100)); err != nil {
		t.Fatal(err)
	}
	if got := s.Version("acme/users"); got != 1 {
		t.Fatalf("version before drain = %d, want 1 (creation)", got)
	}
	s.Flush()
	v := s.Version("acme/users")
	if v != 2 {
		t.Fatalf("version after drain = %d, want 2", v)
	}
	s.Flush() // nothing pending: no bump
	if got := s.Version("acme/users"); got != v {
		t.Fatalf("idle flush bumped version %d → %d", v, got)
	}
	env, err := s.Snapshot("acme/users", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Merge("acme/users", env); err != nil {
		t.Fatal(err)
	}
	if got := s.Version("acme/users"); got != v+1 {
		t.Fatalf("version after merge = %d, want %d", got, v+1)
	}
	if err := s.Restore("acme/users", env); err != nil {
		t.Fatal(err)
	}
	if got := s.Version("acme/users"); got != v+2 {
		t.Fatalf("version after restore = %d, want %d", got, v+2)
	}
	d := s.Digest()
	if d["acme/users"] != v+2 {
		t.Fatalf("digest = %v", d)
	}
}

// TestDeltaSnapshot: full on first contact, nil when current, a
// byte-identical splice when served from a known base — and smaller
// than the full envelope once the sketch has warmed up.
func TestDeltaSnapshot(t *testing.T) {
	s, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	name := "acme/users"
	if _, err := s.DeltaSnapshot(name, 0, false); !errors.Is(err, ErrNotFound) {
		t.Fatalf("delta snapshot before write: %v", err)
	}
	if err := s.Ingest(name, keys("u", 0, 50_000)); err != nil {
		t.Fatal(err)
	}
	full, err := s.DeltaSnapshot(name, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if full.Delta || full.Env == nil {
		t.Fatalf("base-0 snapshot: delta=%v env=%dB", full.Delta, len(full.Env))
	}
	want, err := s.Snapshot(name, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(full.Env, want) {
		t.Fatal("base-0 snapshot differs from Snapshot")
	}

	// Current base: nothing to ship.
	cur, err := s.DeltaSnapshot(name, full.Version, false)
	if err != nil {
		t.Fatal(err)
	}
	if cur.Env != nil || cur.Version != full.Version {
		t.Fatalf("current-base snapshot: %+v", cur)
	}

	// Steady state: re-ingesting keys the sketch already holds bumps the
	// version (the drain merged a batch) but leaves every section
	// byte-identical, so the delta is a near-empty envelope — the size
	// win replication stands on.
	if err := s.Ingest(name, keys("u", 0, 200)); err != nil {
		t.Fatal(err)
	}
	ds, err := s.DeltaSnapshot(name, full.Version, false)
	if err != nil {
		t.Fatal(err)
	}
	if !ds.Delta {
		t.Fatalf("steady-state snapshot served full (%dB)", len(ds.Env))
	}
	if ds.Version <= full.Version {
		t.Fatalf("delta version %d not past base %d", ds.Version, full.Version)
	}
	if len(ds.Env)*5 > len(full.Env) {
		t.Fatalf("steady-state delta %dB is not ≥5x smaller than full %dB",
			len(ds.Env), len(full.Env))
	}
	newFull, err := s.Snapshot(name, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := knw.ApplyDelta(full.Env, ds.Env)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, newFull) {
		t.Fatal("applied delta differs from the new full envelope")
	}

	// A few genuinely fresh keys change some (not all) copy sections: the
	// delta splices them into the old full and reproduces the new full
	// byte for byte — the merge-equivalence the wire relies on.
	if err := s.Ingest(name, keys("v", 0, 3)); err != nil {
		t.Fatal(err)
	}
	ds2, err := s.DeltaSnapshot(name, ds.Version, false)
	if err != nil {
		t.Fatal(err)
	}
	if !ds2.Delta {
		t.Fatalf("fresh-key snapshot served full (%dB)", len(ds2.Env))
	}
	newFull2, err := s.Snapshot(name, nil)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := knw.ApplyDelta(newFull, ds2.Env)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got2, newFull2) {
		t.Fatal("spliced delta differs from the new full envelope")
	}

	// Future/unknown bases fall back to full.
	fb, err := s.DeltaSnapshot(name, ds.Version+100, false)
	if err != nil {
		t.Fatal(err)
	}
	if fb.Delta || fb.Env == nil {
		t.Fatalf("future base served delta: %+v", fb)
	}
}

// TestReplicaSetFlow: full apply, delta apply, stale-base rejection,
// instance change, and the merged estimate.
func TestReplicaSetFlow(t *testing.T) {
	local, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	remote, err := New(testConfig()) // same seed: compatible
	if err != nil {
		t.Fatal(err)
	}
	rs := NewReplicaSet(local)

	if err := local.Ingest("acme/users", keys("local", 0, 3000)); err != nil {
		t.Fatal(err)
	}
	if err := remote.Ingest("acme/users", keys("remote", 0, 3000)); err != nil {
		t.Fatal(err)
	}

	rs.SetInstance("http://peer-a", 42)
	snap, err := remote.DeltaSnapshot("acme/users", 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.ApplyFull("http://peer-a", "acme/users", snap.Version, snap.Env); err != nil {
		t.Fatal(err)
	}
	bases := rs.BaseVersions("http://peer-a")
	if bases["acme/users"] != snap.Version {
		t.Fatalf("bases = %v, want version %d", bases, snap.Version)
	}

	ve, err := rs.Estimate("acme/users")
	if err != nil {
		t.Fatal(err)
	}
	if !ve.LocalFound || ve.Replicas != 1 {
		t.Fatalf("view = %+v", ve)
	}
	within(t, "merged view estimate", ve.AllTime, 6000, 0.25)

	// Delta catch-up: more remote keys, pull the delta, apply.
	if err := remote.Ingest("acme/users", keys("remote", 3000, 3500)); err != nil {
		t.Fatal(err)
	}
	ds, err := remote.DeltaSnapshot("acme/users", snap.Version, true)
	if err != nil {
		t.Fatal(err)
	}
	if !ds.Delta {
		t.Fatalf("expected a delta, got %dB full", len(ds.Env))
	}
	if err := rs.ApplyDelta("http://peer-a", "acme/users", ds.Env); err != nil {
		t.Fatal(err)
	}
	ve2, err := rs.Estimate("acme/users")
	if err != nil {
		t.Fatal(err)
	}
	within(t, "view after delta", ve2.AllTime, 6500, 0.25)
	// The held replica must now encode byte-identically to the remote's
	// own snapshot (the delta-vs-full merge equivalence the wire relies
	// on).
	wantEnv, err := remote.Snapshot("acme/users", nil)
	if err != nil {
		t.Fatal(err)
	}
	gotEnv := appendSketch(nil, rs.peers["http://peer-a"].stores["acme/users"].est)
	if !bytes.Equal(gotEnv, wantEnv) {
		t.Fatal("replica after delta differs from the remote's full snapshot")
	}

	// Re-applying the same delta is a stale base now.
	if err := rs.ApplyDelta("http://peer-a", "acme/users", ds.Env); !errors.Is(err, ErrStaleBase) {
		t.Fatalf("stale delta: %v", err)
	}
	// A delta for a replica we do not hold is a stale base too.
	if err := rs.ApplyDelta("http://peer-b", "acme/users", ds.Env); !errors.Is(err, ErrStaleBase) {
		t.Fatalf("unknown-peer delta: %v", err)
	}

	// Instance change: bases reset to 0 (full re-pull) but reads keep
	// serving the old envelope.
	if changed := rs.SetInstance("http://peer-a", 43); !changed {
		t.Fatal("instance change not reported")
	}
	if got := rs.BaseVersions("http://peer-a")["acme/users"]; got != 0 {
		t.Fatalf("base after instance change = %d", got)
	}
	if _, err := rs.Estimate("acme/users"); err != nil {
		t.Fatalf("estimate after instance change: %v", err)
	}

	// Unknown names 404 even with replicas present.
	if _, err := rs.Estimate("acme/ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("ghost estimate: %v", err)
	}

	// Incompatible envelopes are rejected.
	foreign, err := New(Config{Kind: knw.KindF0,
		Options: []knw.Option{knw.WithEpsilon(0.05), knw.WithSeed(999)}})
	if err != nil {
		t.Fatal(err)
	}
	if err := foreign.Ingest("acme/users", keys("x", 0, 10)); err != nil {
		t.Fatal(err)
	}
	fenv, err := foreign.Snapshot("acme/users", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.ApplyFull("http://peer-a", "acme/users", 1, fenv); !errors.Is(err, knw.ErrIncompatible) {
		t.Fatalf("foreign envelope: %v", err)
	}
}

// TestReplicaApplyRejectsOutOfRangeCounter: a pulled envelope whose
// first counter is 2^61 (the VLA holds at most 60 bits) is rejected as
// corrupt, and the held replica survives. Gossip applies run in their
// own goroutine with no recover, so a panic here would kill the node.
func TestReplicaApplyRejectsOutOfRangeCounter(t *testing.T) {
	local, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	remote, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := remote.Ingest("acme/users", keys("remote", 0, 3000)); err != nil {
		t.Fatal(err)
	}
	snap, err := remote.DeltaSnapshot("acme/users", 0, false)
	if err != nil {
		t.Fatal(err)
	}
	rs := NewReplicaSet(local)
	rs.SetInstance("http://peer-a", 42)
	if err := rs.ApplyFull("http://peer-a", "acme/users", snap.Version, snap.Env); err != nil {
		t.Fatal(err)
	}

	es, err := knw.SplitEnvelope(snap.Env)
	if err != nil {
		t.Fatal(err)
	}
	r := binenc.Reader{Buf: es.Sections[0]}
	k := r.Uvarint()
	cs := r.Uints(int(k))
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	cs[0] = 1 << 61
	var w binenc.Writer
	w.Uvarint(k)
	w.Uints(cs)
	es.Sections[0] = append(w.Buf, r.Buf...)
	bad := es.AppendEnvelope(nil)

	if err := rs.ApplyFull("http://peer-a", "acme/users", snap.Version+1, bad); !errors.Is(err, binenc.ErrCorrupt) {
		t.Fatalf("out-of-range counter: ApplyFull returned %v, want binenc.ErrCorrupt", err)
	}
	if got := rs.BaseVersions("http://peer-a")["acme/users"]; got != snap.Version {
		t.Fatalf("held replica version %d after a rejected apply, want %d", got, snap.Version)
	}
}

// TestReplicaCheckpoint: the view round-trips through its checkpoint
// file, and corrupt files are rejected whole.
func TestReplicaCheckpoint(t *testing.T) {
	local, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	remote, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	rs := NewReplicaSet(local)
	rs.SetInstance("http://peer-a", 42)
	for _, name := range []string{"t/a", "t/b"} {
		if err := remote.Ingest(name, keys(name, 0, 1000)); err != nil {
			t.Fatal(err)
		}
		snap, err := remote.DeltaSnapshot(name, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := rs.ApplyFull("http://peer-a", name, snap.Version, snap.Env); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	if err := rs.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}

	fresh := NewReplicaSet(local)
	n, err := fresh.LoadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("restored %d replicas, want 2", n)
	}
	if got := fresh.BaseVersions("http://peer-a"); len(got) != 2 {
		t.Fatalf("bases after restore = %v", got)
	}
	ve, err := fresh.Estimate("t/a")
	if err != nil {
		t.Fatal(err)
	}
	within(t, "restored view estimate", ve.AllTime, 1000, 0.25)

	// Missing file: clean empty start.
	if n, err := NewReplicaSet(local).LoadCheckpoint(t.TempDir()); n != 0 || err != nil {
		t.Fatalf("missing file: n=%d err=%v", n, err)
	}

	// Truncation anywhere must reject the whole file.
	path := filepath.Join(dir, ReplicaFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{1, len(data) / 2, len(data) - 3} {
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := NewReplicaSet(local).LoadCheckpoint(dir); !errors.Is(err, ErrCorruptCheckpoint) {
			t.Fatalf("truncated at %d: %v", cut, err)
		}
	}
}
