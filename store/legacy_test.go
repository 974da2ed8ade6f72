package store

import (
	"os"
	"path/filepath"
	"testing"

	knw "repro"
)

// testdata/concurrent-f0 holds files a store of the retired
// concurrent-f0 kind wrote with 4 shards per sketch, before the store
// moved to plain F0 sketches: a full checkpoint (KNWC), a cumulative
// delta file (KNWI) whose "t/a" record is a KNWD diff against the
// sharded envelope, and a replica view (KNWR) holding a peer's sharded
// envelopes. They were written with these options, plus WithShards(4),
// an option that no longer exists.
func legacyStoreOptions() []knw.Option {
	return []knw.Option{knw.WithSeed(2024), knw.WithEpsilon(0.2), knw.WithCopies(1)}
}

// TestLoadConcurrentF0Fixtures: a plain f0 store loads the sharded
// files to the estimates the writing store reported for them, and
// writes plain F0 envelopes from then on.
func TestLoadConcurrentF0Fixtures(t *testing.T) {
	dir := t.TempDir()
	for _, f := range []string{CheckpointFile, CheckpointDeltaFile, ReplicaFile} {
		data, err := os.ReadFile(filepath.Join("testdata", "concurrent-f0", f))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, f), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err := New(Config{Options: legacyStoreOptions(), EpochInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	if n, err := s.LoadCheckpoint(dir); err != nil || n != 3 {
		t.Fatalf("LoadCheckpoint = (%d, %v), want (3, nil)", n, err)
	}
	// The estimates the concurrent-f0 store reported after loading the
	// same files.
	for name, want := range map[string]float64{
		"t/a": 5421.316253850568, // KNWC envelope + KNWD delta
		"t/b": 1007.0797772995775,
		"t/c": 611.1128924928529, // full envelope in the KNWI file
	} {
		est, err := s.Estimate(name)
		if err != nil {
			t.Fatal(err)
		}
		if est.AllTime != want || est.Sketch != "KNW-F0" {
			t.Errorf("%s: %s estimate %v, want KNW-F0 %v", name, est.Sketch, est.AllTime, want)
		}
		snap, err := s.Snapshot(name, nil)
		if err != nil {
			t.Fatal(err)
		}
		if sk, err := knw.Open(snap); err != nil {
			t.Errorf("%s: reopening snapshot: %v", name, err)
		} else if sk.(interface{ Kind() knw.Kind }).Kind() != knw.KindF0 {
			t.Errorf("%s: snapshot holds a %T", name, sk)
		}
	}

	rs := NewReplicaSet(s)
	if n, err := rs.LoadCheckpoint(dir); err != nil || n != 2 {
		t.Fatalf("replica LoadCheckpoint = (%d, %v), want (2, nil)", n, err)
	}
	for name, want := range map[string]ViewEstimate{
		"t/a": {AllTime: 9072.821792733357, Replicas: 1, LocalFound: true},
		"t/b": {AllTime: 1007.0797772995775, Replicas: 0, LocalFound: true},
		"t/d": {AllTime: 305.55644624642645, Replicas: 1, LocalFound: false},
	} {
		got, err := rs.Estimate(name)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s: view %+v, want %+v", name, got, want)
		}
	}
}
