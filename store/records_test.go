package store

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	knw "repro"
)

// testdata/windowed holds files the store wrote before checkpoints and
// replica files became record streams, from a windowed store (3 buckets
// of 1 min) with fixtureConfig's options: a full checkpoint (KNWC v2),
// a delta file (KNWI v1) holding one KNWD record ("t/a") and one full
// record ("t/c"), and a replica view (KNWR v1) of two peers. The
// writer's delta path sent windowed entries as full envelopes only, so
// the "t/a" record is the KNWD that path computes for unwindowed ones.
// The clock stood at fixtureNow when the files were written.
var fixtureNow = time.Unix(1_700_000_000, 0).Add(3 * time.Minute)

func fixtureConfig(now *time.Time) Config {
	return Config{
		Kind: knw.KindF0,
		Options: []knw.Option{
			knw.WithEpsilon(0.3), knw.WithCopies(1), knw.WithSeed(7),
		},
		Window:        Window{Buckets: 3, Interval: time.Minute},
		Now:           func() time.Time { return *now },
		EpochInterval: -1,
	}
}

// copyFixtures copies the named files of testdata/windowed into a
// fresh directory.
func copyFixtures(t testing.TB, files ...string) string {
	t.Helper()
	dir := t.TempDir()
	for _, f := range files {
		data, err := os.ReadFile(filepath.Join("testdata", "windowed", f))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, f), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// The estimates the writing version reported after loading the
// fixtures at fixtureNow.
var (
	fixtureEstimates = map[string][2]float64{ // all-time, window
		"t/a": {4126.321171112882, 580.8388219812597}, // KNWC envelope + KNWD delta, KNWI ring
		"t/b": {512.7520814737242, 225.43520390019518},
		"t/c": {772.1581921561752, 772.1581921561752}, // full record in the KNWI file
	}
	fixtureViews = map[string]ViewEstimate{
		"t/a": {AllTime: 4386.386680460063, Replicas: 1, LocalFound: true},
		"t/b": {AllTime: 769.8826636803722, Replicas: 1, LocalFound: true},
		"t/c": {AllTime: 772.1581921561752, Replicas: 0, LocalFound: true},
		"t/d": {AllTime: 772.1581921561752, Replicas: 1, LocalFound: false},
	}
)

// loadFixtureStore loads the checkpoint and replica files in dir at
// the clock now points to.
func loadFixtureStore(t *testing.T, dir string, now *time.Time) (*Store, *ReplicaSet) {
	t.Helper()
	s, err := New(fixtureConfig(now))
	if err != nil {
		t.Fatal(err)
	}
	if n, err := s.LoadCheckpoint(dir); err != nil || n != 3 {
		t.Fatalf("LoadCheckpoint = (%d, %v), want (3, nil)", n, err)
	}
	rs := NewReplicaSet(s)
	if n, err := rs.LoadCheckpoint(dir); err != nil || n != 3 {
		t.Fatalf("replica LoadCheckpoint = (%d, %v), want (3, nil)", n, err)
	}
	return s, rs
}

func checkFixtureEstimates(t *testing.T, what string, s *Store, rs *ReplicaSet) {
	t.Helper()
	for name, want := range fixtureEstimates {
		est, err := s.Estimate(name)
		if err != nil {
			t.Fatal(err)
		}
		if est.AllTime != want[0] || est.Window != want[1] {
			t.Errorf("%s: %s all-time %v window %v, want %v %v", what, name, est.AllTime, est.Window, want[0], want[1])
		}
	}
	for name, want := range fixtureViews {
		got, err := rs.Estimate(name)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s: %s view %+v, want %+v", what, name, got, want)
		}
	}
}

// TestLoadLegacyFixtures: the pre-stream files load through the
// decode-only path to the estimates their writer reported, a
// checkpoint of the loaded store, written as record streams, loads
// back to byte-identical snapshots and equal estimates, and a legacy
// ring restores only where its epoch fits the clock.
func TestLoadLegacyFixtures(t *testing.T) {
	now := fixtureNow
	dir := copyFixtures(t, CheckpointFile, CheckpointDeltaFile, ReplicaFile)
	s, rs := loadFixtureStore(t, dir, &now)
	checkFixtureEstimates(t, "legacy", s, rs)

	out := t.TempDir()
	if err := s.Checkpoint(out); err != nil {
		t.Fatal(err)
	}
	if err := rs.Checkpoint(out); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{CheckpointFile, ReplicaFile} {
		data, err := os.ReadFile(filepath.Join(out, f))
		if err != nil {
			t.Fatal(err)
		}
		if legacyMagic(data) {
			t.Fatalf("%s written in a legacy format", f)
		}
	}
	s2, rs2 := loadFixtureStore(t, out, &now)
	checkFixtureEstimates(t, "stream", s2, rs2)
	for name := range fixtureEstimates {
		a, _ := s.Snapshot(name, nil)
		b, _ := s2.Snapshot(name, nil)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: snapshot differs after the stream round trip", name)
		}
	}

	// A legacy ring records no interval, so it restores only when its
	// epoch is not ahead of the loading store's clock. The fixtures'
	// rings sit at minute indices, far ahead of a 1 h window's hour
	// index, and are dropped there; the all-time sketches survive.
	cfg := fixtureConfig(&now)
	cfg.Window.Interval = time.Hour
	hourly, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hourly.LoadCheckpoint(dir); err != nil {
		t.Fatal(err)
	}
	for name, want := range fixtureEstimates {
		est, err := hourly.Estimate(name)
		if err != nil {
			t.Fatal(err)
		}
		if est.AllTime != want[0] || est.Window != 0 {
			t.Errorf("1 h store: %s all-time %v window %v, want %v and 0", name, est.AllTime, est.Window, want[0])
		}
	}
}

// TestMergeRingByEpoch: a handed-off ring merges bucket by bucket by
// epoch. A bucket inside the receiver's live range lands on the same
// epoch, one newer than the receiver's current epoch on the current
// bucket, and one older than the live range is dropped. A receiver of
// another interval takes the whole ring into its current bucket, and
// an unwindowed one into its all-time sketch.
func TestMergeRingByEpoch(t *testing.T) {
	sender, setSender := windowTestStore(t, 4, time.Minute)
	for i := 0; i < 4; i++ {
		setSender(float64(i))
		if err := sender.Ingest("t/m", keys(string(rune('a'+i)), 0, 10*(i+1))); err != nil {
			t.Fatal(err)
		}
		sender.Flush()
	}
	// A handoff record of the ring at epochs base+0..base+3, holding
	// 10, 20, 30 and 40 keys.
	sw := StreamWriter{Header: StreamHeader{Kind: StreamHandoff}}
	if _, err := sender.AppendRecord(&sw, "t/m"); err != nil {
		t.Fatal(err)
	}
	st, err := DecodeStream(append(sw.Head(), sw.Body()...), StreamHandoff)
	if err != nil {
		t.Fatal(err)
	}
	ring := st.Records[0].Ring

	// The receiver's clock is one interval ahead: base+0 has expired
	// there, base+1..base+3 are live, and its current epoch is base+4.
	recv, setRecv := windowTestStore(t, 4, time.Minute)
	setRecv(4)
	if err := recv.MergeRing("t/m", ring); err != nil {
		t.Fatal(err)
	}
	series, err := recv.Series("t/m", 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{20, 30, 40, 0} {
		if got := series.Buckets[i].Estimate; got != want {
			t.Errorf("receiver bucket %d (epoch %d) = %v, want %v", i, series.Buckets[i].Epoch, got, want)
		}
	}

	// A receiver behind the sender takes the sender's newer buckets
	// into its current one.
	behind, setBehind := windowTestStore(t, 4, time.Minute)
	setBehind(2)
	if err := behind.MergeRing("t/m", ring); err != nil {
		t.Fatal(err)
	}
	if series, err = behind.Series("t/m", 0); err != nil {
		t.Fatal(err)
	}
	if got := series.Buckets[3].Estimate; got != 100-10-20 {
		t.Errorf("current bucket of a receiver behind the sender = %v, want 70", got)
	}

	other, setOther := windowTestStore(t, 4, time.Hour)
	setOther(0)
	if err := other.MergeRing("t/m", ring); err != nil {
		t.Fatal(err)
	}
	if est, _ := other.Estimate("t/m"); est.Window != 100 || est.AllTime != 0 {
		t.Errorf("receiver of another interval: %+v, want window 100, all-time 0", est)
	}

	flat, err := New(Config{Kind: knw.KindF0, Options: []knw.Option{knw.WithEpsilon(0.05), knw.WithSeed(1)}})
	if err != nil {
		t.Fatal(err)
	}
	if err := flat.MergeRing("t/m", ring); err != nil {
		t.Fatal(err)
	}
	if est, _ := flat.Estimate("t/m"); est.AllTime != 100 {
		t.Errorf("unwindowed receiver: all-time %v, want 100", est.AllTime)
	}
}

var updateGolden = flag.Bool("update", false, "rewrite golden record-stream files")

// TestRecordStreamGolden pins the record-stream bytes of the fixture
// store: its full checkpoint (anchored at id 1) and its replica file.
// A change to the layout fails here.
//
// Regenerate with: go test ./store -run TestRecordStreamGolden -update
func TestRecordStreamGolden(t *testing.T) {
	now := fixtureNow
	s, rs := loadFixtureStore(t, copyFixtures(t, CheckpointFile, CheckpointDeltaFile, ReplicaFile), &now)
	sw := StreamWriter{Header: StreamHeader{Kind: StreamCheckpoint, Anchor: 1}}
	if _, err := s.appendCheckpoint(&sw); err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	if err := rs.Checkpoint(out); err != nil {
		t.Fatal(err)
	}
	replicas, err := os.ReadFile(filepath.Join(out, ReplicaFile))
	if err != nil {
		t.Fatal(err)
	}
	for file, got := range map[string][]byte{
		"checkpoint.golden": append(sw.Head(), sw.Body()...),
		"replicas.golden":   replicas,
	} {
		path := filepath.Join("testdata", "windowed", file)
		if *updateGolden {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s missing (run with -update): %v", path, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: record stream bytes changed (%d bytes, golden %d)", file, len(got), len(want))
		}
	}
}

// FuzzRecordStream feeds arbitrary bytes to the checkpoint loader, as
// a full file and as a delta file over a valid full file, and to the
// replica loader. Every input must load completely or fail with
// ErrCorruptCheckpoint or knw.ErrIncompatible, never panic, and a
// failed load leaves the store empty.
//
// Run with: go test -fuzz=FuzzRecordStream ./store
func FuzzRecordStream(f *testing.F) {
	legacy := map[string][]byte{}
	for _, name := range []string{CheckpointFile, CheckpointDeltaFile, ReplicaFile, "checkpoint.golden", "replicas.golden"} {
		data, err := os.ReadFile(filepath.Join("testdata", "windowed", name))
		if err != nil {
			f.Fatal(err)
		}
		legacy[name] = data
		f.Add(data)
	}
	// A chain written as record streams: the full file every input is
	// spliced over, and a delta file that extends it.
	now := fixtureNow
	s, err := New(fixtureConfig(&now))
	if err != nil {
		f.Fatal(err)
	}
	chain := f.TempDir()
	if err := os.WriteFile(filepath.Join(chain, CheckpointFile), legacy[CheckpointFile], 0o644); err != nil {
		f.Fatal(err)
	}
	if _, err := s.LoadCheckpoint(chain); err != nil {
		f.Fatal(err)
	}
	if err := s.CheckpointIncremental(chain); err != nil {
		f.Fatal(err)
	}
	if err := s.Ingest("t/b", keys("fuzz", 0, 50)); err != nil {
		f.Fatal(err)
	}
	if err := s.CheckpointIncremental(chain); err != nil {
		f.Fatal(err)
	}
	full, err := os.ReadFile(filepath.Join(chain, CheckpointFile))
	if err != nil {
		f.Fatal(err)
	}
	delta, err := os.ReadFile(filepath.Join(chain, CheckpointDeltaFile))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(delta)

	f.Fuzz(func(t *testing.T, data []byte) {
		load := func(files map[string][]byte) {
			dir := t.TempDir()
			for name, b := range files {
				if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			now := fixtureNow
			s, err := New(fixtureConfig(&now))
			if err != nil {
				t.Fatal(err)
			}
			n, err := s.LoadCheckpoint(dir)
			if err != nil {
				if !errors.Is(err, ErrCorruptCheckpoint) && !errors.Is(err, knw.ErrIncompatible) {
					t.Fatalf("checkpoint load: unclassified error %v", err)
				}
				if s.Len() != 0 {
					t.Fatalf("failed checkpoint load left %d entries", s.Len())
				}
			} else if n != s.Len() {
				t.Fatalf("checkpoint load reported %d entries, store holds %d", n, s.Len())
			}
			if _, err := NewReplicaSet(s).LoadCheckpoint(dir); err != nil &&
				!errors.Is(err, ErrCorruptCheckpoint) && !errors.Is(err, knw.ErrIncompatible) {
				t.Fatalf("replica load: unclassified error %v", err)
			}
		}
		load(map[string][]byte{CheckpointFile: data, ReplicaFile: data})
		load(map[string][]byte{CheckpointFile: full, CheckpointDeltaFile: data})
	})
}
