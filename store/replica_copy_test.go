package store

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	knw "repro"
	"repro/internal/binenc"
)

// replicaFixture is a local store, a remote peer store and a replica
// set over the local one holding the remote's "acme/users" at its
// first version.
func replicaFixture(t *testing.T, cfg Config) (local, remote *Store, rs *ReplicaSet, held DeltaSnap) {
	t.Helper()
	var err error
	if local, err = New(cfg); err != nil {
		t.Fatal(err)
	}
	if remote, err = New(cfg); err != nil {
		t.Fatal(err)
	}
	if err := remote.Ingest("acme/users", keys("remote", 0, 3000)); err != nil {
		t.Fatal(err)
	}
	if held, err = remote.DeltaSnapshot("acme/users", 0, false); err != nil {
		t.Fatal(err)
	}
	rs = NewReplicaSet(local)
	rs.SetInstance("http://peer-a", 42)
	if err := rs.ApplyFull("http://peer-a", "acme/users", held.Version, held.Env); err != nil {
		t.Fatal(err)
	}
	return local, remote, rs, held
}

// deltaChain ingests rounds of fresh keys into remote's "acme/users"
// and returns the KNWD delta of each round against the previous
// version, copied out of the encode cache.
func deltaChain(t *testing.T, remote *Store, base uint64, rounds int) [][]byte {
	t.Helper()
	var out [][]byte
	for i := 0; i < rounds; i++ {
		if err := remote.Ingest("acme/users", keys(fmt.Sprintf("round%d", i), 0, 400)); err != nil {
			t.Fatal(err)
		}
		ds, err := remote.DeltaSnapshot("acme/users", base, i%2 == 0)
		if err != nil {
			t.Fatal(err)
		}
		if !ds.Delta {
			t.Fatalf("round %d: expected a delta, got %dB full", i, len(ds.Env))
		}
		out = append(out, append([]byte(nil), ds.Env...))
		base = ds.Version
	}
	return out
}

// TestReplicaViewReadsMatchCodecPath: the merged view, read from a copy
// of the local total, answers what opening the local envelope and
// merging the replicas answers; a memo hit after a replica apply is
// recomputed; and a merged sketch is caller-owned.
func TestReplicaViewReadsMatchCodecPath(t *testing.T) {
	local, remote, rs, held := replicaFixture(t, testConfig())
	if err := local.Ingest("acme/users", keys("local", 0, 2000)); err != nil {
		t.Fatal(err)
	}
	want := func() float64 {
		t.Helper()
		env, err := local.Snapshot("acme/users", nil)
		if err != nil {
			t.Fatal(err)
		}
		acc, err := knw.Open(env)
		if err != nil {
			t.Fatal(err)
		}
		r := rs.peers["http://peer-a"].stores["acme/users"].est
		if err := knw.MergeInto(acc, r); err != nil {
			t.Fatal(err)
		}
		return acc.Estimate()
	}
	ve, err := rs.Estimate("acme/users")
	if err != nil {
		t.Fatal(err)
	}
	if w := want(); ve.AllTime != w || !ve.LocalFound || ve.Replicas != 1 {
		t.Fatalf("view %+v, want all-time %v from 1 replica", ve, w)
	}

	// A replica apply invalidates the memo even though the local
	// version stands still.
	for _, d := range deltaChain(t, remote, held.Version, 1) {
		if err := rs.ApplyDelta("http://peer-a", "acme/users", d); err != nil {
			t.Fatal(err)
		}
	}
	ve2, err := rs.Estimate("acme/users")
	if err != nil {
		t.Fatal(err)
	}
	if w := want(); ve2.AllTime != w || ve2.AllTime == ve.AllTime {
		t.Fatalf("view after a replica apply %v, want %v (was %v)", ve2.AllTime, w, ve.AllTime)
	}

	ms, mv, err := rs.MergedSketch("acme/users")
	if err != nil {
		t.Fatal(err)
	}
	if mv.AllTime != ve2.AllTime {
		t.Fatalf("merged sketch view %v, estimate view %v", mv.AllTime, ve2.AllTime)
	}
	replicaBytes := appendSketch(nil, rs.peers["http://peer-a"].stores["acme/users"].est)
	localBytes, err := local.Snapshot("acme/users", nil)
	if err != nil {
		t.Fatal(err)
	}
	ms.AddBatch([]uint64{1, 2, 3, 4, 5, 6, 7, 8, 9})
	if again := appendSketch(nil, rs.peers["http://peer-a"].stores["acme/users"].est); !bytes.Equal(again, replicaBytes) {
		t.Fatal("writing the merged sketch changed the held replica")
	}
	if again, _ := local.Snapshot("acme/users", nil); !bytes.Equal(again, localBytes) {
		t.Fatal("writing the merged sketch changed the local store")
	}

	// A name only a replica holds is served from a copy of the replica.
	rs2 := NewReplicaSet(mustStore(t))
	if err := rs2.ApplyFull("http://peer-a", "acme/users", held.Version, held.Env); err != nil {
		t.Fatal(err)
	}
	rm, rv, err := rs2.MergedSketch("acme/users")
	if err != nil {
		t.Fatal(err)
	}
	if rv.LocalFound || rv.Replicas != 1 {
		t.Fatalf("replica-only view %+v", rv)
	}
	rm.AddBatch([]uint64{11, 12, 13})
	if got := appendSketch(nil, rs2.peers["http://peer-a"].stores["acme/users"].est); !bytes.Equal(got, held.Env) {
		t.Fatal("writing a replica-only merged sketch changed the held replica")
	}
}

func mustStore(t *testing.T) *Store {
	t.Helper()
	s, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestReplicaApplyDeltaRejectsOutOfRangeCounter: a delta whose changed
// section carries a counter of 2^61 is rejected as corrupt, as the same
// counter in a full envelope is, and the held replica survives.
func TestReplicaApplyDeltaRejectsOutOfRangeCounter(t *testing.T) {
	_, remote, rs, held := replicaFixture(t, testConfig())
	d, err := knw.DecodeDelta(deltaChain(t, remote, held.Version, 1)[0])
	if err != nil {
		t.Fatal(err)
	}
	es, err := knw.SplitEnvelope(held.Env)
	if err != nil {
		t.Fatal(err)
	}
	for j, i := range d.Indexes {
		es.Sections[i] = d.Sections[j]
	}
	r := binenc.Reader{Buf: es.Sections[d.Indexes[0]]}
	k := r.Uvarint()
	cs := r.Uints(int(k))
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	cs[0] = 1 << 61
	var w binenc.Writer
	w.Uvarint(k)
	w.Uints(cs)
	es.Sections[d.Indexes[0]] = append(w.Buf, r.Buf...)
	bad, err := knw.AppendDelta(nil, es, held.Version, d.Next, d.Indexes, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.ApplyDelta("http://peer-a", "acme/users", bad); !errors.Is(err, binenc.ErrCorrupt) {
		t.Fatalf("out-of-range counter: ApplyDelta returned %v, want binenc.ErrCorrupt", err)
	}
	if got := rs.BaseVersions("http://peer-a")["acme/users"]; got != held.Version {
		t.Fatalf("held replica version %d after a rejected delta, want %d", got, held.Version)
	}
	if got := appendSketch(nil, rs.peers["http://peer-a"].stores["acme/users"].est); !bytes.Equal(got, held.Env) {
		t.Fatal("a rejected delta changed the held replica")
	}
}

// TestReplicaSetConcurrentCheckpointApplyRead runs Checkpoint,
// ApplyDelta, Estimate and MergedSketch (whose result is then written)
// concurrently with local ingest — the held sketches are shared by
// readers, the encoder and the next apply's copy, so this is the
// -race check that nothing writes them after apply. The applied chain
// ends byte-identical to the peer, and the last checkpoint loads.
func TestReplicaSetConcurrentCheckpointApplyRead(t *testing.T) {
	cfg := Config{Kind: knw.KindF0, Options: []knw.Option{knw.WithEpsilon(0.2), knw.WithSeed(1)}}
	local, remote, rs, held := replicaFixture(t, cfg)
	deltas := deltaChain(t, remote, held.Version, 12)
	dir := t.TempDir()

	stop := make(chan struct{})
	var readers sync.WaitGroup
	loop := func(body func(i int) error) {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := body(i); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	loop(func(i int) error {
		_, err := rs.Estimate("acme/users")
		return err
	})
	loop(func(i int) error {
		est, _, err := rs.MergedSketch("acme/users")
		if err == nil {
			est.AddBatch([]uint64{uint64(i)})
		}
		return err
	})
	loop(func(i int) error { return rs.Checkpoint(dir) })
	loop(func(i int) error {
		return local.Ingest("acme/users", keys(fmt.Sprintf("local%d", i), 0, 50))
	})
	for _, d := range deltas {
		if err := rs.ApplyDelta("http://peer-a", "acme/users", d); err != nil {
			t.Error(err)
		}
	}
	close(stop)
	readers.Wait()

	want, err := remote.Snapshot("acme/users", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := appendSketch(nil, rs.peers["http://peer-a"].stores["acme/users"].est); !bytes.Equal(got, want) {
		t.Fatal("replica after the delta chain differs from the peer's snapshot")
	}
	if err := rs.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	fresh := NewReplicaSet(local)
	if _, err := fresh.LoadCheckpoint(dir); err != nil {
		t.Fatalf("loading %s: %v", filepath.Join(dir, ReplicaFile), err)
	}
	if got := appendSketch(nil, fresh.peers["http://peer-a"].stores["acme/users"].est); !bytes.Equal(got, want) {
		t.Fatal("checkpointed replica differs from the peer's snapshot")
	}
}
