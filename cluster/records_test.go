package cluster

import (
	"bytes"
	"strings"
	"testing"
	"time"

	knw "repro"
	"repro/internal/binenc"
	"repro/store"
)

// recordTestConfig is a small windowed store: envelopes of a few
// hundred bytes keep the fuzz target fast.
func recordTestConfig() store.Config {
	return store.Config{
		Kind: knw.KindF0,
		Options: []knw.Option{
			knw.WithEpsilon(0.3), knw.WithCopies(1), knw.WithK(32),
			knw.WithUniverseBits(16), knw.WithSeed(1),
		},
		Window:        store.Window{Buckets: 2, Interval: time.Hour},
		EpochInterval: -1,
	}
}

// recordSeeds is what a peer ships: a full envelope at version base,
// a KNWD delta from base to next, and a handoff push of the store (its
// all-time envelope and its ring).
type recordSeeds struct {
	base, next  uint64
	full, delta []byte
	handoff     []byte
}

func makeRecordSeeds(tb testing.TB) recordSeeds {
	tb.Helper()
	st, err := store.New(recordTestConfig())
	if err != nil {
		tb.Fatal(err)
	}
	defer st.Close()
	keys := make([]uint64, 2000)
	for i := range keys {
		keys[i] = uint64(i)
	}
	if err := st.IngestHashed("t/m", keys); err != nil {
		tb.Fatal(err)
	}
	full, err := st.DeltaSnapshot("t/m", 0, false)
	if err != nil {
		tb.Fatal(err)
	}
	var s recordSeeds
	s.base, s.full = full.Version, bytes.Clone(full.Env)
	if err := st.IngestHashed("t/m", []uint64{1 << 20, 1<<20 + 1}); err != nil {
		tb.Fatal(err)
	}
	d, err := st.DeltaSnapshot("t/m", s.base, false)
	if err != nil {
		tb.Fatal(err)
	}
	if !d.Delta {
		tb.Fatal("seed store served a full envelope for a delta pull")
	}
	s.next, s.delta = d.Version, bytes.Clone(d.Env)
	sw := store.StreamWriter{Header: store.StreamHeader{Kind: store.StreamHandoff, Source: "http://peer.invalid", Anchor: 2}}
	if _, err := st.AppendRecord(&sw, "t/m"); err != nil {
		tb.Fatal(err)
	}
	s.handoff = append(sw.Head(), sw.Body()...)
	return s
}

// pullStream is a gossip pull reply holding recs.
func pullStream(instance uint64, recs ...store.Record) []byte {
	sw := store.StreamWriter{Header: store.StreamHeader{Kind: store.StreamPull, Anchor: instance}}
	for _, rec := range recs {
		sw.Add(rec.Name, rec.Version, rec.Env)
	}
	return append(sw.Head(), sw.Body()...)
}

// TestRecordStreamRoundTrip: what a pull reply and a handoff push
// write, readStream reads back record for record, rings included.
func TestRecordStreamRoundTrip(t *testing.T) {
	s := makeRecordSeeds(t)
	want := []store.Record{
		{Name: "t/m", Version: s.next, Env: s.delta},
		{Name: "w/m", Version: s.base, Env: s.full},
	}
	st, err := readStream(bytes.NewReader(pullStream(7, want...)), store.StreamPull)
	if err != nil {
		t.Fatal(err)
	}
	if st.Anchor != 7 || len(st.Records) != len(want) {
		t.Fatalf("header: anchor %d, %d records", st.Anchor, len(st.Records))
	}
	for i, w := range want {
		g := st.Records[i]
		if g.Name != w.Name || g.Version != w.Version || !bytes.Equal(g.Env, w.Env) || len(g.Ring.Buckets) != 0 {
			t.Fatalf("record %d: got %q v%d env %d B ring %d", i, g.Name, g.Version, len(g.Env), len(g.Ring.Buckets))
		}
	}

	ho, err := readStream(bytes.NewReader(s.handoff), store.StreamHandoff)
	if err != nil {
		t.Fatal(err)
	}
	if ho.Source != "http://peer.invalid" || ho.Anchor != 2 || len(ho.Records) != 1 {
		t.Fatalf("handoff header: source %q anchor %d, %d records", ho.Source, ho.Anchor, len(ho.Records))
	}
	if ring := ho.Records[0].Ring; ring.Interval != time.Hour || len(ring.Buckets) != 2 {
		t.Fatalf("handoff ring: %v, %d buckets", ring.Interval, len(ring.Buckets))
	}
}

// TestReadRecordsRejects: streams from an older member (the version 2
// gossip layout, the retired handoff and ring-export streams) and
// damaged streams come back as errors, never panics or partial success.
func TestReadRecordsRejects(t *testing.T) {
	s := makeRecordSeeds(t)
	good := pullStream(7, store.Record{Name: "t/m", Version: s.base, Env: s.full})

	var v2 binenc.Writer // version 2: (name, version, envelope, window) records
	v2.Uvarint(0x4b4e5747)
	v2.Uvarint(2)
	v2.Uvarint(7)
	v2.Uvarint(1)
	v2.Bytes([]byte("t/m"))
	v2.Uvarint(s.base)
	v2.Bytes(s.full)
	v2.Bytes(nil)

	var oldHandoff binenc.Writer // magic "KNWH", version 1
	oldHandoff.Uvarint(0x4b4e5748)
	oldHandoff.Uvarint(1)

	var oldRing binenc.Writer // magic "KNWB", version 1
	oldRing.Uvarint(0x4b4e5742)
	oldRing.Uvarint(1)

	var tooMany binenc.Writer
	tooMany.Buf = (&store.StreamWriter{Header: store.StreamHeader{Kind: store.StreamPull}}).Head()
	tooMany.Buf = tooMany.Buf[:len(tooMany.Buf)-1] // drop the zero record count
	tooMany.Uvarint(store.MaxStreamRecords + 1)

	cases := []struct {
		name, want string
		kind       store.StreamKind
		data       []byte
	}{
		{"version 2", "unsupported record stream version 2", store.StreamPull, v2.Buf},
		{"old handoff", "bad record stream magic", store.StreamHandoff, oldHandoff.Buf},
		{"old ring export", "bad record stream magic", store.StreamRing, oldRing.Buf},
		{"empty", "bad record stream header", store.StreamPull, nil},
		{"too many records", "claims", store.StreamPull, tooMany.Buf},
		{"truncated", "bad record", store.StreamPull, good[:len(good)-3]},
		{"trailing bytes", "trailing bytes", store.StreamPull, append(bytes.Clone(good), 0)},
		{"bad name", "control characters", store.StreamPull,
			pullStream(7, store.Record{Name: "t\x01m", Env: s.full})},
		{"duplicate name", "out of order", store.StreamPull,
			pullStream(7, store.Record{Name: "t/m", Env: s.full}, store.Record{Name: "t/m", Env: s.full})},
		{"unsorted names", "out of order", store.StreamPull,
			pullStream(7, store.Record{Name: "u/m", Env: s.full}, store.Record{Name: "t/m", Env: s.full})},
		{"wrong kind", "kind", store.StreamPull, s.handoff},
	}
	for _, c := range cases {
		_, err := readStream(bytes.NewReader(c.data), c.kind)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want it to mention %q", c.name, err, c.want)
		}
	}
}

// FuzzPeerRecords drives arbitrary bytes through the shared stream
// reader and both of its cluster sinks: gossip's (replica apply, full
// and delta) and handoff's (store merge, all-time and ring). Gossip
// decodes peer bytes on a goroutine with no recover, so every input
// must come back as an error or success, never a panic. The replica
// for "t/m" sits at the seed delta's base, so delta records reach the
// splice.
//
// Run with: go test -fuzz=FuzzPeerRecords ./cluster
func FuzzPeerRecords(f *testing.F) {
	s := makeRecordSeeds(f)
	f.Add(pullStream(7, store.Record{Name: "t/m", Version: s.base, Env: s.full}))
	f.Add(pullStream(7, store.Record{Name: "t/m", Version: s.next, Env: s.delta}))
	f.Add(s.handoff)
	f.Add(pullStream(7,
		store.Record{Name: "t/m", Version: s.next, Env: s.delta},
		store.Record{Name: "u/m", Version: 3, Env: s.full}))
	f.Add(pullStream(0))

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := store.New(recordTestConfig())
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		const self, peer = "http://self.invalid", "http://peer.invalid"
		rt, err := New(Config{Self: self, Peers: []string{self}, GossipInterval: time.Hour}, st, nil)
		if err != nil {
			t.Fatal(err)
		}
		rt.gossip.replicas.SetInstance(peer, 7)
		if err := rt.gossip.replicas.ApplyFull(peer, "t/m", s.base, s.full); err != nil {
			t.Fatal(err)
		}
		if pull, err := store.DecodeStream(data, store.StreamPull); err == nil {
			rt.gossip.apply(peer, pull)
		}
		if ho, err := store.DecodeStream(data, store.StreamHandoff); err == nil {
			rt.mergeRecords(ho)
		}
	})
}
