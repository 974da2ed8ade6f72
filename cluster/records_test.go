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
// a KNWD delta from base to next, and the live window's union.
type recordSeeds struct {
	base, next        uint64
	full, delta, wenv []byte
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
	if s.wenv, err = st.WindowSnapshot("t/m", nil); err != nil {
		tb.Fatal(err)
	}
	return s
}

func stream(instance uint64, recs ...peerRecord) []byte {
	var rw recordWriter
	for _, rec := range recs {
		rw.add(rec)
	}
	return append(rw.head(instance), rw.body.Buf...)
}

// TestRecordStreamRoundTrip: what recordWriter writes, readRecords
// reads back record for record.
func TestRecordStreamRoundTrip(t *testing.T) {
	s := makeRecordSeeds(t)
	want := []peerRecord{
		{name: "t/m", version: s.base, env: s.full},
		{name: "t/m", version: s.next, env: s.delta},
		{name: "w/m", env: s.full, window: s.wenv},
	}
	rs, err := readRecords(bytes.NewReader(stream(7, want...)))
	if err != nil {
		t.Fatal(err)
	}
	if rs.instance != 7 || rs.count != uint64(len(want)) {
		t.Fatalf("header: instance %d count %d", rs.instance, rs.count)
	}
	var got []peerRecord
	if err := rs.each(func(rec peerRecord) error { got = append(got, rec); return nil }); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		w, g := want[i], got[i]
		if g.name != w.name || g.version != w.version || !bytes.Equal(g.env, w.env) || !bytes.Equal(g.window, w.window) {
			t.Fatalf("record %d: got %q v%d env %d B window %d B", i, g.name, g.version, len(g.env), len(g.window))
		}
	}
}

// TestReadRecordsRejects: streams from an older member (the version 1
// gossip layout, the retired handoff stream) and damaged streams come
// back as errors, never panics or partial success.
func TestReadRecordsRejects(t *testing.T) {
	s := makeRecordSeeds(t)
	good := stream(7, peerRecord{name: "t/m", version: s.base, env: s.full})

	var v1 binenc.Writer // version 1: (name, version, envelope) records
	v1.Uvarint(recordMagic)
	v1.Uvarint(1)
	v1.Uvarint(7)
	v1.Uvarint(1)
	v1.Bytes([]byte("t/m"))
	v1.Uvarint(s.base)
	v1.Bytes(s.full)

	var oldHandoff binenc.Writer // magic "KNWH", version 1
	oldHandoff.Uvarint(0x4b4e5748)
	oldHandoff.Uvarint(1)

	var tooMany binenc.Writer
	tooMany.Uvarint(recordMagic)
	tooMany.Uvarint(recordVersion)
	tooMany.Uvarint(0)
	tooMany.Uvarint(maxPeerRecords + 1)

	cases := []struct {
		name, want string
		data       []byte
	}{
		{"version 1", "unsupported record stream version 1", v1.Buf},
		{"old handoff", "bad record stream magic", oldHandoff.Buf},
		{"empty", "bad record stream header", nil},
		{"too many records", "claims", tooMany.Buf},
		{"truncated", "bad record", good[:len(good)-3]},
		{"trailing bytes", "trailing bytes", append(bytes.Clone(good), 0)},
		{"bad name", "control characters", stream(7, peerRecord{name: "t\x01m", env: s.full})},
	}
	for _, c := range cases {
		rs, err := readRecords(bytes.NewReader(c.data))
		if err == nil {
			err = rs.each(func(peerRecord) error { return nil })
		}
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want it to mention %q", c.name, err, c.want)
		}
	}
}

// FuzzPeerRecords drives arbitrary bytes through the record decoder
// and both of its sinks: gossip's (replica apply, full and delta) and
// handoff's (store merge, all-time and window). Gossip decodes peer
// bytes on a goroutine with no recover, so every input must come back
// as an error or success, never a panic. The replica for "t/m" sits at
// the seed delta's base, so delta records reach the splice.
//
// Run with: go test -fuzz=FuzzPeerRecords ./cluster
func FuzzPeerRecords(f *testing.F) {
	s := makeRecordSeeds(f)
	f.Add(stream(7, peerRecord{name: "t/m", version: s.base, env: s.full}))
	f.Add(stream(7, peerRecord{name: "t/m", version: s.next, env: s.delta}))
	f.Add(stream(0, peerRecord{name: "t/m", env: s.full, window: s.wenv}))
	f.Add(stream(7,
		peerRecord{name: "t/m", version: s.next, env: s.delta},
		peerRecord{name: "u/m", version: 3, env: s.full}))
	f.Add(stream(0))

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
		if rs, err := readRecords(bytes.NewReader(data)); err == nil {
			rt.gossip.apply(peer, rs)
		}
		if rs, err := readRecords(bytes.NewReader(data)); err == nil {
			rt.mergeRecords(rs)
		}
	})
}
