package store

import (
	"fmt"
	"testing"
	"time"

	knw "repro"
)

// Read-path benchmarks of the in-memory views: the merged gossip view
// and the per-bucket ring export. Both run at ε = 0.2 (cluster-3node)
// and knwd's default ε = 0.05; the ε = 0.05 rows are the windowed-read
// cost at the default. They use only API that predates native copies,
// so the same file measures both read paths.
//
//	go test -run=NONE -bench='BenchmarkReplicaView|BenchmarkRingSnapshot' -benchmem ./store

// viewBenchKeys returns n hashed keys starting at key lo.
func viewBenchKeys(lo, n int) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(lo+i)*0x9e3779b97f4a7c15 + 1
	}
	return keys
}

// BenchmarkReplicaView measures the merged-view reads over a local
// store and 2 peer replicas of 2^15 keys each: "estimate" is Estimate
// right after a local write (so the memo misses and the local total is
// read), "merged" is MergedSketch.
func BenchmarkReplicaView(b *testing.B) {
	for _, eps := range []float64{0.2, 0.05} {
		cfg := Config{
			Kind:          knw.KindF0,
			Options:       []knw.Option{knw.WithEpsilon(eps), knw.WithSeed(1)},
			EpochInterval: -1,
		}
		local, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		const name = "t/view"
		if err := local.IngestHashed(name, viewBenchKeys(0, 1<<15)); err != nil {
			b.Fatal(err)
		}
		rs := NewReplicaSet(local)
		for p := 1; p <= 2; p++ {
			peer, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if err := peer.IngestHashed(name, viewBenchKeys(p<<14, 1<<15)); err != nil {
				b.Fatal(err)
			}
			snap, err := peer.DeltaSnapshot(name, 0, false)
			if err != nil {
				b.Fatal(err)
			}
			if err := rs.ApplyFull(fmt.Sprintf("http://peer-%d", p), name, snap.Version, snap.Env); err != nil {
				b.Fatal(err)
			}
		}
		write := viewBenchKeys(1<<20, 16)
		b.Run(epsName(eps)+"/estimate", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				write[0]++
				if err := local.IngestHashed(name, write); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := rs.Estimate(name); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(epsName(eps)+"/merged", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := rs.MergedSketch(name); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRingSnapshot measures the per-bucket export of a 4-bucket
// ring of 2^13 keys per bucket, the unit a series gather moves: "local"
// is RingSnapshot alone (the local member's share of a gather), "serve"
// adds AppendRingStream (a peer answering GET
// /v1/snapshot?scope=buckets), and "wire" adds DecodeStream and
// OpenRing too (a peer's share, serve plus receive).
func BenchmarkRingSnapshot(b *testing.B) {
	for _, eps := range []float64{0.2, 0.05} {
		base := time.Unix(0, 0).Add(1_000_000 * time.Minute)
		now := base
		s, err := New(Config{
			Kind:    knw.KindF0,
			Options: []knw.Option{knw.WithEpsilon(eps), knw.WithSeed(1)},
			Window:  Window{Buckets: 4, Interval: time.Minute},
			Now:     func() time.Time { return now },
		})
		if err != nil {
			b.Fatal(err)
		}
		const name = "t/ring"
		for j := 0; j < 4; j++ {
			now = base.Add(time.Duration(j) * time.Minute)
			if err := s.IngestHashed(name, viewBenchKeys(j<<12, 1<<13)); err != nil {
				b.Fatal(err)
			}
			s.Flush()
		}
		b.Run(epsName(eps)+"/local", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.RingSnapshot(name); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(epsName(eps)+"/serve", func(b *testing.B) {
			b.ReportAllocs()
			var buf []byte
			for i := 0; i < b.N; i++ {
				rs, err := s.RingSnapshot(name)
				if err != nil {
					b.Fatal(err)
				}
				buf = AppendRingStream(buf[:0], name, rs)
			}
			b.SetBytes(int64(len(buf)))
		})
		b.Run(epsName(eps)+"/wire", func(b *testing.B) {
			b.ReportAllocs()
			var buf []byte
			for i := 0; i < b.N; i++ {
				rs, err := s.RingSnapshot(name)
				if err != nil {
					b.Fatal(err)
				}
				buf = AppendRingStream(buf[:0], name, rs)
				st, err := DecodeStream(buf, StreamRing)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := s.OpenRing(st.Records[0].Ring); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(len(buf)))
		})
	}
}

func epsName(eps float64) string { return fmt.Sprintf("eps=%.2f", eps) }
