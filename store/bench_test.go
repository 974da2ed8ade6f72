package store

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	knw "repro"
)

// Ingest-path benchmarks for the lock-free delta layer. The ns/key
// numbers here are the store's share of the service ingest budget —
// what sits between the HTTP codecs and the raw sketch Add. Each
// benchmark ends its timed region with a Flush, so ns/op covers the
// sketch work of every key, not just the copy into a slot buffer that
// a later drain finishes.
//
//	go test -run=NONE -bench='BenchmarkStoreIngest' -benchmem ./store

func benchConfig() Config {
	return Config{
		Kind:    knw.KindF0,
		Options: []knw.Option{knw.WithEpsilon(0.05), knw.WithSeed(1)},
	}
}

// BenchmarkStoreIngest measures the string path: hash into a slot
// buffer (or apply directly) per key, background epoch loop running.
func BenchmarkStoreIngest(b *testing.B) {
	for _, batch := range []int{64, 1024, 8192} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			s, err := New(benchConfig())
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			ks := make([]string, batch)
			for i := range ks {
				ks[i] = fmt.Sprintf("user-%d", i)
			}
			b.SetBytes(int64(batch))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Ingest("bench/t", ks); err != nil {
					b.Fatal(err)
				}
			}
			s.Flush()
		})
	}
}

// BenchmarkStoreIngestHashed measures the pre-hashed path the binary
// frame codec feeds: slot-buffer copy (or direct apply) only, no key
// bytes touched. The windowed case drains every key into the total
// and the live bucket of a 4-bucket ring, which share one hash phase.
func BenchmarkStoreIngestHashed(b *testing.B) {
	run := func(b *testing.B, cfg Config, batch int) {
		s, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		ks := make([]uint64, batch)
		for i := range ks {
			ks[i] = s.HashKey(fmt.Sprintf("user-%d", i))
		}
		b.SetBytes(int64(batch))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.IngestHashed("bench/t", ks); err != nil {
				b.Fatal(err)
			}
		}
		s.Flush()
	}
	for _, batch := range []int{64, 1024, 8192} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) { run(b, benchConfig(), batch) })
	}
	b.Run("windowed/batch=1024", func(b *testing.B) {
		cfg := benchConfig()
		cfg.Window = Window{Buckets: 4, Interval: time.Hour}
		run(b, cfg, 1024)
	})
}

// BenchmarkStoreIngestParallel is the contention case the slot
// protocol exists for: every P hammering one entry at once.
func BenchmarkStoreIngestParallel(b *testing.B) {
	s, err := New(benchConfig())
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	const batch = 1024
	var worker atomic.Int64
	b.SetBytes(batch)
	b.RunParallel(func(pb *testing.PB) {
		w := worker.Add(1)
		ks := make([]uint64, batch)
		for i := range ks {
			ks[i] = s.HashKey(fmt.Sprintf("user-%d-%d", w, i))
		}
		for pb.Next() {
			if err := s.IngestHashed("bench/hot", ks); err != nil {
				b.Fatal(err)
			}
		}
	})
	s.Flush()
}
