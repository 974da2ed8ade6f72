package knw_test

// Benchmark harness: one target per experiment in DESIGN.md §3.
// Regenerate all numbers with
//
//	go test -bench=. -benchmem .
//
// and per-experiment with -bench=BenchmarkFigure1UpdateTime etc.
// EXPERIMENTS.md records a reference run.

import (
	"fmt"
	"math/rand"
	"testing"

	knw "repro"
	"repro/internal/baseline"
	"repro/internal/l0core"
	"repro/internal/rough"
	"repro/internal/simulate"
	"repro/internal/stream"
)

// --- E1: Figure 1's update-time column ------------------------------

// BenchmarkFigure1UpdateTime measures ns/update for every implemented
// Figure 1 row at ε = 0.05 (where applicable).
func BenchmarkFigure1UpdateTime(b *testing.B) {
	const eps = 0.05
	rng := func(s int64) *rand.Rand { return rand.New(rand.NewSource(s)) }
	algos := map[string]baseline.F0Estimator{
		"KNW-fast":       knw.NewF0(knw.WithEpsilon(eps), knw.WithSeed(1), knw.WithCopies(1)),
		"KNW-reference":  knw.NewF0(knw.WithEpsilon(eps), knw.WithSeed(1), knw.WithCopies(1), knw.WithReference()),
		"FM85":           baseline.NewFM85(64, 1),
		"AMS":            baseline.NewAMS(9, 32, rng(2)),
		"GT":             baseline.NewGT(4096, 32, rng(3)),
		"KMV":            baseline.NewKMV(4096, rng(4)),
		"BJKST":          baseline.NewBJKST(4096, 32, rng(5)),
		"LogLog":         baseline.NewLogLog(2048, 6),
		"HyperLogLog":    baseline.NewHyperLogLog(baseline.MForEpsilon(eps), 7),
		"LinearCounting": baseline.NewLinearCounting(1<<23, 8),
	}
	for name, est := range algos {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				est.Add(uint64(i) * 0x9e3779b97f4a7c15)
			}
		})
	}
}

// --- E2: RoughEstimator (Figure 2 / Theorem 1) ----------------------

func BenchmarkRoughEstimatorUpdate(b *testing.B) {
	for _, mode := range []struct {
		name string
		fast bool
	}{{"fast-tabulation", true}, {"reference-polynomial", false}} {
		b.Run(mode.name, func(b *testing.B) {
			re := rough.New(rough.Config{LogN: 32, Fast: mode.fast}, rand.New(rand.NewSource(1)))
			for i := 0; i < b.N; i++ {
				re.Update(uint64(i) * 0x9e3779b97f4a7c15)
			}
		})
	}
}

func BenchmarkRoughEstimatorReport(b *testing.B) {
	re := rough.New(rough.Config{LogN: 32, Fast: true}, rand.New(rand.NewSource(1)))
	for i := 0; i < 1<<20; i++ {
		re.Update(uint64(i) * 0x9e3779b97f4a7c15)
	}
	var s uint64
	for i := 0; i < b.N; i++ {
		s += re.Estimate()
	}
	_ = s
}

// --- E3: the full F0 algorithm (Figure 3 / Theorems 3, 9) -----------

func BenchmarkKNWUpdate(b *testing.B) {
	for _, eps := range []float64{0.1, 0.05, 0.03} {
		b.Run(epsName(eps), func(b *testing.B) {
			sk := knw.NewF0(knw.WithEpsilon(eps), knw.WithSeed(1), knw.WithCopies(1))
			for i := 0; i < b.N; i++ {
				sk.Add(uint64(i) * 0x9e3779b97f4a7c15)
			}
		})
	}
}

func BenchmarkKNWReport(b *testing.B) {
	sk := knw.NewF0(knw.WithEpsilon(0.05), knw.WithSeed(1), knw.WithCopies(1))
	for i := 0; i < 1<<21; i++ {
		sk.Add(uint64(i) * 0x9e3779b97f4a7c15)
	}
	var v float64
	for i := 0; i < b.N; i++ {
		v = sk.Estimate()
	}
	_ = v
}

// BenchmarkKNWAmplified measures the amplified (δ = 0.05) sketch the
// public API defaults to — the cost the paper's "independent
// repetition" multiplies in.
func BenchmarkKNWAmplified(b *testing.B) {
	sk := knw.NewF0(knw.WithEpsilon(0.05), knw.WithSeed(1))
	for i := 0; i < b.N; i++ {
		sk.Add(uint64(i) * 0x9e3779b97f4a7c15)
	}
}

// --- E13: batched ingestion (DESIGN.md §13) -------------------------

// benchBatch is the micro-batch size the batched benchmarks use.
// Sized so each of the 8 shards still receives full precompute chunks
// after routing (4096/8 = 512 = 2 chunks per shard per batch).
const benchBatch = 4096

// BenchmarkKNWIngest compares the scalar and batched single-sketch
// ingestion paths; the batch path amortizes hash evaluation across
// pipelined chunk loops.
func BenchmarkKNWIngest(b *testing.B) {
	b.Run("scalar", func(b *testing.B) {
		sk := knw.NewF0(knw.WithEpsilon(0.05), knw.WithSeed(1), knw.WithCopies(1))
		for i := 0; i < b.N; i++ {
			sk.Add(uint64(i) * 0x9e3779b97f4a7c15)
		}
	})
	b.Run("batch", func(b *testing.B) {
		sk := knw.NewF0(knw.WithEpsilon(0.05), knw.WithSeed(1), knw.WithCopies(1))
		keys := make([]uint64, benchBatch)
		for i := 0; i < b.N; i += len(keys) {
			n := len(keys)
			if rem := b.N - i; rem < n {
				n = rem
			}
			for j := 0; j < n; j++ {
				keys[j] = uint64(i+j) * 0x9e3779b97f4a7c15
			}
			sk.AddBatch(keys[:n])
		}
	})
}

// BenchmarkKeyedIngest compares typed-key batched ingestion against
// the raw uint64 path on the same sketch configuration — the PR-2
// acceptance gate is keyed-string within 10% of raw-uint64. The
// string keys are realistic short ids (~12 bytes); "raw-uint64" is
// the floor (no per-key hash at all).
func BenchmarkKeyedIngest(b *testing.B) {
	mkKeys := func() ([]uint64, []string) {
		raw := make([]uint64, benchBatch)
		str := make([]string, benchBatch)
		for i := range raw {
			raw[i] = uint64(i) * 0x9e3779b97f4a7c15 >> 32
			str[i] = fmt.Sprintf("user-%07d", i)
		}
		return raw, str
	}
	opts := []knw.Option{knw.WithEpsilon(0.05), knw.WithSeed(1)}
	b.Run("raw-uint64", func(b *testing.B) {
		sk := knw.NewF0(opts...)
		raw, _ := mkKeys()
		b.ResetTimer()
		for i := 0; i < b.N; i += benchBatch {
			sk.AddBatch(raw)
		}
	})
	b.Run("keyed-uint64", func(b *testing.B) {
		k := knw.NewKeyed[uint64](knw.NewF0(opts...))
		raw, _ := mkKeys()
		b.ResetTimer()
		for i := 0; i < b.N; i += benchBatch {
			k.AddBatch(raw)
		}
	})
	b.Run("keyed-string", func(b *testing.B) {
		k := knw.NewKeyed[string](knw.NewF0(opts...))
		_, str := mkKeys()
		b.ResetTimer()
		for i := 0; i < b.N; i += benchBatch {
			k.AddBatch(str)
		}
	})
}

// BenchmarkL0IngestBatch is the turnstile analogue.
func BenchmarkL0IngestBatch(b *testing.B) {
	sk := knw.NewL0(knw.WithEpsilon(0.1), knw.WithSeed(1), knw.WithCopies(1))
	keys := make([]uint64, benchBatch)
	for i := 0; i < b.N; i += len(keys) {
		n := len(keys)
		if rem := b.N - i; rem < n {
			n = rem
		}
		for j := 0; j < n; j++ {
			keys[j] = uint64(i+j) * 0x9e3779b97f4a7c15
		}
		sk.UpdateBatch(keys[:n], nil)
	}
}

// --- E6: worst-case update time (Theorem 9) -------------------------

// BenchmarkWorstCaseUpdate reports per-update latency quantiles across
// a stream crossing many rescale boundaries, comparing the deamortized
// FastSketch against the reference's Θ(K) rescale spikes. Quantiles
// are attached as custom benchmark metrics (ns units).
func BenchmarkWorstCaseUpdate(b *testing.B) {
	for _, mode := range []struct {
		name string
		opts []knw.Option
	}{
		{"fast-deamortized", []knw.Option{knw.WithCopies(1)}},
		{"reference-amortized", []knw.Option{knw.WithCopies(1), knw.WithReference()}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			opts := append([]knw.Option{knw.WithEpsilon(0.03), knw.WithSeed(1)}, mode.opts...)
			sk := knw.NewF0(opts...)
			prof := simulate.MeasureLatency(wrap{sk}, stream.NewUniform(2_000_000, 2_000_000, 1))
			b.ReportMetric(float64(prof.P50.Nanoseconds()), "p50-ns")
			b.ReportMetric(float64(prof.P999.Nanoseconds()), "p999-ns")
			b.ReportMetric(float64(prof.Max.Nanoseconds()), "max-ns")
			// Keep the runtime loop honest.
			for i := 0; i < b.N; i++ {
				sk.Add(uint64(i))
			}
		})
	}
}

// --- E7: L0 estimation (Figure 4 / Theorem 10) ----------------------

func BenchmarkL0Update(b *testing.B) {
	b.Run("KNW-L0", func(b *testing.B) {
		sk := knw.NewL0(knw.WithEpsilon(0.1), knw.WithSeed(1), knw.WithCopies(1))
		for i := 0; i < b.N; i++ {
			sk.Update(uint64(i)*0x9e3779b97f4a7c15, 1)
		}
	})
	b.Run("Ganguly", func(b *testing.B) {
		g := baseline.NewGangulyL0(4096, 32, rand.New(rand.NewSource(1)))
		for i := 0; i < b.N; i++ {
			g.Update(uint64(i)*0x9e3779b97f4a7c15, 1)
		}
	})
}

func BenchmarkL0Report(b *testing.B) {
	sk := knw.NewL0(knw.WithEpsilon(0.1), knw.WithSeed(1), knw.WithCopies(1))
	for i := 0; i < 500_000; i++ {
		sk.Update(uint64(i)*0x9e3779b97f4a7c15, 1)
	}
	var v float64
	for i := 0; i < b.N; i++ {
		v = sk.Estimate()
	}
	_ = v
}

// --- E8/E9: the small-L0 structures ---------------------------------

func BenchmarkExactSmallL0Update(b *testing.B) {
	e := l0core.NewExactSmallL0(141, 1.0/16, 32, rand.New(rand.NewSource(1)))
	for i := 0; i < b.N; i++ {
		e.Update(uint64(i)&1023, 1)
	}
}

func BenchmarkRoughL0Update(b *testing.B) {
	e := l0core.NewRoughL0(l0core.RoughL0Config{LogN: 32}, rand.New(rand.NewSource(1)))
	for i := 0; i < b.N; i++ {
		e.Update(uint64(i)*0x9e3779b97f4a7c15, 1)
	}
}

// --- E12: application workloads --------------------------------------

func BenchmarkNetmonPacket(b *testing.B) {
	tr := stream.NewNetTrace(stream.NetTraceConfig{Seed: 1})
	srcs := knw.NewF0(knw.WithEpsilon(0.1), knw.WithSeed(1), knw.WithCopies(1))
	flows := knw.NewF0(knw.WithEpsilon(0.1), knw.WithSeed(2), knw.WithCopies(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, ok := tr.Next()
		if !ok {
			b.StopTimer()
			tr = stream.NewNetTrace(stream.NetTraceConfig{Seed: int64(i)})
			b.StartTimer()
			p, _ = tr.Next()
		}
		srcs.Add(p.SrcKey())
		flows.Add(p.FlowKey())
	}
}

// --- E14: service snapshot/merge hot path ----------------------------

// BenchmarkSnapshotRoundTrip measures the knwd checkpoint/merge cycle:
// encode a sketch to its envelope (AppendBinary into a reused buffer —
// the pooled path the store checkpointer and /v1/snapshot use) and
// restore it with knw.Open (the /v1/merge and startup-restore path).
// ReportAllocs makes encode-side pooling regressions visible.
func BenchmarkSnapshotRoundTrip(b *testing.B) {
	for _, bc := range []struct {
		name string
		make func() knw.Estimator
	}{
		{"F0", func() knw.Estimator {
			return knw.NewF0(knw.WithEpsilon(0.05), knw.WithSeed(1))
		}},
		{"L0", func() knw.Estimator {
			return knw.NewL0(knw.WithEpsilon(0.05), knw.WithSeed(1))
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			sk := bc.make()
			keys := make([]uint64, 1<<16)
			for i := range keys {
				keys[i] = uint64(i) * 0x9e3779b97f4a7c15
			}
			sk.AddBatch(keys)
			enc := sk.(interface {
				AppendBinary([]byte) ([]byte, error)
			})
			var buf []byte
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				buf, err = enc.AppendBinary(buf[:0])
				if err != nil {
					b.Fatal(err)
				}
				if _, err := knw.Open(buf); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(len(buf)))
		})
	}
}

// BenchmarkSnapshotEncode isolates the encode half (what a checkpoint
// tick pays per store entry when nothing is restored).
func BenchmarkSnapshotEncode(b *testing.B) {
	sk := knw.NewF0(knw.WithEpsilon(0.05), knw.WithSeed(1))
	keys := make([]uint64, 1<<16)
	for i := range keys {
		keys[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	sk.AddBatch(keys)
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = sk.AppendBinary(buf[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(buf)))
}

// f0BenchEnvelope returns the envelope of a seeded F0 at eps holding
// 2^15 distinct keys starting at key lo.
func f0BenchEnvelope(b *testing.B, eps float64, lo int) []byte {
	sk := knw.NewF0(knw.WithEpsilon(eps), knw.WithSeed(1))
	keys := make([]uint64, 1<<15)
	for i := range keys {
		keys[i] = uint64(lo+i) * 0x9e3779b97f4a7c15
	}
	sk.AddBatch(keys)
	env, err := sk.MarshalBinary()
	if err != nil {
		b.Fatal(err)
	}
	return env
}

// BenchmarkF0Open measures knw.Open of an F0 envelope: what gossip
// apply, checkpoint load and Clone pay per sketch. The set-up builds a
// sketch from the same options and seed first, so the timed opens
// decode state over shared hash functions, as every open after a
// process's first does.
func BenchmarkF0Open(b *testing.B) {
	for _, eps := range []float64{0.2, 0.05} {
		b.Run(epsName(eps), func(b *testing.B) {
			env := f0BenchEnvelope(b, eps, 0)
			b.ReportAllocs()
			b.SetBytes(int64(len(env)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := knw.Open(env); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkF0Merge measures knw.MergeInto of one F0 into another whose
// stream half overlaps it: what a store drain, a gossip-view read and
// a gather fold pay per sketch. Each merge lands in a freshly opened
// destination (untimed), so every iteration moves counters.
func BenchmarkF0Merge(b *testing.B) {
	for _, eps := range []float64{0.2, 0.05} {
		b.Run(epsName(eps), func(b *testing.B) {
			dstEnv := f0BenchEnvelope(b, eps, 0)
			src, err := knw.Open(f0BenchEnvelope(b, eps, 1<<14))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dst, err := knw.Open(dstEnv)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := knw.MergeInto(dst, src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func epsName(eps float64) string {
	switch eps {
	case 0.2:
		return "eps=0.20"
	case 0.1:
		return "eps=0.10"
	case 0.05:
		return "eps=0.05"
	case 0.03:
		return "eps=0.03"
	}
	return "eps=?"
}
