package knw_test

import (
	"fmt"
	"testing"

	knw "repro"
)

// Benchmarks of in-process sketch copies: what a merged-view read, a
// set-algebra term and a local gather pay per sketch. They use only
// API that predates native copies, so the same file measures a codec
// Clone (MarshalBinary + Open) and a native one.
//
//	go test -run=NONE -bench='BenchmarkF0Clone|BenchmarkSetStats' -benchmem .

// BenchmarkF0Clone measures knw.Clone of an F0 holding 2^15 distinct
// keys.
func BenchmarkF0Clone(b *testing.B) {
	for _, eps := range []float64{0.2, 0.05} {
		b.Run(epsName(eps), func(b *testing.B) {
			src, err := knw.Open(f0BenchEnvelope(b, eps, 0))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := knw.Clone(src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSetStats measures knw.NewSetStats over k F0s whose streams
// half overlap their neighbours': 2^k − 1 − k union terms, the work
// behind one /v1/query.
func BenchmarkSetStats(b *testing.B) {
	for _, eps := range []float64{0.2, 0.05} {
		for _, k := range []int{2, 4} {
			b.Run(fmt.Sprintf("%s/k=%d", epsName(eps), k), func(b *testing.B) {
				sketches := make([]knw.Estimator, k)
				for i := range sketches {
					est, err := knw.Open(f0BenchEnvelope(b, eps, i<<14))
					if err != nil {
						b.Fatal(err)
					}
					sketches[i] = est
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := knw.NewSetStats(sketches...); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
