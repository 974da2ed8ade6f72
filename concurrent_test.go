package knw_test

import (
	"math"
	"sync"
	"testing"

	knw "repro"
	"repro/store"
)

// Concurrent ingestion has one mechanism: every writer fills its own
// sketch built with the same options and seed, and Merge folds them
// (per-counter max for F0, linear sum for L0). These tests cover that
// model directly and through the store, whose delta slots apply it to
// long-running writers.

// mergeWriters runs one goroutine per sketch and merges them all into
// the first once every writer is done.
func mergeWriters[S interface{ Merge(S) error }](t *testing.T, parts []S, write func(g int, sk S)) S {
	t.Helper()
	var wg sync.WaitGroup
	for g, sk := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			write(g, sk)
		}()
	}
	wg.Wait()
	for _, p := range parts[1:] {
		if err := parts[0].Merge(p); err != nil {
			t.Fatal(err)
		}
	}
	return parts[0]
}

func TestConcurrentF0Basic(t *testing.T) {
	const f0, writers = 100_000, 8
	parts := make([]*knw.F0, writers)
	for g := range parts {
		parts[g] = knw.NewF0(knw.WithSeed(60), knw.WithEpsilon(0.1), knw.WithCopies(1))
	}
	merged := mergeWriters(t, parts, func(g int, sk *knw.F0) {
		for i := g; i < f0; i += writers {
			k := uint64(i)*0x9e3779b97f4a7c15 + 1
			sk.Add(k)
			sk.Add(k)
		}
	})
	got := merged.Estimate()
	if rel := math.Abs(got-f0) / f0; rel > 0.15 {
		t.Errorf("merged per-writer estimate %v (rel %.3f)", got, rel)
	}
	if merged.SpaceBits() <= 0 {
		t.Error("SpaceBits")
	}
}

// TestConcurrentF0MatchesSequentialUnion: the per-writer sketches,
// merged, agree with a single same-seed sketch over the whole stream.
func TestConcurrentF0MatchesSequentialUnion(t *testing.T) {
	opts := []knw.Option{knw.WithSeed(61), knw.WithEpsilon(0.1), knw.WithCopies(1)}
	const n, writers = 200_000, 8
	single := knw.NewF0(opts...)
	for i := 0; i < n; i++ {
		single.Add(uint64(i)*2654435761 + 1)
	}
	parts := make([]*knw.F0, writers)
	for g := range parts {
		parts[g] = knw.NewF0(opts...)
	}
	merged := mergeWriters(t, parts, func(g int, sk *knw.F0) {
		for i := g; i < n; i += writers {
			sk.Add(uint64(i)*2654435761 + 1)
		}
	})
	a, b := merged.Estimate(), single.Estimate()
	if math.Abs(a-b)/b > 0.2 {
		t.Errorf("merged %v vs single %v", a, b)
	}
}

// TestConcurrentF0EstimateDuringWrites: estimates are safe to read
// while writers run, and never collapse. The store provides that for
// plain F0 sketches; run with -race to verify synchronization.
func TestConcurrentF0EstimateDuringWrites(t *testing.T) {
	st, err := store.New(store.Config{Kind: knw.KindF0,
		Options: []knw.Option{knw.WithSeed(62), knw.WithEpsilon(0.2), knw.WithCopies(1)}})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			batch := make([]uint64, 256)
			for i := uint64(g); ; {
				select {
				case <-stop:
					return
				default:
				}
				for j := range batch {
					batch[j] = i*0x9e3779b97f4a7c15 + 1
					i += 4
				}
				if err := st.IngestHashed("s", batch); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	prev := 0.0
	for r := 0; r < 10; r++ {
		est, err := st.Estimate("s")
		if err != nil {
			continue // no writer has created the store yet
		}
		if est.AllTime+1 < prev*0.5 { // monotone-ish: gross decreases indicate a race
			t.Errorf("estimate collapsed: %v after %v", est.AllTime, prev)
		}
		prev = est.AllTime
	}
	close(stop)
	wg.Wait()
}

func TestConcurrentL0(t *testing.T) {
	const live, writers = 50_000, 8
	parts := make([]*knw.L0, writers)
	for g := range parts {
		parts[g] = knw.NewL0(knw.WithSeed(65), knw.WithEpsilon(0.1), knw.WithCopies(1))
	}
	// A key's insert and delete may land in different writers' sketches:
	// the merge sums frequency vectors, so they still cancel.
	merged := mergeWriters(t, parts, func(g int, sk *knw.L0) {
		for i := g; i < live+20_000; i += writers {
			k := uint64(i)*0x9e3779b97f4a7c15 + 1
			sk.Update(k, 5)
		}
		for i := live + (g+1)%writers; i < live+20_000; i += writers {
			sk.Update(uint64(i)*0x9e3779b97f4a7c15+1, -5)
		}
	})
	got := merged.Estimate()
	if rel := math.Abs(got-live) / live; rel > 0.2 {
		t.Errorf("merged per-writer L0 %v (rel %.3f)", got, rel)
	}
}
