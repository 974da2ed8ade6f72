// pipeline demonstrates the library's production ingestion shape: a
// store.Store fed string micro-batches by many goroutines, a reader
// taking periodic estimates while they write, and a checkpoint/restore
// cycle through the self-describing envelope — the full write path a
// streaming analytics service would run.
//
// The store hands every concurrent writer a private delta slot, a
// bounded buffer of hashed keys, and feeds the buffered keys to the
// store's sketch in the background and before every read, so writers
// never share a lock and every estimate includes every completed
// write.
//
// The stream is split into two halves. Half one is ingested, the store
// is checkpointed with Snapshot, the envelope is restored into a fresh
// store with Restore (as after a process restart), and half two is
// ingested into the restored store. The final estimate covers the
// whole stream.
package main

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	knw "repro"
	"repro/store"
)

const (
	name      = "users/active"
	workers   = 8
	batchSize = 1024
	distinct  = 400_000
	updates   = 1_200_000
)

// newStore builds the store both halves run on. The seed is pinned so
// the restored store hashes and merges exactly like the first one.
func newStore() *store.Store {
	st, err := store.New(store.Config{
		Kind:    knw.KindF0,
		Options: []knw.Option{knw.WithEpsilon(0.05), knw.WithSeed(42), knw.WithCopies(3)},
	})
	if err != nil {
		panic(err)
	}
	return st
}

// ingest streams updates [lo, hi) into the store in micro-batches, as
// a partition consumer would. Keys are strings (user ids); the store
// hashes each batch with its pinned seed.
func ingest(st *store.Store, lo, hi int, wg *sync.WaitGroup, progress *atomic.Int64) {
	defer wg.Done()
	batch := make([]string, 0, batchSize)
	flush := func() {
		if err := st.Ingest(name, batch); err != nil {
			panic(err)
		}
		progress.Add(int64(len(batch)))
		batch = batch[:0]
	}
	for i := lo; i < hi; i++ {
		// Keys repeat (updates > distinct): real traffic re-sees items.
		batch = append(batch, "user-"+strconv.Itoa(i%distinct))
		if len(batch) == batchSize {
			flush()
		}
	}
	flush()
}

// runHalf ingests updates [lo, hi) with `workers` goroutines while a
// reader polls estimates.
func runHalf(st *store.Store, lo, hi int) {
	var wg sync.WaitGroup
	var progress atomic.Int64
	per := (hi - lo + workers - 1) / workers
	for w := 0; w < workers; w++ {
		a := lo + w*per
		b := min(a+per, hi)
		if a >= b {
			break
		}
		wg.Add(1)
		go ingest(st, a, b, &wg, &progress)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		wg.Wait()
	}()
	// Periodic reads while writers run: Estimate first drains the
	// writers' buffered keys, so it never misses a completed batch.
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-done:
			return
		case <-tick.C:
			if est, err := st.Estimate(name); err == nil {
				fmt.Printf("  progress %9d updates  estimate ≈ %.0f\n", progress.Load(), est.AllTime)
			}
		}
	}
}

func main() {
	st := newStore()
	fmt.Printf("phase 1: %d writers, batches of %d\n", workers, batchSize)
	runHalf(st, 0, updates/2)

	blob, err := st.Snapshot(name, nil)
	if err != nil {
		panic(err)
	}
	st.Close()
	fmt.Printf("checkpoint: %d-byte envelope\n", len(blob))

	// Simulate a restart: a fresh store with the same configuration
	// takes the envelope back. Restore checks that its kind, options
	// and seed match the store's before accepting it.
	restored := newStore()
	defer restored.Close()
	if err := restored.Restore(name, blob); err != nil {
		panic(err)
	}
	est, err := restored.Estimate(name)
	if err != nil {
		panic(err)
	}
	fmt.Printf("restored: %s, estimate ≈ %.0f\n", est.Sketch, est.AllTime)

	fmt.Println("phase 2: resuming ingestion on the restored store")
	runHalf(restored, updates/2, updates)

	if est, err = restored.Estimate(name); err != nil {
		panic(err)
	}
	fmt.Printf("final: estimate ≈ %.0f  (true distinct %d, rel.err %+.2f%%)\n",
		est.AllTime, distinct, 100*(est.AllTime-float64(distinct))/float64(distinct))
}
