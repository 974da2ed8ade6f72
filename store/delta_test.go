package store

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	knw "repro"
)

// The delta/epoch machinery (delta.go) is what makes Ingest lock-free:
// writers buffer hashed keys in private per-entry slots, and the
// canonical sketches advance at flush time, behind a read barrier, or
// when a batch too large for its slot is applied by its writer. These
// tests pin the promises that layer makes: reads always see their own
// completed writes, explicit Flush fully drains the backlog with
// deterministic window attribution, checkpoints taken mid-epoch
// capture pending keys, slot buffers stay bounded, and a lone writer's
// sketches are exactly one sketch fed its batches.

// TestReadYourWrites: an Estimate immediately after Ingest — no Flush,
// no background loop (fake clock disables it) — must already include
// the ingested keys, and the read barrier must clear the backlog.
func TestReadYourWrites(t *testing.T) {
	cfg := testConfig()
	cfg.Now = func() time.Time { return time.Unix(1_700_000_000, 0) }
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Ingest("t/m", keys("k", 0, 3000)); err != nil {
		t.Fatal(err)
	}
	if got := s.PendingKeys(); got != 3000 {
		t.Fatalf("PendingKeys before read = %d, want 3000", got)
	}
	est, err := s.Estimate("t/m")
	if err != nil {
		t.Fatal(err)
	}
	within(t, "estimate after un-flushed ingest", est.AllTime, 3000, 0.25)
	if got := s.PendingKeys(); got != 0 {
		t.Fatalf("PendingKeys after read barrier = %d, want 0", got)
	}
}

// TestFlushWindowAttribution drives a deterministic clock through
// ingest→Flush cycles and checks bucket attribution: a batch flushed
// while bucket i was current must expire with bucket i, whether it was
// buffered and applied at Flush or, too large for its slot, applied by
// its writer.
func TestFlushWindowAttribution(t *testing.T) {
	for _, tc := range []struct {
		name string
		a, b int // batch sizes
	}{
		{"buffered", 2000, 1000},
		{"direct", BatchKeys + 2000, BatchKeys + 1000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			now := time.Unix(1_700_000_000, 0)
			cfg := testConfig()
			cfg.Window = Window{Buckets: 3, Interval: time.Minute}
			cfg.Now = func() time.Time { return now }
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			wantPending := int64(tc.a)
			if tc.a > BatchKeys {
				wantPending = 0
			}
			// Batch A in bucket 0, flushed there; batch B one interval later.
			if err := s.Ingest("t/m", keys("a", 0, tc.a)); err != nil {
				t.Fatal(err)
			}
			if got := s.PendingKeys(); got != wantPending {
				t.Fatalf("PendingKeys after batch A = %d, want %d", got, wantPending)
			}
			s.Flush()
			if got := s.PendingKeys(); got != 0 {
				t.Fatalf("PendingKeys after Flush = %d, want 0", got)
			}
			now = now.Add(time.Minute)
			if err := s.Ingest("t/m", keys("b", 0, tc.b)); err != nil {
				t.Fatal(err)
			}
			s.Flush()
			// Advance until batch A's bucket has fallen off the 3-bucket ring
			// but batch B's has not: only B remains windowed, both all-time.
			now = now.Add(2 * time.Minute)
			est, err := s.Estimate("t/m")
			if err != nil {
				t.Fatal(err)
			}
			within(t, "all-time after expiry", est.AllTime, float64(tc.a+tc.b), 0.25)
			within(t, "window after expiry", est.Window, float64(tc.b), 0.25)
		})
	}
}

// TestCheckpointDuringEpoch: a checkpoint taken while keys are still
// pending in delta slots must capture them — the capture path drains
// behind the entry lock — so a restore of that file reproduces the
// pre-checkpoint estimates exactly.
func TestCheckpointDuringEpoch(t *testing.T) {
	cfg := testConfig()
	cfg.Now = func() time.Time { return time.Unix(1_700_000_000, 0) }
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Ingest("t/m", keys("k", 0, 4000)); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	// No Flush: the 4000 keys ride into the checkpoint via the capture
	// barrier alone.
	if err := s.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	want, err := s.Estimate("t/m")
	if err != nil {
		t.Fatal(err)
	}
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := s2.LoadCheckpoint(dir); err != nil || n != 1 {
		t.Fatalf("LoadCheckpoint = (%d, %v), want (1, nil)", n, err)
	}
	got, err := s2.Estimate("t/m")
	if err != nil {
		t.Fatal(err)
	}
	if got.AllTime != want.AllTime {
		t.Fatalf("restored estimate %.1f != source %.1f", got.AllTime, want.AllTime)
	}
}

// TestIngestHashedMatchesIngest pins the pre-hashing contract the
// binary frame codec and the cluster forwarder stand on:
// IngestHashed(HashKey(k)) must leave the exact same sketch state as
// Ingest(k) — snapshots byte-identical, not merely close.
func TestIngestHashedMatchesIngest(t *testing.T) {
	a, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer b.Close()
	ks := keys("k", 0, 5000)
	hashed := make([]uint64, len(ks))
	for i, k := range ks {
		hashed[i] = b.HashKey(k)
	}
	if err := a.Ingest("t/m", ks); err != nil {
		t.Fatal(err)
	}
	if err := b.IngestHashed("t/m", hashed); err != nil {
		t.Fatal(err)
	}
	snapA, err := a.Snapshot("t/m", nil)
	if err != nil {
		t.Fatal(err)
	}
	snapB, err := b.Snapshot("t/m", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapA, snapB) {
		t.Fatal("Ingest and IngestHashed(HashKey) snapshots differ")
	}
}

// TestDeltaIngestStress hammers ONE entry from 2×GOMAXPROCS writers
// (mixing string and pre-hashed ingest) while readers estimate and the
// background epoch loop flushes at 1ms — the full concurrent surface
// of the slot protocol. Meant to run under -race; the final estimate
// must account for every written key (union of w disjoint ranges).
func TestDeltaIngestStress(t *testing.T) {
	cfg := testConfig()
	cfg.EpochInterval = time.Millisecond
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	writers := 2 * runtime.GOMAXPROCS(0)
	const perWriter = 2000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := w * perWriter
			for b := 0; b < perWriter; b += 100 {
				batch := keys("k", base+b, base+b+100)
				if w%2 == 0 {
					if err := s.Ingest("hot/entry", batch); err != nil {
						t.Error(err)
						return
					}
					continue
				}
				hashed := make([]uint64, len(batch))
				for i, k := range batch {
					hashed[i] = s.HashKey(k)
				}
				if err := s.IngestHashed("hot/entry", hashed); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	// Concurrent readers force drain barriers to interleave with the
	// epoch loop and the writers' slot claims.
	stopRead := make(chan struct{})
	var rg sync.WaitGroup
	rg.Add(1)
	go func() {
		defer rg.Done()
		for {
			select {
			case <-stopRead:
				return
			default:
				s.Estimate("hot/entry")
				s.Snapshot("hot/entry", nil)
			}
		}
	}()
	wg.Wait()
	close(stopRead)
	rg.Wait()
	est, err := s.Estimate("hot/entry")
	if err != nil {
		t.Fatal(err)
	}
	within(t, "stress estimate", est.AllTime, float64(writers*perWriter), 0.25)
	if got := s.PendingKeys(); got != 0 {
		t.Fatalf("PendingKeys after final read = %d, want 0", got)
	}
}

// TestCloseFlushesAndStaysUsable: Close stops the epoch loop after a
// final flush but the store keeps working — ingest still lands and
// read barriers still drain.
func TestCloseFlushesAndStaysUsable(t *testing.T) {
	s, err := New(testConfig()) // real clock: background loop running
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Ingest("t/m", keys("k", 0, 1000)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if got := s.PendingKeys(); got != 0 {
		t.Fatalf("PendingKeys after Close = %d, want 0", got)
	}
	s.Close() // idempotent
	if err := s.Ingest("t/m", keys("k", 1000, 2000)); err != nil {
		t.Fatal(err)
	}
	est, err := s.Estimate("t/m")
	if err != nil {
		t.Fatal(err)
	}
	within(t, "estimate after Close", est.AllTime, 2000, 0.25)
}

// TestSlotOverflowNeverBlocks: more concurrent writers than delta
// slots must still make progress (claim spins with Gosched, and the
// drainer holds at most one slot at a time).
func TestSlotOverflowNeverBlocks(t *testing.T) {
	cfg := testConfig()
	cfg.EpochInterval = time.Millisecond
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	writers := 4 * slotsPerEntry()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < 20; b++ {
				name := fmt.Sprintf("w%d", w*1000+b)
				if err := s.Ingest("one/entry", []string{name}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	est, err := s.Estimate("one/entry")
	if err != nil {
		t.Fatal(err)
	}
	within(t, "overflow estimate", est.AllTime, float64(writers*20), 0.25)
}

// slotBuffers returns the key count of every delta slot of name's
// entry that holds a buffer, by slot index. Callers run it with no
// writer or drain in flight.
func slotBuffers(t *testing.T, s *Store, name string) map[int]int {
	t.Helper()
	e, err := s.lookup(name, false)
	if err != nil {
		t.Fatal(err)
	}
	out := map[int]int{}
	for i := range e.slots {
		if ks := e.slots[i].keys; ks != nil {
			if cap(ks) != BatchKeys {
				t.Errorf("slot %d buffer has capacity %d, want %d", i, cap(ks), BatchKeys)
			}
			out[i] = len(ks)
		}
	}
	return out
}

// TestSlotBufferPerWriter: delta slots are bounded key buffers. No
// slot ever holds more than BatchKeys keys — a batch that does not fit
// is applied by its writer — an entry holds a buffer only in the slots
// its writers actually needed, even when GOMAXPROCS allows many more,
// and after a drain no slot holds a buffer at all. A lone writer never
// leaves slot 0.
func TestSlotBufferPerWriter(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	s, err := New(Config{Options: []knw.Option{knw.WithEpsilon(0.2), knw.WithSeed(1)}, EpochInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	if n := slotsPerEntry(); n != 9 {
		t.Fatalf("%d slots per entry at GOMAXPROCS=8", n)
	}
	check := func(writers int) {
		t.Helper()
		bufs := slotBuffers(t, s, "t/m")
		if len(bufs) > writers {
			t.Errorf("%d writer(s) left buffers in %d slots, want at most %d", writers, len(bufs), writers)
		}
		pending := 0
		for i, n := range bufs {
			if n > BatchKeys {
				t.Errorf("slot %d holds %d keys, over BatchKeys", i, n)
			}
			pending += n
		}
		if got := s.PendingKeys(); got != int64(pending) {
			t.Errorf("PendingKeys = %d, slots hold %d", got, pending)
		}
		if _, err := s.Estimate("t/m"); err != nil {
			t.Fatal(err)
		}
		if bufs := slotBuffers(t, s, "t/m"); len(bufs) != 0 {
			t.Errorf("slots %v still hold buffers after a drain", bufs)
		}
	}

	// A lone writer fills slot 0 to 40 batches, then goes direct.
	for b := 0; b < 64; b++ {
		if err := s.Ingest("t/m", keys("solo", b*100, (b+1)*100)); err != nil {
			t.Fatal(err)
		}
	}
	if bufs := slotBuffers(t, s, "t/m"); len(bufs) != 1 || bufs[0] != 4000 {
		t.Errorf("lone writer left slot buffers %v, want slot 0 with 4000 keys", bufs)
	}
	check(1)

	const writers = 8
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := 0; b < 32; b++ {
				lo := 10_000 + (w*32+b)*300
				if err := s.Ingest("t/m", keys("k", lo, lo+300)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	check(writers)
	est, err := s.Estimate("t/m")
	if err != nil {
		t.Fatal(err)
	}
	within(t, "estimate after both phases", est.AllTime, 6400+writers*32*300, 0.25)
}

// TestLoneWriterIdentity: in the deterministic regime (no epoch loop,
// fake clock) every key reaches the entry's sketches through AddBatch,
// so a lone writer's total marshals byte-identical to one sketch fed
// the same batches in the same order — and on windowed stores so does
// the current bucket. Both orders hold: batches over BatchKeys all go
// direct, and batches that fit are drained by a read before the buffer
// would overflow. Batches alternate Ingest and IngestHashed. The
// rotated cases advance the clock one interval after a read barrier,
// so the total and the bucket that goes live then — ring mates in
// different states sharing each drain's hashing — are each checked
// against their own reference: the total against every batch, the
// bucket against the batches since the rotation.
func TestLoneWriterIdentity(t *testing.T) {
	for _, kind := range []knw.Kind{knw.KindF0, knw.KindL0} {
		for _, windowed := range []bool{false, true} {
			for _, tc := range []struct {
				name      string
				size, per int // batch size; batches per read barrier
				rotate    int // batch before which the clock moves on; 0 for never
			}{
				{"direct", BatchKeys + 904, 0, 0},
				{"buffered", 1000, BatchKeys / 1000, 0},
				{"direct/rotated", BatchKeys + 904, 0, 8},
				{"buffered/rotated", 1000, BatchKeys / 1000, 8},
			} {
				t.Run(fmt.Sprintf("%s/windowed=%v/%s", kind, windowed, tc.name), func(t *testing.T) {
					now := time.Unix(1_700_000_000, 0)
					cfg := Config{
						Kind:          kind,
						Options:       []knw.Option{knw.WithEpsilon(0.2), knw.WithSeed(3)},
						Now:           func() time.Time { return now },
						EpochInterval: -1,
					}
					if windowed {
						cfg.Window = Window{Buckets: 3, Interval: time.Minute}
					}
					s, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					ref, refBucket := s.newSketch(), s.newSketch()
					for b := 0; b < 12; b++ {
						if tc.rotate > 0 && b == tc.rotate {
							now = now.Add(time.Minute)
							refBucket = s.newSketch()
						}
						batch := keys("k", b*tc.size, (b+1)*tc.size)
						hashed := make([]uint64, len(batch))
						for i, k := range batch {
							hashed[i] = s.HashKey(k)
						}
						if b%2 == 0 {
							err = s.Ingest("t/m", batch)
						} else {
							err = s.IngestHashed("t/m", hashed)
						}
						if err != nil {
							t.Fatal(err)
						}
						ref.AddBatch(hashed)
						refBucket.AddBatch(hashed)
						if tc.per > 0 && (b+1)%tc.per == 0 {
							if _, err := s.Estimate("t/m"); err != nil {
								t.Fatal(err)
							}
						}
					}
					want := appendSketch(nil, ref)
					got, err := s.Snapshot("t/m", nil)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) {
						t.Error("total differs from one sketch fed the same batches")
					}
					if !windowed {
						return
					}
					e, _ := s.lookup("t/m", false)
					e.mu.Lock()
					bucket := appendSketch(nil, e.window.current())
					e.mu.Unlock()
					if !bytes.Equal(bucket, appendSketch(nil, refBucket)) {
						t.Error("current bucket differs from one sketch fed the same batches")
					}
				})
			}
		}
	}
}
