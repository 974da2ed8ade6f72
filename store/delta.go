package store

import (
	"runtime"
	"sync/atomic"
	"time"

	knw "repro"
	"repro/internal/metrics"
)

// Epoch-based lock-free ingest.
//
// Each entry holds exactly the sketches it reports from: the all-time
// total and, on windowed stores, the ring's buckets. Every key reaches
// them through AddBatch, so the total is one sketch fed the arrival
// stream — the paper's algorithm with its (ε, δ) bound. Ingest is
// lock-free through a small fixed array of delta slots per entry
// (GOMAXPROCS+1, so a writer always finds a free slot even while the
// drainer holds one), each a bounded buffer of hashed keys:
//
//   - Ingest/IngestHashed claim the lowest free slot with one CAS
//     (free → busy). When the batch fits the slot's free space
//     (BatchKeys in all), the writer hashes or copies it into the
//     buffer, bumps the entry's pending count, releases the slot, and
//     marks the entry dirty — no mutex. Buffers are taken from a
//     store-wide pool on first append and returned by the drain, so an
//     idle entry holds none.
//   - A batch that does not fit is applied by its writer: it releases
//     the slot, takes the entry mutex, rotates the window to the store
//     clock, and feeds its own batch to the total and the current
//     bucket. Buffered keys stay put for the drain, so the request
//     path does at most one batch of sketch work, and that batch
//     reaches the total before the keys buffered ahead of it.
//   - A background epoch loop (Config.EpochInterval) walks the dirty
//     list and drains each entry under its mutex: every slot is
//     claimed, its keys are fed to the total and the current window
//     bucket, its buffer goes back to the pool, and it is released.
//   - Reads (Estimate, Snapshot, WindowSnapshot, checkpoint capture)
//     drain on demand before reading, so a reader always observes its
//     own completed writes — read-your-writes within one epoch — and
//     snapshots/checkpoints never miss pending keys.
//
// Lock order: a writer never waits for the entry mutex while it holds
// a slot; the drainer holds the mutex and spins on busy slots. Each
// side therefore waits only on work the other finishes unconditionally.
//
// Ordering argument (why no key is ever stranded): a writer's order is
// slot-write → pending.Add → slot-release → markDirty; the drainer
// clears the entry's queued flag before draining. If the writer's
// markDirty lands before the clear, the drain that follows claims the
// slot and (because pending.Add preceded markDirty) sees the keys. If
// it lands after, the entry simply re-queues for the next epoch. The
// slot CAS pair (release in the writer, claim in the drainer) carries
// the happens-before edge that makes the buffered keys visible to the
// drainer.
//
// Window-bucket attribution happens at drain time: the ring first
// rotates to the entry's last write stamp, then the buffered keys go
// to the bucket current at that stamp. A key's attribution can
// therefore skew by at most the span between its write and the
// entry's last write before the next drain — bounded by one epoch
// interval (or one read barrier, whichever comes first), far below any
// sane bucket width.
//
// Byte identity: F0 envelope bytes depend on the order keys arrive in
// (two orders of one key set give different bytes and equal
// estimates), so the total is byte-identical to a single sketch fed
// the same batches in the order they reached it. For a lone writer in
// the deterministic regime (no epoch loop, fake clock) that is its own
// batch order whenever reads drain before a buffer would overflow, or
// whenever every batch overflows and goes direct.

// BatchKeys bounds one delta slot's key buffer (4096 keys, 32 KiB). It
// is also the batch size the service's ingest codecs and the cluster
// forwarder flush at, so one flushed batch fits one empty slot.
const BatchKeys = 4096

// defaultEpochInterval is the background drain cadence when
// Config.EpochInterval is zero and the store uses the real clock.
const defaultEpochInterval = 10 * time.Millisecond

// Slot claim states.
const (
	slotFree int32 = iota
	slotBusy
)

// keyBuf is one pooled slot buffer.
type keyBuf = [BatchKeys]uint64

// deltaSlot is one private ingest buffer. The state word is the only
// cross-goroutine field; keys is owned by whoever holds the slot. The
// pad keeps neighboring slots off one cache line so claim CAS traffic
// on slot i does not bounce slot i+1.
type deltaSlot struct {
	state atomic.Int32
	keys  []uint64 // hashed keys not yet drained; nil when empty
	_     [96]byte
}

// claim acquires the lowest free slot, so higher slots (and their
// buffers) come into use only while lower ones are busy. A busy slot
// is skipped on a plain load, keeping the CAS off contended lines, and
// the claimer yields once per full sweep so a spin under
// oversubscription cannot starve the slot holders.
func (e *entry) claim() *deltaSlot {
	for {
		for i := range e.slots {
			sl := &e.slots[i]
			if sl.state.Load() == slotFree && sl.state.CompareAndSwap(slotFree, slotBusy) {
				return sl
			}
		}
		runtime.Gosched()
	}
}

// release publishes the slot's contents (atomic store pairs with the
// next claim's CAS).
func (sl *deltaSlot) release() { sl.state.Store(slotFree) }

// slotsPerEntry sizes the delta set: one slot per P plus one spare so
// writers never wait on the drainer.
func slotsPerEntry() int { return runtime.GOMAXPROCS(0) + 1 }

// getBuf returns an empty pooled slot buffer.
func (s *Store) getBuf() []uint64 {
	if b, ok := s.bufs.Get().(*keyBuf); ok {
		return b[:0]
	}
	return new(keyBuf)[:0]
}

// putBuf hands a slot buffer back to the pool.
func (s *Store) putBuf(keys []uint64) { s.bufs.Put((*keyBuf)(keys[:BatchKeys])) }

// appendKeys appends a batch to dst: strs hashed through the store's
// pinned hasher, or hashed copied as is.
func (s *Store) appendKeys(dst []uint64, strs []string, hashed []uint64) []uint64 {
	for _, k := range strs {
		dst = append(dst, s.hasher.Hash(k))
	}
	return append(dst, hashed...)
}

// applyLocked feeds keys to the entry's total and, on windowed stores,
// the current bucket, in one pass: the two share settings and seed, so
// knw.AddBatchAll hashes each key once for both. Callers hold e.mu and
// have rotated the ring.
func (e *entry) applyLocked(keys []uint64) {
	targets := [2]knw.Estimator{e.total}
	n := 1
	if e.window != nil {
		targets[1] = e.window.current()
		n = 2
	}
	knw.AddBatchAll(keys, targets[:n]...)
}

// ingest is the shared body of Ingest and IngestHashed: exactly one of
// strs and hashed is used. stage times the hash or append work.
func (s *Store) ingest(name string, strs []string, hashed []uint64, stage *metrics.Histogram) error {
	e, err := s.lookup(name, true)
	if err != nil {
		return err
	}
	n := len(strs) + len(hashed)
	if n == 0 {
		return nil
	}
	var stamp int64
	if e.window != nil {
		stamp = s.now().UnixNano()
		e.writeStamp.Store(stamp)
	}
	// Stage attribution costs three clock reads per batch — amortized
	// over thousands of keys — and only when a stage vec is configured,
	// so library users and microbenchmarks pay nothing.
	var t0, t1 time.Time
	timed := s.met.stageClaim != nil
	if timed {
		t0 = time.Now()
	}
	sl := e.claim()
	if timed {
		t1 = time.Now()
	}
	if len(sl.keys)+n <= BatchKeys {
		if sl.keys == nil {
			sl.keys = s.getBuf()
		}
		sl.keys = s.appendKeys(sl.keys, strs, hashed)
		e.pending.Add(int64(n))
		s.pendingKeys.Add(int64(n))
		sl.release()
		s.markDirty(e)
	} else {
		sl.release()
		s.ingestDirect(e, strs, hashed, stamp)
	}
	if timed {
		t2 := time.Now()
		s.met.stageClaim.Observe(t1.Sub(t0).Seconds())
		stage.Observe(t2.Sub(t1).Seconds())
	}
	s.met.ingestedKeys.Add(uint64(n))
	return nil
}

// ingestDirect applies a batch that did not fit its slot straight to
// the entry's sketches. Only this batch is applied: keys already
// buffered wait for the drain.
func (s *Store) ingestDirect(e *entry, strs []string, hashed []uint64, stamp int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.window != nil {
		s.met.rotations.Add(uint64(e.window.rotate(time.Unix(0, stamp))))
	}
	if strs == nil {
		e.applyLocked(hashed)
	} else {
		buf := s.getBuf()
		for len(strs) > 0 {
			chunk := strs[:min(len(strs), BatchKeys)]
			strs = strs[len(chunk):]
			e.applyLocked(s.appendKeys(buf[:0], chunk, nil))
		}
		s.putBuf(buf)
	}
	e.version.Add(1)
}

// markDirty queues e for the next epoch drain. Only the 0→dirty
// transition touches the shared list, so steady-state ingest pays one
// atomic swap here.
func (s *Store) markDirty(e *entry) {
	if e.queued.Swap(true) {
		return
	}
	s.dirtyMu.Lock()
	if len(s.dirty) == 0 {
		s.dirtySince.Store(time.Now().UnixNano())
	}
	s.dirty = append(s.dirty, e)
	s.dirtyMu.Unlock()
}

// drainLocked feeds every slot's buffered keys to the entry's total
// and current window bucket and returns the buffers to the pool.
// Callers hold e.mu. It returns the number of keys drained.
func (s *Store) drainLocked(e *entry) int {
	if e.pending.Load() == 0 {
		return 0
	}
	if e.window != nil {
		// Rotate to the time of the last windowed write, not to now:
		// pending keys belong to the bucket that was current when they
		// were written, and a read after a long idle gap must find them
		// in a bucket old enough to expire. Readers rotate to their own
		// clock after the drain.
		s.met.rotations.Add(uint64(e.window.rotate(time.Unix(0, e.writeStamp.Load()))))
	}
	drained := 0
	for i := range e.slots {
		sl := &e.slots[i]
		// Wait out a writer mid-batch: its keys were written before any
		// barrier-triggering read returned, so taking them now keeps
		// read-your-writes exact rather than approximate.
		for !sl.state.CompareAndSwap(slotFree, slotBusy) {
			runtime.Gosched()
		}
		// Holding the slot while its keys are applied sends a writer
		// that arrives meanwhile to the next free slot, where its batch
		// is buffered, rather than to the direct path.
		if keys := sl.keys; keys != nil {
			e.applyLocked(keys)
			drained += len(keys)
			s.putBuf(keys)
			sl.keys = nil
		}
		sl.release()
	}
	if drained > 0 {
		e.pending.Add(int64(-drained))
		s.pendingKeys.Add(int64(-drained))
		e.version.Add(1) // the epoch flush is the versioning quantum
	}
	return drained
}

// Flush drains every dirty entry now — the epoch tick's body, and the
// barrier Close and tests use. Safe to call concurrently with ingest
// and reads.
func (s *Store) Flush() {
	s.dirtyMu.Lock()
	work := s.dirty
	s.dirty = nil
	s.dirtyMu.Unlock()
	for _, e := range work {
		// Clear queued before draining: a writer that marks after this
		// re-queues the entry; one that marked before is drained here.
		e.queued.Store(false)
		start := time.Now()
		e.mu.Lock()
		n := s.drainLocked(e)
		e.mu.Unlock()
		if n > 0 {
			d := time.Since(start).Seconds()
			s.met.flushSeconds.Observe(d)
			s.met.stageMerge.Observe(d)
			s.met.flushes.Inc()
		}
		if e.pending.Load() > 0 {
			s.markDirty(e) // writer raced the drain; catch it next epoch
		}
	}
	s.lastFlush.Store(time.Now().UnixNano())
}

// run is the background epoch loop.
func (s *Store) run(interval time.Duration) {
	defer close(s.loopDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.Flush()
		case <-s.stop:
			s.Flush()
			return
		}
	}
}

// Close stops the epoch loop (when one is running) after a final
// flush. The store remains usable — ingest keeps buffering keys and
// read barriers keep draining them — only the background cadence
// stops. Close is idempotent.
func (s *Store) Close() {
	s.closeOnce.Do(func() {
		if s.stop != nil {
			close(s.stop)
			<-s.loopDone
			return
		}
		s.Flush()
	})
}

// PendingKeys reports the keys written but not yet drained into
// canonical sketches, across all entries (the epoch backlog).
func (s *Store) PendingKeys() int64 { return s.pendingKeys.Load() }
