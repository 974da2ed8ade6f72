package store

import (
	"runtime"
	"sync/atomic"
	"time"

	knw "repro"
)

// Epoch-based lock-free ingest.
//
// The KNW sketches merge exactly (max for F0 counters, linear sum for
// L0), so ingestion needs no shared state: each writer accumulates
// into a private delta sketch and publishes by merge, and the merged
// result is byte-identical to a single sketch that saw the union
// stream — the (ε, δ) bound is untouched. This is the store's only
// write-concurrency mechanism: every sketch in it is a plain F0 or L0.
// Each entry has a small fixed array of delta slots (GOMAXPROCS+1, so
// a writer always finds a free slot even while the drainer holds one):
//
//   - Ingest/IngestHashed claim the lowest free slot with one CAS
//     (free → busy), append the batch to the slot's private sketch,
//     bump the entry's pending count, release the slot, and mark the
//     entry dirty. No mutex, no contention except slot-claim CAS
//     traffic. Slot sketches are built on first claim, so an entry
//     holds one per writer that actually overlapped another (or a
//     drain), not one per slot: a single writer only ever uses slot 0.
//   - A background epoch loop (Config.EpochInterval) walks the dirty
//     list and drains each entry under its mutex: every slot is
//     claimed, merged into the canonical total + current window
//     bucket, reset, and released.
//   - Reads (Estimate, Snapshot, WindowSnapshot, checkpoint capture)
//     drain on demand before reading, so a reader always observes its
//     own completed writes — read-your-writes within one epoch — and
//     snapshots/checkpoints never miss pending keys.
//
// Ordering argument (why no key is ever stranded): a writer's order is
// slot-write → pending.Add → slot-release → markDirty; the drainer
// clears the entry's queued flag before draining. If the writer's
// markDirty lands before the clear, the drain that follows claims the
// slot and (because pending.Add preceded markDirty) sees the keys. If
// it lands after, the entry simply re-queues for the next epoch. The
// slot CAS pair (release in the writer, claim in the drainer) carries
// the happens-before edge that makes the slot sketch's contents
// visible to the drainer.
//
// Window-bucket attribution happens at drain time: the ring first
// rotates to the entry's last write stamp, then the deltas merge into
// the bucket current at that stamp. A key's attribution can therefore
// skew by at most the span between its write and the entry's last
// write before the next drain — bounded by one epoch interval (or one
// read barrier, whichever comes first), far below any sane bucket
// width.
//
// Drain policy (persistent vs reset slots): the F0 kinds pay a steep
// "early life" per sketch — until the rough estimator lifts the
// subsampling offset, every key costs a packed-counter read — and a
// slot that is reset after each drain replays that cost every epoch,
// forever. F0 merges are max/union on every component (counters,
// rough estimator, small-F0 set), so re-merging an un-reset slot is
// idempotent: on unwindowed non-turnstile stores the slots therefore
// persist across drains, mature like any long-lived sketch, and reach
// the raw AddBatch floor. Final counter values are path-independent
// under offset rebasing (a key's contribution at final offset b is
// max(lvl−b, dropped) no matter when b advanced), so the merged total
// is byte-identical to single-sketch ingest either way. Turnstile (L0)
// kinds merge by linear sum — re-merge double-counts — and window
// buckets need true per-epoch deltas, so those stores reset each slot
// after draining it. State-replacing operations (Restore, checkpoint
// install) discard persistent slots outright: their history is merged
// into the outgoing total, and must not resurface in the new one.

// defaultEpochInterval is the background drain cadence when
// Config.EpochInterval is zero and the store uses the real clock.
const defaultEpochInterval = 10 * time.Millisecond

// Adaptive flush floor: draining an entry costs a fixed O(K·copies)
// sketch merge per slot no matter how few keys are pending, so epoch
// ticks skip entries whose backlog is too small to amortize it. The
// floor self-tunes from observed drain latency — expensive sketches
// (small ε, many copies) push it up, cheap ones pull it down — between
// a minimum that keeps small configs fresh and a maximum that bounds
// how much an op-visible gauge can lag. Entries older than
// maxEpochAge drain regardless, so a trickle-rate store is never more
// than a second stale; read barriers, Flush, and Close ignore the
// floor entirely.
const (
	flushFloorMin    = 4 << 10
	flushFloorMax    = 512 << 10
	flushBudget      = 2 * time.Millisecond
	maxEpochAge      = time.Second
	flushFloorShrink = flushBudget / 8
)

// Slot claim states.
const (
	slotFree int32 = iota
	slotBusy
)

// deltaSlot is one private ingest accumulator. The state word is the
// only cross-goroutine field; everything else is owned by whoever
// holds the slot. The pad keeps neighboring slots off one cache line
// so claim CAS traffic on slot i does not bounce slot i+1.
type deltaSlot struct {
	state   atomic.Int32
	sk      knw.Estimator      // lazily built, store-compatible delta
	keyed   *knw.Keyed[string] // typed front-end over sk
	pending int                // keys in sk not yet drained
	_       [96]byte
}

// claim acquires the lowest free slot, so higher slots (and their
// sketches) come into use only while lower ones are busy. A busy slot
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

// drainLocked merges every pending delta slot into the entry's
// canonical total and current window bucket. Callers hold e.mu. It
// returns the number of keys drained.
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
		if sl.pending > 0 {
			if err := knw.MergeInto(e.total, sl.sk); err != nil {
				sl.release()
				// Slots are built from the store's pinned options; a
				// mismatch is a program bug, not foreign input.
				panic("store: delta slot diverged from entry: " + err.Error())
			}
			if e.window != nil {
				if err := knw.MergeInto(e.window.current(), sl.sk); err != nil {
					sl.release()
					panic("store: delta slot diverged from window: " + err.Error())
				}
			}
			drained += sl.pending
			sl.pending = 0
			if !s.persistSlots {
				resetSketch(&sl.sk, &sl.keyed)
			}
		}
		sl.release()
	}
	if drained > 0 {
		e.pending.Add(int64(-drained))
		s.pendingKeys.Add(int64(-drained))
		e.version.Add(1) // the epoch flush is the versioning quantum
	}
	e.lastDrain.Store(time.Now().UnixNano())
	return drained
}

// discardSlotsLocked empties every delta slot without merging, for
// state-replacing operations (Restore, checkpoint install) that have
// already drained: persistent slots hold the entry's full ingest
// history, which must not be re-merged into the replacement state on a
// later drain. Keys a racing writer parked after the caller's drain
// are dropped with the old state — the write was concurrent with the
// replacement, so either order is correct. Callers hold e.mu.
func (s *Store) discardSlotsLocked(e *entry) {
	for i := range e.slots {
		sl := &e.slots[i]
		for !sl.state.CompareAndSwap(slotFree, slotBusy) {
			runtime.Gosched()
		}
		if sl.pending > 0 {
			e.pending.Add(int64(-sl.pending))
			s.pendingKeys.Add(int64(-sl.pending))
			sl.pending = 0
		}
		resetSketch(&sl.sk, &sl.keyed)
		sl.release()
	}
}

// resetSketch empties a slot sketch for reuse, preserving its hash
// draws (Reset) so the slot stays mergeable; kinds without Reset are
// rebuilt lazily on the next claim.
func resetSketch(sk *knw.Estimator, keyed **knw.Keyed[string]) {
	if r, ok := (*sk).(interface{ Reset() }); ok {
		r.Reset()
		return
	}
	*sk = nil
	*keyed = nil
}

// Flush drains every dirty entry now — the barrier Close and tests
// use. Safe to call concurrently with ingest and reads.
func (s *Store) Flush() { s.flush(true) }

// flush drains the dirty list; without force it is the epoch-tick
// body and applies the adaptive floor — entries with too small a
// backlog (and a recent enough last drain) stay queued for a later
// tick instead of paying a full sketch merge now.
func (s *Store) flush(force bool) {
	s.dirtyMu.Lock()
	work := s.dirty
	s.dirty = nil
	s.dirtyMu.Unlock()
	var deferred []*entry
	floor := s.flushFloor.Load()
	for _, e := range work {
		if !force && e.pending.Load() < floor &&
			time.Since(time.Unix(0, e.lastDrain.Load())) < maxEpochAge {
			// Still queued (e.queued stays true, so markDirty won't
			// double-append); goes back on the list below.
			deferred = append(deferred, e)
			continue
		}
		// Clear queued before draining: a writer that marks after this
		// re-queues the entry; one that marked before is drained here.
		e.queued.Store(false)
		start := time.Now()
		e.mu.Lock()
		n := s.drainLocked(e)
		e.mu.Unlock()
		if n > 0 {
			d := time.Since(start)
			s.met.flushSeconds.Observe(d.Seconds())
			s.met.stageMerge.Observe(d.Seconds())
			s.met.flushes.Inc()
			s.adaptFloor(d)
		}
		if e.pending.Load() > 0 {
			s.markDirty(e) // writer raced the drain; catch it next epoch
		}
	}
	if len(deferred) > 0 {
		s.dirtyMu.Lock()
		s.dirty = append(s.dirty, deferred...)
		s.dirtyMu.Unlock()
	}
	s.lastFlush.Store(time.Now().UnixNano())
}

// adaptFloor is the AIMD-ish floor controller: a drain that blew the
// budget doubles the floor (batch more before the next fixed-cost
// merge), a drain far under it halves the floor (freshness is cheap
// here). Lost updates under concurrent drains just slow convergence.
func (s *Store) adaptFloor(d time.Duration) {
	floor := s.flushFloor.Load()
	switch {
	case d > flushBudget && floor < flushFloorMax:
		s.flushFloor.CompareAndSwap(floor, min(2*floor, flushFloorMax))
	case d < flushFloorShrink && floor > flushFloorMin:
		s.flushFloor.CompareAndSwap(floor, max(floor/2, flushFloorMin))
	}
}

// run is the background epoch loop.
func (s *Store) run(interval time.Duration) {
	defer close(s.loopDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.flush(false)
		case <-s.stop:
			s.Flush()
			return
		}
	}
}

// Close stops the epoch loop (when one is running) after a final
// flush. The store remains usable — ingest keeps accumulating deltas
// and read barriers keep draining them — only the background cadence
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
