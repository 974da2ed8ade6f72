package store

import (
	"time"

	knw "repro"
)

// windowRing is one entry's time-bucketed window state: a ring of N
// same-seed sketches, each receiving the keys that arrive during one
// Interval-wide slice of wall time. Rotation is lazy — ingest and
// estimate advance the ring to the caller's clock before touching it —
// so an idle store pays nothing and no background goroutine is needed.
//
// The windowed estimate is the merge of all N buckets into a scratch
// sketch. Because every bucket shares the store's options and seed,
// their hash functions coincide and the merge is a sketch of the union
// of the buckets' streams. L0 counters sum linearly, so a merged L0
// equals the sketch that ingested the union. F0 counters take
// per-counter maxima: the result is a valid KNW sketch of the union
// with the same (ε, δ) guarantee (TestEpsilonDeltaGuaranteeRebalance
// checks merged F0s statistically), but neither its bytes nor its
// estimate need match whole-stream ingest. Keys seen in several buckets
// count once — union semantics, not sum of per-bucket counts.
//
// All methods are called with the owning entry's mutex held.
type windowRing struct {
	buckets  []knw.Estimator
	interval time.Duration
	started  bool
	epoch    int64 // interval index of the current bucket
	cur      int   // ring index of the current bucket
	scratch  knw.Estimator
	fresh    func() knw.Estimator
}

func newWindowRing(cfg Window, fresh func() knw.Estimator) *windowRing {
	w := &windowRing{
		buckets:  make([]knw.Estimator, cfg.Buckets),
		interval: cfg.Interval,
		fresh:    fresh,
	}
	for i := range w.buckets {
		w.buckets[i] = fresh()
	}
	return w
}

// current returns the bucket receiving writes now. Callers rotate
// first.
func (w *windowRing) current() knw.Estimator { return w.buckets[w.cur] }

// rotate advances the ring to now's interval index, recycling one
// bucket per elapsed interval (all of them after a gap of ≥ N
// intervals). Buckets are recycled with Reset, which keeps their hash
// draws, so a recycled bucket stays mergeable with its ring mates. It
// returns the number of buckets recycled (the store's rotation
// metric).
func (w *windowRing) rotate(now time.Time) int {
	e := now.UnixNano() / int64(w.interval)
	if !w.started {
		w.started = true
		w.epoch = e
		return 0
	}
	steps := e - w.epoch
	if steps <= 0 {
		// Same interval, or a clock step backwards: keep writing to the
		// current bucket rather than resurrecting expired ones.
		return 0
	}
	n := int64(len(w.buckets))
	if steps > n {
		steps = n
	}
	for i := int64(0); i < steps; i++ {
		w.cur = (w.cur + 1) % len(w.buckets)
		w.recycle(w.cur)
	}
	w.epoch = e
	return int(steps)
}

// recycle empties bucket i for reuse as the new current bucket.
func (w *windowRing) recycle(i int) {
	if r, ok := w.buckets[i].(interface{ Reset() }); ok {
		r.Reset()
		return
	}
	w.buckets[i] = w.fresh()
}

// bucketAt returns the bucket j intervals behind the current one
// (bucketAt(0) is the live bucket); it covers epoch − j. Callers
// rotate first and keep j < len(buckets).
func (w *windowRing) bucketAt(j int) knw.Estimator {
	n := len(w.buckets)
	return w.buckets[(w.cur-j+n)%n]
}

// view returns the ring's buckets oldest → newest with their epochs,
// aliasing the live sketches, so callers hold the entry lock while they
// use it. A ring that never rotated holds no keys and has no buckets to
// show.
func (w *windowRing) view() RingSnapshot {
	if !w.started {
		return RingSnapshot{}
	}
	n := len(w.buckets)
	out := RingSnapshot{Interval: w.interval, Buckets: make([]BucketSnapshot, n)}
	for j := 0; j < n; j++ {
		out.Buckets[n-1-j] = BucketSnapshot{Epoch: w.epoch - int64(j), Sketch: w.bucketAt(j)}
	}
	return out
}

// install replaces the ring with saved buckets, oldest → newest, the
// newest at epoch.
func (w *windowRing) install(epoch int64, buckets []knw.Estimator) {
	copy(w.buckets, buckets)
	w.cur = len(w.buckets) - 1
	w.epoch = epoch
	w.started = true
}

// merged folds the live ring into the scratch sketch and returns it —
// the union sketch over the trailing window. The scratch is reused
// across calls and is only valid until the next merged or mergedSpan
// call.
func (w *windowRing) merged() knw.Estimator { return w.mergedSpan(len(w.buckets)) }

// mergedSpan is merged restricted to the newest k buckets: the union
// sketch over the trailing k·interval span. Same scratch contract.
func (w *windowRing) mergedSpan(k int) knw.Estimator {
	if w.scratch == nil {
		w.scratch = w.fresh()
	}
	if r, ok := w.scratch.(interface{ Reset() }); ok {
		r.Reset()
	} else {
		w.scratch = w.fresh()
	}
	w.mergeSpanInto(w.scratch, k)
	return w.scratch
}

// mergeSpanInto merges the newest k buckets into dst, an empty sketch
// of the ring's construction.
func (w *windowRing) mergeSpanInto(dst knw.Estimator, k int) {
	for j := 0; j < k; j++ {
		if err := knw.MergeInto(dst, w.bucketAt(j)); err != nil {
			// Ring mates share construction by invariant; a mismatch
			// here is a program bug, not foreign input.
			panic("store: window bucket diverged from ring: " + err.Error())
		}
	}
}

// estimate reports the distinct count over the trailing window.
func (w *windowRing) estimate() float64 { return w.merged().Estimate() }

// spaceBits sums the ring's accounted state.
func (w *windowRing) spaceBits() int {
	total := 0
	for _, b := range w.buckets {
		total += b.SpaceBits()
	}
	return total
}
