package store

import (
	"fmt"
	"time"

	knw "repro"
)

// Query-side exports of the window ring: per-bucket cardinality
// time-series (Series) and the per-bucket sketches a peer needs to
// answer a cluster-wide series (RingSnapshot). Both rotate the ring
// to the store clock first, so answers never include expired buckets.

// SeriesPoint is one window bucket of a cardinality time-series.
type SeriesPoint struct {
	// Start/End delimit the wall-clock slice the bucket covers; Epoch
	// is its absolute interval index (Start = Epoch·interval). Epochs
	// are wall-aligned, so same-configured nodes bucket identically
	// and a cluster gather can union points epoch by epoch.
	Start time.Time `json:"start"`
	End   time.Time `json:"end"`
	Epoch int64     `json:"epoch"`
	// Estimate is the distinct count of keys that arrived during the
	// bucket's slice. The newest bucket is live and still filling.
	Estimate float64 `json:"estimate"`
}

// Series is a per-bucket cardinality time-series over the trailing
// window, plus the union estimate across the requested span and a
// rate-of-change reading for alerting.
type Series struct {
	Store    string `json:"store"`
	Sketch   string `json:"sketch"`
	Interval string `json:"interval"`
	// Span is the covered span k·interval for the clamped bucket
	// count k (see Store.Series).
	Span string `json:"span"`
	// Buckets runs oldest → newest; the last point is the live,
	// still-filling bucket.
	Buckets []SeriesPoint `json:"buckets"`
	// Window is the union estimate over the span's buckets — distinct
	// keys across the span, not the sum of per-bucket counts (keys
	// seen in several buckets count once).
	Window float64 `json:"window"`
	// Delta = newest bucket estimate − previous bucket estimate, and
	// RatePerSec = Delta / interval seconds: the rate-of-change signal
	// (a cardinality spike alert triggers on RatePerSec, e.g. a DDoS
	// source-address explosion). The newest bucket is still filling,
	// so a steady stream reads slightly negative until the bucket
	// closes.
	Delta      float64 `json:"delta"`
	RatePerSec float64 `json:"rate_per_sec"`
}

// Series reports the per-bucket cardinality time-series over the
// trailing span for a windowed store. The span is clamped to
// [interval, ring span] and rounded up to whole buckets
// (k = ⌈span/interval⌉); span ≤ 0 means the full ring. It returns
// ErrNotWindowed for unwindowed stores and ErrNotFound for
// never-written names.
func (s *Store) Series(name string, span time.Duration) (Series, error) {
	e, err := s.lookup(name, false)
	if err != nil {
		return Series{}, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.window == nil {
		return Series{}, fmt.Errorf("%w (%q)", ErrNotWindowed, name)
	}
	s.drainLocked(e) // read barrier: include acknowledged writes
	w := e.window
	s.met.rotations.Add(uint64(w.rotate(s.now())))
	k := SpanBuckets(span, w.interval, len(w.buckets))
	out := Series{
		Store:    name,
		Sketch:   e.total.Name(),
		Interval: w.interval.String(),
		Span:     (time.Duration(k) * w.interval).String(),
		Buckets:  make([]SeriesPoint, 0, k),
	}
	for j := k - 1; j >= 0; j-- {
		epoch := w.epoch - int64(j)
		start := time.Unix(0, epoch*int64(w.interval))
		out.Buckets = append(out.Buckets, SeriesPoint{
			Start:    start,
			End:      start.Add(w.interval),
			Epoch:    epoch,
			Estimate: w.bucketAt(j).Estimate(),
		})
	}
	out.Window = w.mergedSpan(k).Estimate()
	out.Delta = out.Buckets[len(out.Buckets)-1].Estimate - w.bucketAt(1).Estimate()
	out.RatePerSec = out.Delta / w.interval.Seconds()
	return out, nil
}

// SpanBuckets converts a requested span to a bucket count:
// ⌈span/interval⌉ clamped to [1, n], with span ≤ 0 meaning the full
// ring — the span-rounding rule Series applies, exported so the
// cluster series gather rounds identically.
func SpanBuckets(span, interval time.Duration, n int) int {
	if span <= 0 {
		return n
	}
	k := int((span + interval - 1) / interval)
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// BucketSnapshot is one live window bucket: its absolute interval
// index and its sketch — a copy of a local bucket, or a peer's decoded
// envelope.
type BucketSnapshot struct {
	Epoch  int64
	Sketch knw.Estimator
}

// RingSnapshot is the per-bucket export of a windowed entry — what a
// peer needs to answer a cluster-wide series: epochs are wall-aligned
// across same-configured nodes, so buckets union epoch by epoch.
// Buckets run oldest → newest at consecutive epochs; the sketches of a
// snapshot from Store.RingSnapshot or Store.OpenRing are caller-owned.
type RingSnapshot struct {
	Interval time.Duration
	Buckets  []BucketSnapshot
}

// RingSnapshot captures name's live window ring bucket by bucket,
// rotated to the store clock first: native copies of the bucket
// sketches, taken under the entry lock. Unlike WindowSnapshot (one
// merged envelope) it preserves bucket boundaries, at N sketches of
// cost; it exists for the cluster series gather, which reads the local
// ring in memory and ships AppendRingStream's bytes to peers.
func (s *Store) RingSnapshot(name string) (RingSnapshot, error) {
	e, err := s.lookup(name, false)
	if err != nil {
		return RingSnapshot{}, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.window == nil {
		return RingSnapshot{}, fmt.Errorf("%w (%q)", ErrNotWindowed, name)
	}
	s.drainLocked(e)
	s.met.rotations.Add(uint64(e.window.rotate(s.now())))
	out := e.window.view()
	for i, b := range out.Buckets {
		c, err := knw.Clone(b.Sketch)
		if err != nil {
			return RingSnapshot{}, err
		}
		out.Buckets[i].Sketch = c
	}
	return out, nil
}

// SetQuery copies each named store's sketch (all-time, or the union of
// the live window ring under windowed=true; CopySketch) and runs one
// inclusion–exclusion pass over the copies (knw.NewSetStats): the
// single-node answer behind GET /v1/query. Entry locks are taken one
// store at a time, so the sketches are a per-store-atomic (not
// cross-store-atomic) view, like any two independent reads.
func (s *Store) SetQuery(names []string, windowed bool) (knw.SetStats, error) {
	sketches := make([]knw.Estimator, 0, len(names))
	for _, name := range names {
		est, _, err := s.CopySketch(name, windowed, 0)
		if err != nil {
			return knw.SetStats{}, err
		}
		if est == nil {
			return knw.SetStats{}, fmt.Errorf("%w %q", ErrNotFound, name)
		}
		sketches = append(sketches, est)
	}
	return knw.NewSetStats(sketches...)
}
