package knw

// This file defines the package's unifying interfaces. Every sketch in
// the library — F0, L0, and the Figure 1 comparators in
// internal/baseline — presents the same ingestion and
// reporting surface, so harnesses, pipelines, and storage layers can be
// written once and swept across implementations.

// Estimator is the uniform interface over every insertion-stream
// cardinality sketch in this module. It extends the scalar surface the
// experiment harness has always used (Add/Estimate/SpaceBits/Name)
// with batched ingestion: AddBatch must be equivalent to calling Add
// on each key in order, but lets implementations amortize per-call
// overhead — hash pipelining in the core sketches.
type Estimator interface {
	// Add records one stream element.
	Add(key uint64)
	// AddBatch records the keys as if Add had been called on each in
	// order. For the deterministic sketches in this module the
	// resulting state is byte-identical (under MarshalBinary) to the
	// sequential-Add state.
	AddBatch(keys []uint64)
	// Estimate returns the current estimate (NaN if every internal
	// copy has failed; see the concrete types' EstimateErr).
	Estimate() float64
	// SpaceBits returns the accounted size of the sketch's state.
	SpaceBits() int
	// Name identifies the sketch in experiment tables.
	Name() string
}

// TurnstileEstimator is an Estimator over turnstile streams: elements
// carry signed frequency deltas and a fully deleted element stops
// counting. Add/AddBatch are the all-deltas-+1 special case, as the
// paper notes when relating F0 to L0.
type TurnstileEstimator interface {
	Estimator
	// Update applies x_key ← x_key + delta.
	Update(key uint64, delta int64)
	// UpdateBatch applies the updates as if Update had been called on
	// each (key, delta) pair in order. A nil deltas slice means every
	// delta is +1; otherwise len(deltas) must equal len(keys).
	UpdateBatch(keys []uint64, deltas []int64)
}

// Mergeable is implemented by sketches that can fold a same-configured,
// same-seed peer into themselves so the receiver reflects the union
// (F0) or sum (L0) of both streams. Merging is the library's
// scale-out primitive: disjoint substreams are ingested by independent
// sketches — goroutines, processes, or machines — and folded at read
// time.
type Mergeable[T any] interface {
	Merge(other T) error
}

// Compile-time interface conformance for every public sketch.
var (
	_ Estimator          = (*F0)(nil)
	_ TurnstileEstimator = (*L0)(nil)
	_ Mergeable[*F0]     = (*F0)(nil)
	_ Mergeable[*L0]     = (*L0)(nil)
)
