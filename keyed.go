package knw

import "sync"

// Keyed is the typed front door to any Estimator: it hashes caller
// keys (strings, byte slices, or pre-hashed uint64s) into the wrapped
// sketch's key universe and forwards through the batch pipeline, so
// callers stop hand-rolling string→uint64 shims per sketch type.
//
//	sk := knw.NewF0(knw.WithSeed(1))
//	users := knw.NewKeyed[string](sk)
//	users.Add("alice")
//	users.AddBatch([]string{"bob", "carol"})
//	fmt.Println(users.Estimate())
//
// A Keyed is exactly as goroutine-safe as the estimator it wraps (the
// batch scratch is pooled, not shared). F0 and L0 are not, so give each
// writer its own Keyed over its own same-seed sketch and merge the
// sketches. (The store package takes the other route: its delta slots
// buffer each writer's hashed keys for the entry's sketches.)
//
// The default hasher is the documented seeded hash of hasher.go,
// picking up the wrapped sketch's seed and universe width so that two
// Keyed sketches over same-seed sketches hash identically — which is
// what makes their underlying sketches mergeable and their
// checkpoints interchangeable. Supplying WithKeyHasher replaces it;
// the replacement then carries the same burden (determinism, universe
// fold) itself.
type Keyed[K Key] struct {
	est    Estimator
	turn   TurnstileEstimator // non-nil iff est supports deletions
	hasher Hasher[K]

	// scratch pools hash buffers for AddBatch/UpdateBatch so the
	// batched path stays allocation-free in steady state and safe for
	// concurrent use when the wrapped estimator is.
	scratch sync.Pool
}

// KeyedOption configures a Keyed estimator.
type KeyedOption[K Key] func(*Keyed[K])

// WithKeyHasher replaces the default hasher. The hasher must be
// deterministic and fold into the wrapped sketch's universe; see
// Hasher.
func WithKeyHasher[K Key](h Hasher[K]) KeyedOption[K] {
	return func(k *Keyed[K]) { k.hasher = h }
}

// seeded and universeSized are the optional introspection interfaces
// the default hasher derives its parameters from. All sketches in this
// package implement both; foreign estimators fall back to seed 0 and
// the full 64-bit universe.
type seeded interface{ Seed() int64 }
type universeSized interface{ UniverseBits() uint }

// NewKeyed wraps est with a typed-key front-end. If est also
// implements TurnstileEstimator (L0), the returned Keyed
// supports Update/UpdateBatch; otherwise those methods panic.
func NewKeyed[K Key](est Estimator, opts ...KeyedOption[K]) *Keyed[K] {
	k := &Keyed[K]{est: est}
	k.turn, _ = est.(TurnstileEstimator)
	for _, o := range opts {
		o(k)
	}
	if k.hasher == nil {
		var seed int64
		bits := uint(64)
		if s, ok := est.(seeded); ok {
			seed = s.Seed()
		}
		if u, ok := est.(universeSized); ok {
			bits = u.UniverseBits()
		}
		k.hasher = NewHasher[K](seed, bits)
	}
	k.scratch.New = func() any { return new([]uint64) }
	return k
}

// Add records one element.
func (k *Keyed[K]) Add(key K) { k.est.Add(k.hasher.Hash(key)) }

// AddBatch records the keys as if Add had been called on each in
// order, hashing the whole batch up front and feeding the wrapped
// estimator's batch path (one shard-lock acquisition per shard per
// batch on the concurrent wrappers, pipelined hash evaluation on the
// cores).
func (k *Keyed[K]) AddBatch(keys []K) {
	if len(keys) == 0 {
		return
	}
	buf := k.hashBatch(keys)
	k.est.AddBatch(*buf)
	k.putScratch(buf)
}

// Update applies x_key ← x_key + delta. It panics unless the wrapped
// estimator is a TurnstileEstimator (use Turnstile to probe).
func (k *Keyed[K]) Update(key K, delta int64) {
	if k.turn == nil {
		panic("knw: Update on a Keyed estimator that does not support deletions (wrap an L0)")
	}
	k.turn.Update(k.hasher.Hash(key), delta)
}

// UpdateBatch applies the updates as if Update had been called on each
// (key, delta) pair in order. A nil deltas slice means every delta is
// +1; otherwise len(deltas) must equal len(keys). It panics unless the
// wrapped estimator is a TurnstileEstimator.
func (k *Keyed[K]) UpdateBatch(keys []K, deltas []int64) {
	if k.turn == nil {
		panic("knw: UpdateBatch on a Keyed estimator that does not support deletions (wrap an L0)")
	}
	if deltas != nil && len(deltas) != len(keys) {
		panic("knw: UpdateBatch length mismatch")
	}
	if len(keys) == 0 {
		return
	}
	buf := k.hashBatch(keys)
	k.turn.UpdateBatch(*buf, deltas)
	k.putScratch(buf)
}

// hashBatch hashes keys into a pooled scratch slice.
func (k *Keyed[K]) hashBatch(keys []K) *[]uint64 {
	buf := k.scratch.Get().(*[]uint64)
	if cap(*buf) < len(keys) {
		*buf = make([]uint64, len(keys))
	}
	*buf = (*buf)[:len(keys)]
	h := k.hasher
	for i, key := range keys {
		(*buf)[i] = h.Hash(key)
	}
	return buf
}

func (k *Keyed[K]) putScratch(buf *[]uint64) {
	k.scratch.Put(buf)
}

// Estimate reports the wrapped estimator's current estimate.
func (k *Keyed[K]) Estimate() float64 { return k.est.Estimate() }

// SpaceBits reports the wrapped estimator's accounted state.
func (k *Keyed[K]) SpaceBits() int { return k.est.SpaceBits() }

// Name labels the estimator in experiment tables.
func (k *Keyed[K]) Name() string { return k.est.Name() }

// Turnstile reports whether Update/UpdateBatch are available (the
// wrapped estimator supports deletions).
func (k *Keyed[K]) Turnstile() bool { return k.turn != nil }

// Hasher returns the hasher in use, e.g. to pre-hash keys on the
// sending side of an ingestion pipeline and ship uint64s.
func (k *Keyed[K]) Hasher() Hasher[K] { return k.hasher }

// Unwrap returns the wrapped estimator, e.g. to Merge it, marshal it,
// or read a type-specific surface (EstimateErr, Copies, …).
func (k *Keyed[K]) Unwrap() Estimator { return k.est }
