// Package knw is a production-quality Go implementation of
//
//	Kane, Nelson, Woodruff.
//	"An Optimal Algorithm for the Distinct Elements Problem."
//	PODS 2010. doi:10.1145/1807085.1807094
//
// the first algorithm to estimate the number of distinct elements (F0)
// in a data stream using the optimal O(ε⁻² + log n) bits of space with
// O(1) worst-case update and reporting times, together with the
// paper's near-optimal L0 (Hamming norm) estimator for streams with
// deletions.
//
// # Quick start
//
//	sk := knw.NewF0(knw.WithEpsilon(0.05), knw.WithSeed(1))
//	for _, ip := range packets {
//		sk.Add(ip)
//	}
//	fmt.Printf("≈%.0f distinct\n", sk.Estimate())
//
// For turnstile streams (inserts and deletes):
//
//	hs := knw.NewL0(knw.WithEpsilon(0.1), knw.WithSeed(1))
//	hs.Update(key, +3)
//	hs.Update(key, -3) // fully deleted: no longer counts
//	fmt.Printf("≈%.0f nonzero coordinates\n", hs.Estimate())
//
// # Batched and concurrent ingestion
//
// Every sketch implements Estimator (see sketch.go): AddBatch (and
// UpdateBatch on the turnstile types) ingests keys in bulk with
// per-call overhead amortized, producing state byte-identical to
// sequential Add. A sketch is not safe for concurrent use. Because
// same-seed sketches merge (per-counter max for F0, linear sum for
// L0), concurrent writers need no shared state: each writer fills its
// own sketch built with the same options and seed, and Merge folds
// them at read time into one sketch of the union stream with the same
// (ε, δ) guarantee. A merged L0 equals the sketch that saw it all; a
// merged F0 is a valid sketch of the union, not a byte copy of it:
//
//	a := knw.NewF0(knw.WithSeed(1)) // writer 1's sketch
//	b := knw.NewF0(knw.WithSeed(1)) // writer 2's: same options and seed
//	go a.AddBatch(keysA)
//	go b.AddBatch(keysB)
//	// ... once both writers are done:
//	a.Merge(b) // a now summarizes keysA ∪ keysB
//
// The store package serves long-running services without merging:
// each concurrent writer buffers hashed keys in a private delta slot,
// and a background drain (and every read) feeds them to the store's
// one sketch with AddBatch (examples/pipeline).
// MarshalBinary / UnmarshalBinary checkpoint any sketch in a versioned
// wire format.
//
// # Typed keys, kinds, and the envelope
//
// Keyed[K] is the typed front door: it hashes string, []byte, or
// uint64 keys into the wrapped sketch's universe with a documented
// seeded hash (see hasher.go) and forwards through the batch pipeline:
//
//	users := knw.NewKeyed[string](knw.NewF0(knw.WithSeed(1)))
//	users.AddBatch([]string{"alice", "bob", "carol"})
//
// Kind names every implementation — the two sketch types plus the
// internal/baseline comparators — and New(kind, opts...) is the
// uniform factory. Every MarshalBinary wraps its payload in a
// self-describing envelope (kind tag + payload), and Open(data)
// restores the right concrete type from it; pre-envelope payloads and
// the retired sharded payloads still load. See README.md for the kind
// table and migration notes.
//
// # Set algebra across sketches
//
// Because same-seed sketches merge, a merged clone is an honest
// sketch of the union stream — and inclusion–exclusion derives
// the rest. Union, Intersection, Jaccard, Difference, and NewSetStats
// (setalgebra.go) answer set questions across 2–8 sketches without
// touching the originals; Hamming merges a sign-negated clone (L0
// kinds only) so matching counts cancel linearly:
//
//	st, _ := knw.NewSetStats(pageViewsA, pageViewsB)
//	fmt.Printf("J ≈ %.2f, |∩| ≈ %.0f ± %.0f\n",
//		st.Jaccard, st.Intersection, st.IntersectionErrBound)
//
// The union keeps the plain (ε, δ) guarantee; derived quantities
// compound it — intersection error is bounded by ε·(|A|+|B|+|A∪B|)
// with probability ≥ 1−3δ, scaling with the union magnitudes rather
// than the intersection. SetStats reports that budget alongside the
// estimates; DESIGN.md §21 has the derivations and limits. The knwd
// service exposes the same algebra as GET /v1/query and per-bucket
// window time-series as GET /v1/series.
//
// The clones here are native: Clone copies a sketch's counter state
// over its shared hash functions and never goes through its bytes.
// The wire codec (MarshalBinary, Open, KNWD deltas) is for bytes that
// leave or enter the process.
//
// # The knwd service
//
// The store and service packages (plus cmd/knwd) run the library as a
// multi-tenant daemon: named sketches created on first write, optional
// time-bucketed window rotation, an HTTP ingest/estimate/merge/
// snapshot API, and atomic envelope-backed checkpointing. MergeInto
// and Compatible lift merging to the Estimator interface for such
// callers, with kind/settings mismatches reported via the typed
// ErrIncompatible. See README.md ("Running knwd") and DESIGN.md §15.
//
// # What's inside
//
// The top-level F0 and L0 types run a median over independent copies
// of the paper's single-shot sketches (internal/core and
// internal/l0core), as Section 1 prescribes for boosting the constant
// success probability to 1 − δ. The substrates — k-wise independent
// hashing over F_{2^61−1}, tabulation hashing, variable-bit-length
// arrays, the Appendix A.2 logarithm table, and the balls-and-bins
// estimator theory of Section 2 — live in internal/ packages, each
// individually tested against the paper's lemmas. See DESIGN.md for
// the full inventory and EXPERIMENTS.md for measured-vs-paper results
// for every figure, table, and theorem.
package knw
