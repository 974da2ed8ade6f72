package knw_test

import (
	"fmt"

	knw "repro"
)

// Counting distinct items in a stream: duplicates are free, and small
// counts are exact (the Section 3.3 regime).
func ExampleNewF0() {
	sk := knw.NewKeyed[string](knw.NewF0(knw.WithEpsilon(0.05), knw.WithSeed(1)))
	for _, user := range []string{"alice", "bob", "alice", "carol", "bob", "alice"} {
		sk.Add(user)
	}
	fmt.Printf("distinct users: %.0f\n", sk.Estimate())
	// Output: distinct users: 3
}

// Counting surviving items in a stream with deletions: fully deleted
// keys stop counting, negative net counts still count.
func ExampleNewL0() {
	hs := knw.NewL0(knw.WithSeed(1))
	hs.Update(100, +5)
	hs.Update(200, +2)
	hs.Update(100, -5) // fully deleted
	hs.Update(300, -7) // negative net count: still a nonzero coordinate
	fmt.Printf("live keys: %.0f\n", hs.Estimate())
	// Output: live keys: 2
}

// Same-seed sketches merge into the union of their streams.
func ExampleF0_Merge() {
	east := knw.NewF0(knw.WithSeed(7))
	west := knw.NewF0(knw.WithSeed(7)) // same seed: mergeable
	for i := uint64(1); i <= 30; i++ {
		east.Add(i)
	}
	for i := uint64(21); i <= 50; i++ { // overlaps 21..30
		west.Add(i)
	}
	if err := east.Merge(west); err != nil {
		panic(err)
	}
	fmt.Printf("union: %.0f\n", east.Estimate())
	// Output: union: 50
}

// HammingDiff estimates how many keys two streams disagree on — the
// paper's data-cleaning statistic — without modifying either sketch.
func ExampleHammingDiff() {
	a := knw.NewL0(knw.WithSeed(9))
	b := knw.NewL0(knw.WithSeed(9))
	for i := uint64(1); i <= 40; i++ {
		a.Update(i, 1)
		b.Update(i, 1)
	}
	b.Update(41, 1) // b has one extra row
	a.Update(7, 1)  // and they disagree on key 7's count
	diff, err := knw.HammingDiff(a, b)
	if err != nil {
		panic(err)
	}
	fmt.Printf("differing keys: %.0f\n", diff)
	// Output: differing keys: 2
}

// Jaccard similarity from two same-seed sketches, by inclusion–
// exclusion on merged clones: |A∩B| = |A| + |B| − |A∪B|. In the exact
// small-count regime the identity is exact too.
func ExampleJaccard() {
	a := knw.NewF0(knw.WithSeed(5))
	b := knw.NewF0(knw.WithSeed(5)) // same seed: comparable
	for i := uint64(1); i <= 60; i++ {
		a.Add(i)
	}
	for i := uint64(31); i <= 90; i++ { // overlaps 31..60
		b.Add(i)
	}
	j, err := knw.Jaccard(a, b)
	if err != nil {
		panic(err)
	}
	fmt.Printf("jaccard: %.3f\n", j) // 30 shared / 90 total
	// Output: jaccard: 0.333
}

// Sketches round-trip through their binary form; the payload carries
// only counter state (hash functions rebuild from the seed).
func ExampleF0_MarshalBinary() {
	sk := knw.NewF0(knw.WithSeed(3))
	for i := uint64(1); i <= 25; i++ {
		sk.Add(i)
	}
	data, _ := sk.MarshalBinary()

	var restored knw.F0
	if err := restored.UnmarshalBinary(data); err != nil {
		panic(err)
	}
	restored.Add(26)
	fmt.Printf("restored and extended: %.0f\n", restored.Estimate())
	// Output: restored and extended: 26
}
