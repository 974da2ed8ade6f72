package bitutil

import (
	"fmt"
	"math/bits"
)

// BitVector is a fixed-length packed bit array with O(1) get/set and a
// maintained population count, so that reporting |{i : B_i = 1}| — the
// quantity T_B(t) in Section 3.3 of the paper — costs O(1) at any time.
type BitVector struct {
	words []uint64
	n     int
	ones  int
}

// NewBitVector returns a BitVector of n bits, all zero.
func NewBitVector(n int) *BitVector {
	if n < 0 {
		panic("bitutil: negative BitVector length")
	}
	return &BitVector{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the number of bits in the vector.
func (b *BitVector) Len() int { return b.n }

// Get returns the value of bit i.
func (b *BitVector) Get(i int) bool {
	b.check(i)
	return b.words[i>>6]&(1<<(uint(i)&63)) != 0
}

// Set sets bit i to 1 and updates the maintained count.
func (b *BitVector) Set(i int) {
	b.check(i)
	w, m := i>>6, uint64(1)<<(uint(i)&63)
	if b.words[w]&m == 0 {
		b.words[w] |= m
		b.ones++
	}
}

// Clear sets bit i to 0 and updates the maintained count.
func (b *BitVector) Clear(i int) {
	b.check(i)
	w, m := i>>6, uint64(1)<<(uint(i)&63)
	if b.words[w]&m != 0 {
		b.words[w] &^= m
		b.ones--
	}
}

// Count returns the number of set bits in O(1) time.
func (b *BitVector) Count() int { return b.ones }

// Fill sets all bits.
func (b *BitVector) Fill() {
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	if tail := uint(b.n) & 63; tail != 0 {
		b.words[len(b.words)-1] = 1<<tail - 1
	}
	b.ones = b.n
}

// Reset clears all bits.
func (b *BitVector) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
	b.ones = 0
}

// Or merges other into b (bitwise OR). Both vectors must have the same
// length; this is how two same-seed small-F0 bit arrays are merged when
// taking the union of two streams.
func (b *BitVector) Or(other *BitVector) {
	if b.n != other.n {
		panic("bitutil: BitVector length mismatch in Or")
	}
	ones := 0
	for i := range b.words {
		b.words[i] |= other.words[i]
		ones += bits.OnesCount64(b.words[i])
	}
	b.ones = ones
}

// Load replaces b's bits with the packed words, one word at a time;
// bits at or past Len in the last word are dropped. words must hold
// exactly as many words as Words does.
func (b *BitVector) Load(words []uint64) {
	if len(words) != len(b.words) {
		panic("bitutil: BitVector length mismatch in Load")
	}
	copy(b.words, words)
	if tail := uint(b.n) & 63; tail != 0 {
		b.words[len(b.words)-1] &= 1<<tail - 1
	}
	ones := 0
	for _, w := range b.words {
		ones += bits.OnesCount64(w)
	}
	b.ones = ones
}

// Clone returns a deep copy of b.
func (b *BitVector) Clone() *BitVector {
	w := make([]uint64, len(b.words))
	copy(w, b.words)
	return &BitVector{words: w, n: b.n, ones: b.ones}
}

// CopyFrom makes b's bits equal to o's. Both vectors must have the
// same length.
func (b *BitVector) CopyFrom(o *BitVector) {
	if b.n != o.n {
		panic("bitutil: BitVector length mismatch in CopyFrom")
	}
	copy(b.words, o.words)
	b.ones = o.ones
}

// Words exposes the packed representation (read-only by convention);
// used for serialization and space accounting.
func (b *BitVector) Words() []uint64 { return b.words }

// SpaceBits returns the number of bits of state the vector occupies,
// counting only the packed payload (headers are O(1) words).
func (b *BitVector) SpaceBits() int { return 64 * len(b.words) }

func (b *BitVector) check(i int) {
	if i < 0 || i >= b.n {
		panic(fmt.Sprintf("bitutil: bit index %d out of range [0,%d)", i, b.n))
	}
}
