// Package vla implements a variable-bit-length array — the
// Blandford–Blelloch compact-dictionary structure the paper invokes as
// Theorem 8 — storing n entries whose binary representations have
// unequal lengths, in O(n + Σ len(C_i)) bits with O(1)-word-operation
// reads and updates.
//
// The KNW F0 algorithm (Figure 3) stores K = 1/ε² counters C_j whose
// values are offsets from the subsampling base b; each counter occupies
// O(1 + log(C_j + 2)) bits, and the algorithm guarantees (by outputting
// FAIL when the tracked total A exceeds 3K) that the combined payload
// stays O(K) bits. A fixed-width array would instead cost
// Θ(K·loglog n) bits and break the O(ε⁻² + log n) space bound, which is
// exactly why the paper reaches for this structure.
//
// Layout: entries are grouped into blocks of BlockSize = 16. A block
// stores a 4-bit-granular length code per entry (lengths are rounded up
// to multiples of 4 bits, preserving the O(1 + len) charge) and a
// packed payload of []uint64 words. Because the block size is a fixed
// constant and every entry is at most one machine word, a block spans
// O(1) words whenever entries are short (as in Figure 3, where offsets
// are O(loglog n) bits), so reading or rewriting a block is O(1) word
// operations — the same accounting Blandford–Blelloch use.
package vla

import (
	"fmt"
	"math/bits"
)

// BlockSize is the number of entries per block; it is constant so block
// operations are O(1). The range operations (DecodeRange, EncodeRange,
// ZeroRange) move whole blocks, so their bounds must be multiples of it.
const BlockSize = 16

const granule = 4 // lengths are multiples of 4 bits; codes fit in 4 bits

// Array is a variable-bit-length array of uint64 values.
type Array struct {
	n      int
	blocks []block
}

type block struct {
	codes uint64   // 4-bit length code per entry: length = code*granule
	data  []uint64 // packed payload, little-endian bit order
}

// New returns an Array of n entries, all zero. A zero entry occupies
// zero payload bits (length code 0).
func New(n int) *Array {
	if n < 0 {
		panic("vla: negative length")
	}
	return &Array{
		n:      n,
		blocks: make([]block, (n+BlockSize-1)/BlockSize),
	}
}

// Len returns the number of entries.
func (a *Array) Len() int { return a.n }

// codeFor returns the 4-bit length code for value v: the number of
// 4-bit granules needed to represent v (0 for v == 0, up to 15 for a
// 60-bit value; values needing more than 60 bits are rejected, which is
// far beyond anything Figure 3 stores).
func codeFor(v uint64) uint64 {
	if v >= 1<<60 {
		panic("vla: value exceeds 60 bits")
	}
	return uint64(bits.Len64(v)+granule-1) / granule
}

func (b *block) code(slot int) uint64 {
	return (b.codes >> (4 * uint(slot))) & 0xF
}

func (b *block) setCode(slot int, c uint64) {
	shift := 4 * uint(slot)
	b.codes = b.codes&^(0xF<<shift) | c<<shift
}

// bitOffset returns the payload bit position where slot's entry starts:
// the sum of preceding entries' lengths, one word operation chain.
func (b *block) bitOffset(slot int) uint {
	return codeSum(b.codes&(1<<(4*uint(slot))-1)) * granule
}

// codeSum adds up the sixteen 4-bit length codes packed in codes.
func codeSum(codes uint64) uint {
	const lo = 0x0f0f0f0f0f0f0f0f
	pairs := codes&lo + codes>>4&lo // eight byte lanes, each ≤ 30
	return uint(pairs * 0x0101010101010101 >> 56)
}

// Read returns entry i.
func (a *Array) Read(i int) uint64 {
	a.check(i)
	b := &a.blocks[i/BlockSize]
	slot := i % BlockSize
	nbits := uint(b.code(slot)) * granule
	if nbits == 0 {
		return 0
	}
	return extractBits(b.data, b.bitOffset(slot), nbits)
}

// Write sets entry i to v, repacking the containing block if the
// entry's bit length changed. Repacking touches one constant-size
// block: O(1) word operations.
func (a *Array) Write(i int, v uint64) {
	a.check(i)
	b := &a.blocks[i/BlockSize]
	slot := i % BlockSize
	oldCode := b.code(slot)
	newCode := codeFor(v)
	if oldCode == newCode {
		if newCode != 0 {
			depositBits(b.data, b.bitOffset(slot), uint(newCode)*granule, v)
		}
		return
	}
	// Length changed: decode the whole block, update, re-encode.
	var vals [BlockSize]uint64
	b.decode(&vals)
	vals[slot] = v
	b.setCode(slot, newCode)
	b.pack(&vals)
}

// DecodeRange copies entries [lo, lo+len(dst)) into dst, decoding each
// block once instead of locating every entry on its own. lo and
// len(dst) must be multiples of BlockSize.
func (a *Array) DecodeRange(lo int, dst []uint64) {
	bi := a.blockRange(lo, len(dst))
	for i := 0; i < len(dst); i += BlockSize {
		a.blocks[bi].decode((*[BlockSize]uint64)(dst[i:]))
		bi++
	}
}

// EncodeRange sets entries [lo, lo+len(src)) to src, repacking each
// block once. lo and len(src) must be multiples of BlockSize.
func (a *Array) EncodeRange(lo int, src []uint64) {
	bi := a.blockRange(lo, len(src))
	for i := 0; i < len(src); i += BlockSize {
		vals := (*[BlockSize]uint64)(src[i:])
		b := &a.blocks[bi]
		b.setCodes(vals)
		b.pack(vals)
		bi++
	}
}

// ZeroRange zeroes entries [lo, lo+n), releasing their payload storage
// as Reset does. lo and n must be multiples of BlockSize.
func (a *Array) ZeroRange(lo, n int) {
	bi := a.blockRange(lo, n)
	for i := bi; i < bi+n/BlockSize; i++ {
		a.blocks[i].codes = 0
		a.blocks[i].data = a.blocks[i].data[:0]
	}
}

// blockRange checks that [lo, lo+n) covers whole blocks of the array
// and returns the index of its first block.
func (a *Array) blockRange(lo, n int) int {
	if lo < 0 || n < 0 || lo%BlockSize != 0 || n%BlockSize != 0 || lo+n > a.n {
		panic(fmt.Sprintf("vla: range [%d,%d) is not whole blocks of [0,%d)", lo, lo+n, a.n))
	}
	return lo / BlockSize
}

// decode unpacks the block's entries into vals, visiting only the
// nonzero ones (counter arrays are mostly empty).
func (b *block) decode(vals *[BlockSize]uint64) {
	*vals = [BlockSize]uint64{}
	off := uint(0)
	for c := b.codes; c != 0; {
		shift := uint(bits.TrailingZeros64(c)) &^ 3
		n := uint(c>>shift&0xF) * granule
		vals[shift/4] = extractBits(b.data, off, n)
		off += n
		c &^= 0xF << shift
	}
}

// pack rewrites the block's payload to hold vals under its current
// length codes, reusing the payload storage when it is large enough.
func (b *block) pack(vals *[BlockSize]uint64) {
	words := b.words()
	if cap(b.data) < words {
		b.data = make([]uint64, words, words+2)
	} else {
		b.data = b.data[:words]
		clear(b.data)
	}
	b.deposit(vals)
}

// words returns the payload words the block's length codes call for.
func (b *block) words() int { return int((codeSum(b.codes)*granule + 63) / 64) }

// setCodes sets every length code from vals.
func (b *block) setCodes(vals *[BlockSize]uint64) {
	b.codes = 0
	for s, v := range vals {
		b.codes |= codeFor(v) << (4 * uint(s))
	}
}

// deposit writes vals into the block's zeroed payload under its
// current length codes, visiting only the nonzero ones.
func (b *block) deposit(vals *[BlockSize]uint64) {
	off := uint(0)
	for c := b.codes; c != 0; {
		shift := uint(bits.TrailingZeros64(c)) &^ 3
		n := uint(c>>shift&0xF) * granule
		depositBits(b.data, off, n, vals[shift/4])
		off += n
		c &^= 0xF << shift
	}
}

// CopyFrom makes a's entries equal to src's. Each block reuses its own
// payload storage when that is large enough; the blocks it is not
// large enough for share one new allocation, so a copy into a fresh
// array allocates once. The arrays must have the same length.
func (a *Array) CopyFrom(src *Array) {
	if a.n != src.n {
		panic(fmt.Sprintf("vla: copy of a %d-entry array into a %d-entry one", src.n, a.n))
	}
	need := 0
	for i := range src.blocks {
		if n := len(src.blocks[i].data); n > cap(a.blocks[i].data) {
			need += n
		}
	}
	var pool []uint64
	if need > 0 {
		pool = make([]uint64, need)
	}
	for i := range src.blocks {
		sb, db := &src.blocks[i], &a.blocks[i]
		db.codes = sb.codes
		n := len(sb.data)
		if n > cap(db.data) {
			db.data, pool = pool[:n:n], pool[n:]
		} else {
			db.data = db.data[:n]
		}
		copy(db.data, sb.data)
	}
}

// Load sets every entry from src, one byte-sized value per entry (the
// form a decoder holds counters in), packing all blocks' payloads into
// one allocation. len(src) must be Len, a multiple of BlockSize.
func Load(a *Array, src []byte) {
	if len(src) != a.n {
		panic(fmt.Sprintf("vla: loading %d values into a %d-entry array", len(src), a.n))
	}
	a.blockRange(0, a.n)
	var vals [BlockSize]uint64
	words := 0
	for bi := range a.blocks {
		for i, v := range src[bi*BlockSize : (bi+1)*BlockSize] {
			vals[i] = uint64(v)
		}
		a.blocks[bi].setCodes(&vals)
		words += a.blocks[bi].words()
	}
	pool := make([]uint64, words)
	for bi := range a.blocks {
		b := &a.blocks[bi]
		n := b.words()
		b.data, pool = pool[:n:n], pool[n:]
		if n > 0 {
			for i, v := range src[bi*BlockSize : (bi+1)*BlockSize] {
				vals[i] = uint64(v)
			}
			b.deposit(&vals)
		}
	}
}

// PayloadBits returns Σ len(C_i) as stored (each entry rounded up to a
// granule), the quantity Theorem 8's space bound is expressed in.
func (a *Array) PayloadBits() int {
	total := 0
	for bi := range a.blocks {
		total += int(codeSum(a.blocks[bi].codes)) * granule
	}
	return total
}

// SpaceBits returns the structure's total footprint: payload words plus
// the per-block length codes — O(n + Σ len(C_i)) bits as in Theorem 8.
func (a *Array) SpaceBits() int {
	total := 0
	for bi := range a.blocks {
		total += 64 * len(a.blocks[bi].data) // packed payload
		total += 64                          // length-code word
	}
	return total
}

// EmptyBits returns SpaceBits of an n-entry array whose entries are
// all zero.
func EmptyBits(n int) int { return 64 * ((n + BlockSize - 1) / BlockSize) }

// Reset zeroes every entry, releasing payload storage.
func (a *Array) Reset() {
	for bi := range a.blocks {
		a.blocks[bi].codes = 0
		a.blocks[bi].data = a.blocks[bi].data[:0]
	}
}

func (a *Array) check(i int) {
	if i < 0 || i >= a.n {
		panic(fmt.Sprintf("vla: index %d out of range [0,%d)", i, a.n))
	}
}

// extractBits reads nbits (1..64) starting at bit position off from the
// little-endian packed word slice.
func extractBits(data []uint64, off, nbits uint) uint64 {
	w, b := off/64, off%64
	v := data[w] >> b
	if b+nbits > 64 {
		v |= data[w+1] << (64 - b)
	}
	if nbits < 64 {
		v &= (1 << nbits) - 1
	}
	return v
}

// depositBits writes the low nbits of v at bit position off.
func depositBits(data []uint64, off, nbits uint, v uint64) {
	if nbits < 64 {
		v &= (1 << nbits) - 1
	}
	w, b := off/64, off%64
	data[w] = data[w]&^(maskBits(nbits)<<b) | v<<b
	if b+nbits > 64 {
		rem := b + nbits - 64
		data[w+1] = data[w+1]&^maskBits(rem) | v>>(64-b)
	}
}

func maskBits(n uint) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return (1 << n) - 1
}
