package knw

import (
	"fmt"

	"repro/internal/binenc"
)

// Retired sharded payloads. The library used to ship goroutine-safe
// wrappers that split F0 and L0 into one locked same-seed shard per
// CPU (envelope kinds 3 and 4). Their payload was the shared settings,
// a shard count, and one frame per shard holding that shard's framed
// copy states:
//
//	uvarint magic       ("KNWS" for F0, "KNWT" for L0)
//	uvarint version     (1 or 2; the layout is the same)
//	settings            (as in serialize.go)
//	uvarint shard count (a power of two, at most maxShards)
//	bytes   shard frame × count
//
// Nothing writes them any more, but checkpoints, replica files and
// delta chains written before then do hold them. The decoders fold
// such a payload into one plain sketch: every shard merged into an
// empty sketch, which is exactly the sketch the wrapper's Estimate
// read. The folded sketch re-marshals as KindF0 or KindL0.
const (
	f0ShardedMagic = 0x4b4e5753 // "KNWS"
	l0ShardedMagic = 0x4b4e5754 // "KNWT"

	// maxShards bounds the shard count a sharded header may claim, so a
	// corrupt payload cannot force an unbounded allocation.
	maxShards = 1 << 16
)

// foldedKind maps the retired sharded envelope tags to the plain kind
// their payloads fold into; every other kind maps to itself.
func foldedKind(k Kind) Kind {
	switch k {
	case kindShardedF0:
		return KindF0
	case kindShardedL0:
		return KindL0
	}
	return k
}

// hasMagic reports whether a bare payload starts with magic.
func hasMagic(data []byte, magic uint64) bool {
	r := binenc.Reader{Buf: data}
	return r.Uvarint() == magic && r.Err() == nil
}

// shardFolder is what foldShards needs of a plain sketch type.
type shardFolder[T any] interface {
	*T
	restoreCopyFrames(r *binenc.Reader) error
	Merge(other *T) error
}

// foldShards decodes a sharded payload into one sketch built by build.
// It never panics on corrupt input.
func foldShards[T any, P shardFolder[T]](data []byte, magic uint64, what string, build func(settings) P) (P, error) {
	r := binenc.Reader{Buf: data}
	r.Expect(magic, "sharded "+what+" magic")
	if _, err := readVersion(&r, "sharded "+what); err != nil {
		return nil, err
	}
	cfg := readSettings(&r)
	shards := r.Uvarint()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if !cfg.valid() || shards < 1 || shards > maxShards || shards&(shards-1) != 0 {
		return nil, fmt.Errorf("knw: corrupt sharded %s header", what)
	}
	acc := build(cfg)
	for i := uint64(0); i < shards; i++ {
		shard := build(cfg)
		if err := restoreFrame(&r, shard.restoreCopyFrames); err != nil {
			return nil, fmt.Errorf("knw: restoring %s shard %d: %w", what, i, err)
		}
		if err := acc.Merge(shard); err != nil {
			return nil, err
		}
	}
	if len(r.Buf) != 0 {
		return nil, fmt.Errorf("knw: %d trailing bytes in sharded %s payload", len(r.Buf), what)
	}
	return acc, nil
}
