package store

import (
	"fmt"

	"repro/internal/binenc"
)

// Checkpoint and replica files from before the record stream. Nothing
// writes them any more, but a node upgraded in place finds them in its
// checkpoint directory, so they decode into the Stream a record-stream
// file of the same content would: splicing, staging and installing are
// the stream's. The layouts, all uvarints but the byte strings:
//
//	"KNWC" full checkpoint: magic, version (1 or 2), checkpoint id
//	       (2 only), then records
//	"KNWI" delta checkpoint: magic, version (1), base checkpoint id,
//	       sequence, then records
//	       records: count, then per record bytes name, version (not in
//	       KNWC 1), bytes envelope, bool windowed, and if windowed
//	       bool started, varint epoch, current bucket index, bucket
//	       count, bytes bucket envelope × count
//	"KNWR" replica file: magic, version (1), peer count, then per peer
//	       bytes URL, instance, then records without the windowed flag
//
// A legacy ring records no interval, so its RingRecord has Interval 0
// and restores only when its epoch is not ahead of the store clock
// (Store.ringFits).
const (
	legacyCkptMagic      = 0x4b4e5743 // "KNWC"
	legacyCkptDeltaMagic = 0x4b4e5749 // "KNWI"
	legacyReplicaMagic   = 0x4b4e5752 // "KNWR"
)

// legacyMagic reports whether data starts with a legacy file magic.
func legacyMagic(data []byte) bool {
	r := binenc.Reader{Buf: data}
	switch r.Uvarint() {
	case legacyCkptMagic, legacyCkptDeltaMagic, legacyReplicaMagic:
		return true
	}
	return false
}

// decodeLegacyCheckpoint decodes a KNWC file (kind StreamCheckpoint)
// or a KNWI file (kind StreamCheckpointDelta).
func decodeLegacyCheckpoint(data []byte, kind StreamKind) (Stream, error) {
	r := binenc.Reader{Buf: data}
	st := Stream{StreamHeader: StreamHeader{Kind: kind}}
	versioned := true
	if kind == StreamCheckpoint {
		r.Expect(legacyCkptMagic, "checkpoint magic")
		switch v := r.Uvarint(); {
		case v == 2:
			st.Anchor = r.Uvarint()
		case v == 1:
			versioned = false
		case r.Err() == nil:
			return Stream{}, fmt.Errorf("unsupported checkpoint version %d", v)
		}
	} else {
		r.Expect(legacyCkptDeltaMagic, "checkpoint delta magic")
		r.Expect(1, "checkpoint delta version")
		st.Anchor = r.Uvarint()
		r.Uvarint() // sequence: nothing reads it
	}
	if err := readLegacyRecords(&r, &st, versioned, true); err != nil {
		return Stream{}, err
	}
	if len(r.Buf) != 0 {
		return Stream{}, fmt.Errorf("%d trailing bytes in checkpoint", len(r.Buf))
	}
	return st, nil
}

// decodeLegacyReplicas decodes a KNWR file into one StreamReplica
// stream per peer.
func decodeLegacyReplicas(data []byte) ([]Stream, error) {
	r := binenc.Reader{Buf: data}
	r.Expect(legacyReplicaMagic, "replica checkpoint magic")
	r.Expect(1, "replica checkpoint version")
	peers := r.Uvarint()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if peers > 1<<16 {
		return nil, fmt.Errorf("replica header claims %d peers", peers)
	}
	var out []Stream
	for ; peers > 0; peers-- {
		st := Stream{StreamHeader: StreamHeader{Kind: StreamReplica, Source: string(r.BytesView()), Anchor: r.Uvarint()}}
		if err := readLegacyRecords(&r, &st, true, false); err != nil {
			return nil, err
		}
		out = append(out, st)
	}
	if len(r.Buf) != 0 {
		return nil, fmt.Errorf("%d trailing bytes in replica file", len(r.Buf))
	}
	return out, nil
}

// readLegacyRecords decodes a legacy record list into st under the
// stream's record rules.
func readLegacyRecords(r *binenc.Reader, st *Stream, versioned, windowed bool) error {
	count := r.Uvarint()
	if r.Err() == nil && count > MaxStreamRecords {
		return fmt.Errorf("legacy file claims %d records", count)
	}
	for i := uint64(0); i < count; i++ {
		rec := Record{Name: string(r.BytesView())}
		if versioned {
			rec.Version = r.Uvarint()
		}
		rec.Env = r.BytesView()
		if windowed && r.Bool() {
			started, epoch, cur, n := r.Bool(), r.Varint(), r.Uvarint(), r.Uvarint()
			if r.Err() == nil && (n > maxRingBuckets || cur >= max(n, 1)) {
				return fmt.Errorf("bad window header for %q", rec.Name)
			}
			buckets := make([][]byte, n) // n is 0 after a read error
			for b := range buckets {
				buckets[b] = r.BytesView()
			}
			// A ring that never started holds no keys. Otherwise, the
			// current bucket is the newest and the one after it the
			// oldest.
			for j := uint64(1); started && j <= n; j++ {
				rec.Ring.Buckets = append(rec.Ring.Buckets, buckets[(cur+j)%n])
			}
			rec.Ring.Epoch = epoch
		}
		if err := st.append(rec, r.Err()); err != nil {
			return err
		}
	}
	return r.Err()
}
