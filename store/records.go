package store

import (
	"encoding"
	"fmt"
	"time"

	knw "repro"
	"repro/internal/binenc"
)

// Record stream ("KNWG" version 3): the one form in which stores
// travel, on disk and on the wire. A KNW sketch is a mergeable summary,
// so whatever a node persists or ships is the same list of records: a
// store name, a version, its sketch and, for a windowed store, its ring
// of bucket sketches. Checkpoint files (full and delta), the replica
// file (one stream per peer, back to back), gossip pull replies,
// handoff pushes and the scope=buckets ring export are all record
// streams, written by StreamWriter and read by DecodeStream:
//
//	uvarint streamMagic ("KNWG"), uvarint version (3)
//	uvarint kind, bytes source, uvarint anchor (meanings: StreamKind)
//	uvarint record count (at most MaxStreamRecords)
//	per record, names strictly increasing:
//	  bytes   name (a ValidateName name)
//	  uvarint version
//	  bytes   envelope: KNWE, or KNWD against a base the kind names;
//	          empty in a ring export
//	  uvarint bucket count (0: no ring; at most 1,024), then if > 0:
//	    varint interval nanos (> 0), varint newest bucket's epoch,
//	    bytes  bucket envelope × count, oldest → newest
//
// A stream ends exactly after its last record. Byte caps belong to
// whoever reads the bytes. Files from before the stream load through
// legacy.go.
const (
	streamMagic   = 0x4b4e5747 // "KNWG"
	streamVersion = 3
	// MaxStreamRecords bounds the records of one stream (and the
	// stores one gossip pull may ask for).
	MaxStreamRecords = 1 << 20
	// maxRingBuckets bounds a window ring's buckets.
	maxRingBuckets = 1024
)

// StreamKind says what a stream carries and what its header means.
type StreamKind uint64

const (
	StreamCheckpoint      StreamKind = 1 + iota // full checkpoint; anchor: checkpoint id
	StreamCheckpointDelta                       // delta checkpoint; anchor: base checkpoint id
	StreamReplica                               // one peer's replicas; source: peer URL, anchor: its instance
	StreamPull                                  // gossip pull reply; anchor: sender instance
	StreamHandoff                               // handoff push; source: sender, anchor: pending epoch
	StreamRing                                  // ring export: one record carrying only a ring
)

// StreamHeader is what a stream says about itself.
type StreamHeader struct {
	Kind   StreamKind
	Source string
	Anchor uint64
}

// Stream is one decoded record stream.
type Stream struct {
	StreamHeader
	Records []Record
}

// Record is one store in a stream. A decoded record's byte fields
// alias the stream's bytes.
type Record struct {
	Name    string
	Version uint64
	Env     []byte // KNWE or KNWD; empty in a ring export
	Ring    RingRecord
}

// RingRecord is a window ring as streams carry it: no buckets means no
// ring. Interval is 0 only in a ring from a legacy checkpoint, which
// did not record it.
type RingRecord struct {
	Interval time.Duration
	Epoch    int64    // the newest bucket's interval index
	Buckets  [][]byte // envelopes, oldest → newest
}

// StreamWriter builds one record stream: add records in strictly
// increasing name order, then send Head followed by Body.
type StreamWriter struct {
	Header StreamHeader
	body   binenc.Writer
	count  uint64
}

// Add appends a record without a ring.
func (sw *StreamWriter) Add(name string, version uint64, env []byte) {
	sw.add(name, version, env, nil, RingSnapshot{})
}

// add appends one record: env's bytes, or est encoded in place when
// est is set, and ring's buckets.
func (sw *StreamWriter) add(name string, version uint64, env []byte, est knw.Estimator, ring RingSnapshot) {
	sw.count++
	w := &sw.body
	w.Bytes([]byte(name))
	w.Uvarint(version)
	if est != nil {
		w.Frame(func(buf []byte) []byte { return appendSketch(buf, est) })
	} else {
		w.Bytes(env)
	}
	w.Uvarint(uint64(len(ring.Buckets)))
	if len(ring.Buckets) == 0 {
		return
	}
	w.Varint(int64(ring.Interval))
	w.Varint(ring.Buckets[len(ring.Buckets)-1].Epoch)
	for _, b := range ring.Buckets {
		w.Frame(func(buf []byte) []byte { return appendSketch(buf, b.Sketch) })
	}
}

// Head returns the stream header for the records added so far.
func (sw *StreamWriter) Head() []byte {
	var w binenc.Writer
	w.Uvarint(streamMagic)
	w.Uvarint(streamVersion)
	w.Uvarint(uint64(sw.Header.Kind))
	w.Bytes([]byte(sw.Header.Source))
	w.Uvarint(sw.Header.Anchor)
	w.Uvarint(sw.count)
	return w.Buf
}

// Body returns the records added so far.
func (sw *StreamWriter) Body() []byte { return sw.body.Buf }

// AppendRingStream appends the ring export of name — a StreamRing
// stream of one record carrying only rs — to buf (which may be nil).
func AppendRingStream(buf []byte, name string, rs RingSnapshot) []byte {
	// The one record's count is known up front, so the header goes
	// first and the record is encoded straight into buf behind it.
	sw := StreamWriter{Header: StreamHeader{Kind: StreamRing}, count: 1}
	sw.body.Buf = append(buf, sw.Head()...)
	sw.add(name, 0, nil, nil, rs)
	return sw.body.Buf
}

// DecodeStream decodes one whole stream of the given kind: the magic,
// version and kind, the record-count bound, valid and strictly
// increasing names, rings of at most 1,024 buckets at a positive
// interval, and no trailing bytes. Envelopes are not opened; that is
// the sink's job. Records alias data.
func DecodeStream(data []byte, kind StreamKind) (Stream, error) {
	r := binenc.Reader{Buf: data}
	st, err := readStream(&r, kind)
	if err == nil && len(r.Buf) != 0 {
		err = fmt.Errorf("store: record stream has %d trailing bytes", len(r.Buf))
	}
	return st, err
}

// readStream decodes one stream from r, leaving r after its last
// record.
func readStream(r *binenc.Reader, kind StreamKind) (Stream, error) {
	r.Expect(streamMagic, "record stream magic")
	if v := r.Uvarint(); r.Err() == nil && v != streamVersion {
		return Stream{}, fmt.Errorf("store: unsupported record stream version %d (want %d)", v, streamVersion)
	}
	st := Stream{StreamHeader: StreamHeader{Kind: StreamKind(r.Uvarint()), Source: string(r.BytesView()), Anchor: r.Uvarint()}}
	count := r.Uvarint()
	switch {
	case r.Err() != nil:
		return Stream{}, fmt.Errorf("store: bad record stream header: %w", r.Err())
	case st.Kind != kind:
		return Stream{}, fmt.Errorf("store: record stream of kind %d, want %d", st.Kind, kind)
	case count > MaxStreamRecords:
		return Stream{}, fmt.Errorf("store: record stream claims %d records", count)
	}
	for i := uint64(0); i < count; i++ {
		rec := Record{Name: string(r.BytesView()), Version: r.Uvarint(), Env: r.BytesView()}
		if n := r.Uvarint(); n > 0 && r.Err() == nil {
			if n > maxRingBuckets {
				return Stream{}, fmt.Errorf("store: record %q claims %d ring buckets", rec.Name, n)
			}
			rec.Ring = RingRecord{Interval: time.Duration(r.Varint()), Epoch: r.Varint()}
			for ; n > 0; n-- {
				rec.Ring.Buckets = append(rec.Ring.Buckets, r.BytesView())
			}
			if r.Err() == nil && rec.Ring.Interval <= 0 {
				return Stream{}, fmt.Errorf("store: ring of %q has interval %d", rec.Name, rec.Ring.Interval)
			}
		}
		if err := st.append(rec, r.Err()); err != nil {
			return Stream{}, err
		}
	}
	return st, nil
}

// append adds one decoded record under the stream's name rules;
// readErr is the decoder's error, if any.
func (st *Stream) append(rec Record, readErr error) error {
	if readErr != nil {
		return fmt.Errorf("store: bad record: %w", readErr)
	}
	if err := ValidateName(rec.Name); err != nil {
		return err
	}
	if n := len(st.Records); n > 0 && rec.Name <= st.Records[n-1].Name {
		// Writers emit sorted names, so anything else (duplicates
		// included) is damage, not data.
		return fmt.Errorf("store: record %q out of order after %q", rec.Name, st.Records[n-1].Name)
	}
	st.Records = append(st.Records, rec)
	return nil
}

// OpenRing opens a ring record's buckets, each checked against the
// store's kind, options and seed, into caller-owned sketches.
func (s *Store) OpenRing(ring RingRecord) (RingSnapshot, error) {
	out := RingSnapshot{Interval: ring.Interval, Buckets: make([]BucketSnapshot, len(ring.Buckets))}
	oldest := ring.Epoch - int64(len(ring.Buckets)-1)
	for i, env := range ring.Buckets {
		est, err := s.openCompatible(env)
		if err != nil {
			return RingSnapshot{}, fmt.Errorf("store: ring bucket %d: %w", i, err)
		}
		out.Buckets[i] = BucketSnapshot{Epoch: oldest + int64(i), Sketch: est}
	}
	return out, nil
}

// appendSketch appends est's envelope to buf. Every store kind is a
// wire kind (New checks), and a wire kind's AppendBinary never fails:
// its error result is there for encoding.BinaryAppender.
func appendSketch(buf []byte, est knw.Estimator) []byte {
	out, err := est.(encoding.BinaryAppender).AppendBinary(buf)
	if err != nil {
		panic("store: encoding a " + est.Name() + " sketch: " + err.Error())
	}
	return out
}
