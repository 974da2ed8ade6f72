package cluster

import (
	"fmt"
	"io"

	"repro/internal/binenc"
	"repro/store"
)

// Peer record stream ("KNWG"): the one wire form in which a node ships
// whole stores' sketches to a peer. Gossip pull responses (POST
// /v1/gossip/pull) and handoff pushes (POST /v1/cluster/handoff) both
// carry it, written by recordWriter and read by readRecords:
//
//	uvarint recordMagic ("KNWG")
//	uvarint version (2)
//	uvarint instance (the sender's gossip instance id; 0 in a handoff push)
//	uvarint record count (at most maxPeerRecords)
//	per record:
//	  bytes   store name (a store.ValidateName name)
//	  uvarint store version (0 in a handoff push)
//	  bytes   envelope: a full KNWE envelope, or in a gossip pull a
//	          KNWD delta against the caller's base version
//	  bytes   window: in a handoff push of a windowed store, the live
//	          window ring's union as a KNWE envelope; empty otherwise
//
// A stream is at most maxPeerBody bytes and ends exactly after its last
// record. Version 1 (the gossip-only layout, without the window field)
// is refused with a version error, so members upgrade together.
const (
	recordMagic   = 0x4b4e5747 // "KNWG"
	recordVersion = 2
	// maxPeerBody bounds one stream on the receive side (a first-contact
	// pull or a handoff can carry many full envelopes).
	maxPeerBody = 256 << 20
	// maxPeerRecords bounds the record count of one stream, and the
	// store count of one pull request.
	maxPeerRecords = 1 << 20
)

// peerRecord is one record of a stream. A decoded record's byte fields
// alias the stream's buffer.
type peerRecord struct {
	name    string
	version uint64
	env     []byte
	window  []byte
}

// recordWriter builds one record stream: add every record, then send
// head(instance) followed by body.Buf.
type recordWriter struct {
	body  binenc.Writer
	count uint64
}

func (rw *recordWriter) add(rec peerRecord) {
	rw.body.Bytes([]byte(rec.name))
	rw.body.Uvarint(rec.version)
	rw.body.Bytes(rec.env)
	rw.body.Bytes(rec.window)
	rw.count++
}

// head returns the stream header for the records added so far.
func (rw *recordWriter) head(instance uint64) []byte {
	var h binenc.Writer
	h.Uvarint(recordMagic)
	h.Uvarint(recordVersion)
	h.Uvarint(instance)
	h.Uvarint(rw.count)
	return h.Buf
}

// recordStream is a stream whose header has been read and checked.
type recordStream struct {
	instance uint64
	count    uint64
	r        binenc.Reader
}

// readRecords reads a whole stream from body, refusing more than
// maxPeerBody bytes, and checks its header. Read errors come back
// wrapped, so a http.MaxBytesReader body still maps to 413.
func readRecords(body io.Reader) (*recordStream, error) {
	data, err := io.ReadAll(io.LimitReader(body, maxPeerBody+1))
	if err != nil {
		return nil, fmt.Errorf("reading record stream: %w", err)
	}
	if len(data) > maxPeerBody {
		return nil, fmt.Errorf("record stream exceeds %d bytes", maxPeerBody)
	}
	rs := &recordStream{r: binenc.Reader{Buf: data}}
	rs.r.Expect(recordMagic, "record stream magic")
	if v := rs.r.Uvarint(); rs.r.Err() == nil && v != recordVersion {
		return nil, fmt.Errorf("unsupported record stream version %d (want %d)", v, recordVersion)
	}
	rs.instance = rs.r.Uvarint()
	rs.count = rs.r.Uvarint()
	if err := rs.r.Err(); err != nil {
		return nil, fmt.Errorf("bad record stream header: %w", err)
	}
	if rs.count > maxPeerRecords {
		return nil, fmt.Errorf("record stream claims %d records", rs.count)
	}
	return rs, nil
}

// each decodes the records in stream order and hands each to apply,
// stopping at the first error; a stream with bytes after its last
// record is an error once every record has been applied.
func (rs *recordStream) each(apply func(peerRecord) error) error {
	for i := uint64(0); i < rs.count; i++ {
		var rec peerRecord
		rec.name = string(rs.r.BytesView())
		rec.version = rs.r.Uvarint()
		rec.env = rs.r.BytesView()
		rec.window = rs.r.BytesView()
		if err := rs.r.Err(); err != nil {
			return fmt.Errorf("bad record: %w", err)
		}
		if err := store.ValidateName(rec.name); err != nil {
			return err
		}
		if err := apply(rec); err != nil {
			return err
		}
	}
	if len(rs.r.Buf) != 0 {
		return fmt.Errorf("record stream has %d trailing bytes", len(rs.r.Buf))
	}
	return nil
}
