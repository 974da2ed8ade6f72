package knw

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"sort"

	"repro/internal/binenc"
)

// The KNWD delta envelope: the incremental counterpart of the KNWE
// snapshot envelope, carrying only the payload sections that changed
// since a base version instead of the whole sketch.
//
// The version-2 payload formats (serialize.go) already frame their
// dynamic state as length-prefixed sections — one per copy — behind a
// fixed header (per-type magic, version, settings). The retired sharded
// payloads (legacy.go) frame one section per shard behind a header that
// adds the shard count, and still split, because delta files written
// before they were retired are diffs against them. That framing makes
// a generic splitter possible: SplitEnvelope cuts any enveloped wire
// sketch into (header, sections) without knowing the section contents,
// and a delta is just "replace sections i, j, k of the base". Applying
// a delta to the full envelope it was diffed against reproduces the
// new full envelope byte for byte, so delta transfer is invisible to
// everything downstream of knw.Open.
//
// Wire layout:
//
//	uvarint deltaMagic ("KNWD")
//	uvarint delta version (currently 1)
//	uvarint kind               (the envelope Kind the delta applies to)
//	uvarint base version       (the version the receiver must hold)
//	uvarint next version       (the version the receiver holds after)
//	uvarint total sections     (section count of the base payload)
//	uvarint header checksum    (FNV-1a 64 of the base payload header)
//	uvarint flags              (bit 0: body is DEFLATE-compressed)
//	bytes   body               (length-prefixed)
//
//	body: uvarint changed count, then per changed section
//	  uvarint section index    (strictly increasing)
//	  bytes   section payload
//
// Base/next versions are opaque to this package — the store layer
// stamps them from its per-entry change counters — but the kind, the
// section count, and the header checksum are verified on apply, so a
// delta can never be spliced into a base with a different shape or
// configuration. Like every decoder in this package, DecodeDelta and
// ApplyDelta return errors on corrupt, truncated, or adversarial
// input; they never panic.
const (
	deltaMagic   = 0x4b4e5744 // "KNWD"
	deltaVersion = 1

	// deltaFlagDeflate marks a DEFLATE-compressed body.
	deltaFlagDeflate = 1 << 0
)

// Decode-side bounds: a corrupt header must not force an unbounded
// allocation. maxDeltaSections dwarfs any real payload (copies ≤ 2^10,
// legacy shards ≤ 2^16); maxDeltaBodyBytes bounds DEFLATE expansion.
const (
	maxDeltaSections  = 1 << 20
	maxDeltaBodyBytes = 256 << 20
)

// EnvelopeSections is the section-level view of a full KNWE envelope:
// the payload header (everything before the first section frame) and
// the framed sections themselves. Header and Sections alias the input
// envelope; callers that outlive it must copy.
type EnvelopeSections struct {
	Kind     Kind
	Header   []byte
	Sections [][]byte
}

// SplitEnvelope cuts an enveloped version-2 wire payload into its
// header and framed sections. Version-1 payloads are unframed and
// pre-envelope blobs carry no kind tag, so both return an error —
// callers fall back to shipping the full envelope.
func SplitEnvelope(env []byte) (EnvelopeSections, error) {
	var es EnvelopeSections
	r := binenc.Reader{Buf: env}
	if magic := r.Uvarint(); r.Err() != nil || magic != envMagic {
		return es, fmt.Errorf("knw: not an enveloped sketch (pre-envelope payloads cannot be section-split)")
	}
	kind, payload, err := openEnvelope(&r)
	if err != nil {
		return es, err
	}
	info, ok := kindRegistry[foldedKind(kind)]
	if !ok || info.legacyMagic == 0 {
		return es, fmt.Errorf("knw: kind %s has no sectioned payload", kind)
	}
	magic, sharded := info.legacyMagic, foldedKind(kind) != kind
	if sharded {
		magic = info.shardedMagic
	}
	pr := binenc.Reader{Buf: payload}
	pr.Expect(magic, "payload magic")
	ver := pr.Uvarint()
	cfg := readSettings(&pr)
	var shards uint64
	if sharded {
		shards = pr.Uvarint()
	}
	if err := pr.Err(); err != nil {
		return es, fmt.Errorf("knw: splitting %s payload: %w", kind, err)
	}
	if ver != version {
		return es, fmt.Errorf("knw: version-%d %s payloads are unframed and cannot be section-split", ver, kind)
	}
	if !cfg.valid() || (sharded && (shards < 1 || shards > maxShards)) {
		return es, fmt.Errorf("knw: corrupt %s header", kind)
	}
	es.Kind = kind
	es.Header = payload[:len(payload)-len(pr.Buf)]
	for len(pr.Buf) > 0 {
		sec := pr.BytesView()
		if err := pr.Err(); err != nil {
			return es, fmt.Errorf("knw: corrupt %s section frame: %w", kind, err)
		}
		es.Sections = append(es.Sections, sec)
	}
	return es, nil
}

// AppendEnvelope reassembles the full KNWE envelope from the split
// view, appending to dst (which may be nil). SplitEnvelope followed by
// AppendEnvelope is the identity on enveloped version-2 payloads.
func (es EnvelopeSections) AppendEnvelope(dst []byte) []byte {
	return appendEnvelope(dst, es.Kind, func(buf []byte) []byte {
		w := binenc.Writer{Buf: append(buf, es.Header...)}
		for _, sec := range es.Sections {
			w.Bytes(sec)
		}
		return w.Buf
	})
}

// deltaHeaderSum is the FNV-1a 64 checksum ApplyDelta uses to verify a
// delta targets the base it was diffed against (same settings, same
// shard count — anything header-identical is splice-compatible).
func deltaHeaderSum(header []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range header {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return h
}

// AppendDelta encodes a KNWD delta from the current split view: the
// sections at the changed indexes, stamped with the (base, next)
// version pair. With compress set the body is DEFLATE-compressed when
// that actually shrinks it. The encoded delta applies only to the full
// envelope whose split has the same header and section count.
func AppendDelta(dst []byte, es EnvelopeSections, base, next uint64, changed []int, compress bool) ([]byte, error) {
	var body binenc.Writer
	body.Uvarint(uint64(len(changed)))
	prev := -1
	for _, i := range changed {
		if i <= prev || i >= len(es.Sections) {
			return nil, fmt.Errorf("knw: delta section index %d out of order or range (%d sections)", i, len(es.Sections))
		}
		prev = i
		body.Uvarint(uint64(i))
		body.Bytes(es.Sections[i])
	}
	payload := body.Buf
	flags := uint64(0)
	if compress {
		var zb bytes.Buffer
		zw, err := flate.NewWriter(&zb, flate.DefaultCompression)
		if err != nil {
			return nil, err
		}
		if _, err := zw.Write(payload); err != nil {
			return nil, err
		}
		if err := zw.Close(); err != nil {
			return nil, err
		}
		if zb.Len() < len(payload) {
			payload = zb.Bytes()
			flags |= deltaFlagDeflate
		}
	}
	w := binenc.Writer{Buf: dst}
	w.Uvarint(deltaMagic)
	w.Uvarint(deltaVersion)
	w.Uvarint(uint64(es.Kind))
	w.Uvarint(base)
	w.Uvarint(next)
	w.Uvarint(uint64(len(es.Sections)))
	w.Uvarint(deltaHeaderSum(es.Header))
	w.Uvarint(flags)
	w.Bytes(payload)
	return w.Buf, nil
}

// IsDelta reports whether data starts with the KNWD magic — how
// receivers on a mixed full/delta stream dispatch without decoding.
func IsDelta(data []byte) bool {
	r := binenc.Reader{Buf: data}
	magic := r.Uvarint()
	return r.Err() == nil && magic == deltaMagic
}

// Delta is a decoded KNWD envelope.
type Delta struct {
	Kind          Kind
	Base, Next    uint64
	TotalSections int
	Indexes       []int
	Sections      [][]byte

	headerSum uint64
}

// DecodeDelta parses and validates a KNWD envelope. Section bytes may
// alias data (when the body was not compressed).
func DecodeDelta(data []byte) (Delta, error) {
	var d Delta
	r := binenc.Reader{Buf: data}
	r.Expect(deltaMagic, "delta magic")
	if v := r.Uvarint(); r.Err() == nil && v != deltaVersion {
		return d, fmt.Errorf("knw: unsupported delta version %d", v)
	}
	kind := r.Uvarint()
	d.Base = r.Uvarint()
	d.Next = r.Uvarint()
	total := r.Uvarint()
	d.headerSum = r.Uvarint()
	flags := r.Uvarint()
	body := r.BytesView()
	if err := r.Err(); err != nil {
		return d, fmt.Errorf("knw: corrupt delta header: %w", err)
	}
	if len(r.Buf) != 0 {
		return d, fmt.Errorf("knw: %d trailing bytes after delta", len(r.Buf))
	}
	if kind > uint64(^Kind(0)) || total > maxDeltaSections {
		return d, fmt.Errorf("knw: corrupt delta header")
	}
	d.Kind = Kind(kind)
	d.TotalSections = int(total)
	if flags&deltaFlagDeflate != 0 {
		zr := flate.NewReader(bytes.NewReader(body))
		raw, err := io.ReadAll(io.LimitReader(zr, maxDeltaBodyBytes+1))
		zr.Close()
		if err != nil {
			return d, fmt.Errorf("knw: corrupt delta body: %w", err)
		}
		if len(raw) > maxDeltaBodyBytes {
			return d, fmt.Errorf("knw: delta body exceeds %d bytes", maxDeltaBodyBytes)
		}
		body = raw
	}
	br := binenc.Reader{Buf: body}
	count := br.Uvarint()
	if br.Err() != nil || count > total {
		return d, fmt.Errorf("knw: corrupt delta body")
	}
	d.Indexes = make([]int, 0, count)
	d.Sections = make([][]byte, 0, count)
	prev := -1
	for j := uint64(0); j < count; j++ {
		idx := br.Uvarint()
		sec := br.BytesView()
		if err := br.Err(); err != nil {
			return d, fmt.Errorf("knw: corrupt delta section frame: %w", err)
		}
		if int(idx) <= prev || idx >= total {
			return d, fmt.Errorf("knw: delta section index %d out of order or range", idx)
		}
		prev = int(idx)
		d.Indexes = append(d.Indexes, int(idx))
		d.Sections = append(d.Sections, sec)
	}
	if len(br.Buf) != 0 {
		return d, fmt.Errorf("knw: %d trailing bytes in delta body", len(br.Buf))
	}
	return d, nil
}

// ApplyTo applies the delta to a decoded base sketch and returns a new
// sketch: a native copy of base with each changed copy section
// restored into a fresh blank, never encoding base. base must be an
// *F0 or *L0 whose kind, copy count and payload header (computed from
// its settings) match the delta's, exactly as ApplyDelta checks the
// envelope it splices; base is only read. The result marshals to the
// bytes Open(ApplyDelta(<base's envelope>, delta)) marshals to, and
// fails where that fails, so a replica can hold the decoded sketch
// alone.
func (d Delta) ApplyTo(base Estimator) (Estimator, error) {
	switch b := base.(type) {
	case *F0:
		if err := d.checkBase(KindF0, b.appendHeader(nil), len(b.fast)+len(b.ref)); err != nil {
			return nil, err
		}
		out := b.blank()
		if err := applyCopies(out.fast, b.fast, 0, &d); err != nil {
			return nil, fmt.Errorf("knw: restoring F0 copy: %w", err)
		}
		if err := applyCopies(out.ref, b.ref, len(b.fast), &d); err != nil {
			return nil, fmt.Errorf("knw: restoring F0 copy: %w", err)
		}
		return out, nil
	case *L0:
		if err := d.checkBase(KindL0, b.appendHeader(nil), len(b.copies)); err != nil {
			return nil, err
		}
		out := b.blank()
		if err := applyCopies(out.copies, b.copies, 0, &d); err != nil {
			return nil, fmt.Errorf("knw: restoring L0 copy: %w", err)
		}
		return out, nil
	}
	return nil, fmt.Errorf("knw: delta base: kind %s has no sectioned payload", kindOf(base))
}

// checkBase verifies that a base of the given kind, payload header and
// section count is the shape the delta was diffed against.
func (d *Delta) checkBase(kind Kind, header []byte, sections int) error {
	if kind != d.Kind {
		return fmt.Errorf("knw: delta for kind %s cannot apply to a %s base", d.Kind, kind)
	}
	if sections != d.TotalSections {
		return fmt.Errorf("knw: delta expects %d sections, base has %d", d.TotalSections, sections)
	}
	if deltaHeaderSum(header) != d.headerSum {
		return fmt.Errorf("knw: delta header checksum mismatch (different base configuration)")
	}
	return nil
}

// copyState is one copy of a sketch: restorable from its section, and
// copyable from a same-settings copy.
type copyState[T any] interface {
	RestoreState(*binenc.Reader) error
	CopyFrom(T)
}

// applyCopies fills the blank copies dst, which are sections off to
// off+len(dst)-1: a section the delta changes is restored from the
// delta, every other one is copied from base.
func applyCopies[T copyState[T]](dst, base []T, off int, d *Delta) error {
	j := sort.SearchInts(d.Indexes, off)
	for i, c := range dst {
		if j < len(d.Indexes) && d.Indexes[j] == off+i {
			if err := restoreSection(d.Sections[j], c.RestoreState); err != nil {
				return err
			}
			j++
			continue
		}
		c.CopyFrom(base[i])
	}
	return nil
}

// ApplyDelta splices a KNWD delta into the full envelope it was diffed
// against and returns the new full envelope. The base must match the
// delta's kind, section count, and header checksum; version agreement
// (delta.Base against the receiver's held version) is the caller's
// bookkeeping — this function only verifies structural compatibility.
func ApplyDelta(full, delta []byte) ([]byte, error) {
	d, err := DecodeDelta(delta)
	if err != nil {
		return nil, err
	}
	es, err := SplitEnvelope(full)
	if err != nil {
		return nil, fmt.Errorf("knw: delta base: %w", err)
	}
	if err := d.checkBase(es.Kind, es.Header, len(es.Sections)); err != nil {
		return nil, err
	}
	for j, i := range d.Indexes {
		es.Sections[i] = d.Sections[j]
	}
	return es.AppendEnvelope(nil), nil
}
