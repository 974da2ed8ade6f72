package knw

import (
	"fmt"

	"repro/internal/binenc"
)

// The self-describing wire envelope. Every MarshalBinary in this
// package now emits
//
//	uvarint envMagic ("KNWE")
//	uvarint envelope version (currently 1)
//	uvarint kind             (the Kind registry tag — stable, append-only)
//	bytes   payload          (length-prefixed; the type's own format)
//
// so a stored blob identifies what it contains: Open restores the
// right concrete type without the caller dispatching by hand, and a
// future service can route checkpoints by kind without decoding the
// payload. The payload is byte-for-byte the pre-envelope (version-2)
// per-type format, and the pre-envelope formats remain readable — both
// through Open (dispatching on their per-type magic) and through each
// type's UnmarshalBinary — so blobs written before the envelope
// existed still load. See DESIGN.md §14 for the rationale and layout.
const (
	envMagic   = 0x4b4e5745 // "KNWE"
	envVersion = 1
)

// appendEnvelope appends an envelope for kind to dst, appending the
// payload in place behind the header (binenc.Writer.Frame).
func appendEnvelope(dst []byte, kind Kind, appendPayload func([]byte) []byte) []byte {
	w := binenc.Writer{Buf: dst}
	w.Uvarint(envMagic)
	w.Uvarint(envVersion)
	w.Uvarint(uint64(kind))
	w.Frame(appendPayload)
	return w.Buf
}

// unwrapEnvelope returns the inner payload if data is an envelope
// (verifying it holds the wanted kind), or data unchanged if it is a
// pre-envelope payload (anything not starting with the envelope
// magic — the per-type decoders validate those themselves).
func unwrapEnvelope(data []byte, want Kind) ([]byte, error) {
	r := binenc.Reader{Buf: data}
	if magic := r.Uvarint(); r.Err() != nil || magic != envMagic {
		return data, nil
	}
	kind, payload, err := openEnvelope(&r)
	if err != nil {
		return nil, err
	}
	if foldedKind(kind) != want {
		return nil, fmt.Errorf("knw: envelope holds a %s, not a %s", kind, want)
	}
	return payload, nil
}

// openEnvelope parses the envelope after its magic has been consumed.
// The returned payload aliases r's buffer (the per-type decoders copy
// whatever state they keep), so unwrapping a snapshot or a peer's
// merge envelope allocates nothing.
func openEnvelope(r *binenc.Reader) (Kind, []byte, error) {
	ver := r.Uvarint()
	kind := r.Uvarint()
	payload := r.BytesView()
	if err := r.Err(); err != nil {
		return KindInvalid, nil, fmt.Errorf("knw: corrupt envelope: %w", err)
	}
	if ver != envVersion {
		return KindInvalid, nil, fmt.Errorf("knw: unsupported envelope version %d", ver)
	}
	if len(r.Buf) != 0 {
		return KindInvalid, nil, fmt.Errorf("knw: %d trailing bytes after envelope", len(r.Buf))
	}
	if kind > uint64(^Kind(0)) {
		return KindInvalid, nil, fmt.Errorf("knw: envelope kind %d out of range", kind)
	}
	return Kind(kind), payload, nil
}

// Open restores a sketch from a MarshalBinary blob, picking the
// concrete type from the envelope's kind tag (or, for pre-envelope
// blobs, from the per-type magic), so callers keep exactly one restore
// path however the sketch was built:
//
//	est, err := knw.Open(blob)
//	if err != nil { ... }
//	fmt.Println(est.Name(), est.Estimate())
//
// The returned estimator is the kind's concrete type (*F0 or *L0)
// behind the Estimator interface; type-assert — or probe for
// TurnstileEstimator — for the wider surfaces. Payloads of the retired
// sharded kinds fold into one *F0 or *L0 (legacy.go). Open never panics
// on corrupt, truncated, or adversarial input; it returns an error.
func Open(data []byte) (Estimator, error) {
	r := binenc.Reader{Buf: data}
	magic := r.Uvarint()
	if r.Err() != nil {
		return nil, fmt.Errorf("knw: not a sketch payload: %w", r.Err())
	}
	if magic == deltaMagic {
		return nil, fmt.Errorf("knw: KNWD delta envelope needs a base to apply to (see ApplyDelta)")
	}
	if magic == envMagic {
		kind, payload, err := openEnvelope(&r)
		if err != nil {
			return nil, err
		}
		info, ok := kindRegistry[foldedKind(kind)]
		if !ok {
			return nil, fmt.Errorf("knw: envelope holds unknown kind %d (newer writer?)", uint64(kind))
		}
		if info.empty == nil {
			return nil, fmt.Errorf("knw: kind %s does not serialize", kind)
		}
		sk := info.empty()
		if err := sk.unmarshalLegacy(payload); err != nil {
			return nil, err
		}
		return sk, nil
	}
	// Pre-envelope blob: dispatch on the per-type magic.
	for _, kind := range Kinds() {
		info := kindRegistry[kind]
		if info.empty == nil || (info.legacyMagic != magic && info.shardedMagic != magic) {
			continue
		}
		sk := info.empty()
		if err := sk.unmarshalLegacy(data); err != nil {
			return nil, err
		}
		return sk, nil
	}
	return nil, fmt.Errorf("knw: unrecognized payload magic %#x", magic)
}
