package knw

import (
	"fmt"
	"math"

	"repro/internal/binenc"
	"repro/internal/bitutil"
)

// Serialization format: every MarshalBinary wraps its payload in the
// self-describing envelope of envelope.go (kind tag + payload), so
// knw.Open can restore the right concrete type. The payload itself is
// this file's per-type format: a magic/version header, the full option
// set (including the seed), then the dynamic counter state. Hash functions
// never hit the wire — on load the sketch is rebuilt deterministically
// from (options, seed) and only counters are restored, so payload size
// tracks the sketch's accounted state, not its tabulation tables.
//
// Version 2 (current) wraps each copy's state in a length-prefixed
// frame, which lets readers validate section boundaries and lets the
// delta envelope (envelope_delta.go) ship only the copies that changed.
// Version 1 concatenated the copy states unframed; the readers still
// accept it, as they accept the retired sharded payloads (legacy.go).
//
// A sketch can therefore only be unmarshaled by a binary using the
// same construction logic (this library), which is the usual contract
// for sketch stores (statistics catalogs, checkpoint files).
const (
	f0Magic = 0x4b4e5746 // "KNWF"
	l0Magic = 0x4b4e574c // "KNWL"
	version = 2
)

func appendSettings(w *binenc.Writer, s settings) {
	w.Uvarint(math.Float64bits(s.eps))
	w.Uvarint(uint64(s.copies))
	w.Uvarint(math.Float64bits(s.delta))
	w.Varint(s.seed)
	w.Uvarint(uint64(s.logN))
	w.Uvarint(uint64(s.logMM))
	w.Uvarint(uint64(s.kOverride))
	w.Bool(s.reference)
	w.Bool(s.lnTable)
	w.Bool(s.strict)
}

func readSettings(r *binenc.Reader) settings {
	var s settings
	s.eps = math.Float64frombits(r.Uvarint())
	s.copies = int(r.Uvarint())
	s.delta = math.Float64frombits(r.Uvarint())
	s.seed = r.Varint()
	s.seedSet = true
	s.logN = uint(r.Uvarint())
	s.logMM = uint(r.Uvarint())
	s.kOverride = int(r.Uvarint())
	s.reference = r.Bool()
	s.lnTable = r.Bool()
	s.strict = r.Bool()
	return s
}

// maxRestoredK / maxRestoredCounters bound the per-copy K and the
// total copies·K of a payload we are willing to reconstruct: a corrupt
// (or adversarial) header must not be able to force an unbounded
// allocation, and the core constructors panic outright on a
// non-power-of-two K or on K ≥ 2^22 (the K³ hash range overflows
// uint64), which a decoder must never do. K = 2^20 per copy is the
// ε = 0.01 point and 2^24 total is far beyond the paper's regime
// (ε = 0.01 at δ = 0.05 uses ~7.3M); sketches built past these bounds
// simply don't round-trip.
const (
	maxRestoredK        = 1 << 20
	maxRestoredCounters = 1 << 24
)

func (s settings) valid() bool {
	if !(s.eps > 0 && s.eps < 1 &&
		s.copies >= 1 && s.copies <= 1<<10 &&
		s.delta > 0 && s.delta < 1 &&
		s.logN >= 4 && s.logN <= 62 &&
		s.logMM >= 1 && s.logMM <= 62) {
		return false
	}
	if s.kOverride != 0 &&
		(s.kOverride < 32 || !bitutil.IsPow2(uint64(s.kOverride))) {
		return false
	}
	k := s.k()
	return k >= 32 && k <= maxRestoredK && s.copies*k <= maxRestoredCounters
}

// readVersion consumes the version marker, accepting the current
// version and the legacy unframed version 1.
func readVersion(r *binenc.Reader, what string) (uint64, error) {
	v := r.Uvarint()
	if err := r.Err(); err != nil {
		return 0, err
	}
	if v != 1 && v != version {
		return 0, fmt.Errorf("knw: unsupported %s version %d", what, v)
	}
	return v, nil
}

// restoreFrame decodes one length-prefixed frame with fn, requiring fn
// to consume the frame exactly.
func restoreFrame(r *binenc.Reader, fn func(*binenc.Reader) error) error {
	frame := r.BytesView()
	if err := r.Err(); err != nil {
		return err
	}
	return restoreSection(frame, fn)
}

// restoreSection decodes one section (a frame's contents) with fn,
// requiring fn to consume it exactly. fn copies what it keeps.
func restoreSection(sec []byte, fn func(*binenc.Reader) error) error {
	sub := binenc.Reader{Buf: sec}
	if err := fn(&sub); err != nil {
		return err
	}
	if err := sub.Err(); err != nil {
		return err
	}
	if len(sub.Buf) != 0 {
		return binenc.ErrCorrupt
	}
	return nil
}

// appendFrame writes one copy's state as a length-prefixed frame (the
// version-2 section layout), encoded in place.
func appendFrame(w *binenc.Writer, appendState func(*binenc.Writer)) {
	w.Frame(func(buf []byte) []byte {
		cw := binenc.Writer{Buf: buf}
		appendState(&cw)
		return cw.Buf
	})
}

// appendCopyFrames writes each copy's state as a frame.
func (f *F0) appendCopyFrames(w *binenc.Writer) {
	for _, s := range f.fast {
		appendFrame(w, s.AppendState)
	}
	for _, s := range f.ref {
		appendFrame(w, s.AppendState)
	}
}

// restoreCopyFrames reads what appendCopyFrames wrote.
func (f *F0) restoreCopyFrames(r *binenc.Reader) error {
	for _, s := range f.fast {
		if err := restoreFrame(r, s.RestoreState); err != nil {
			return fmt.Errorf("knw: restoring F0 copy: %w", err)
		}
	}
	for _, s := range f.ref {
		if err := restoreFrame(r, s.RestoreState); err != nil {
			return fmt.Errorf("knw: restoring F0 copy: %w", err)
		}
	}
	return nil
}

// restoreCopiesV1 reads the legacy unframed copy-state concatenation.
func (f *F0) restoreCopiesV1(r *binenc.Reader) error {
	for _, s := range f.fast {
		if err := s.RestoreState(r); err != nil {
			return fmt.Errorf("knw: restoring F0 copy: %w", err)
		}
	}
	for _, s := range f.ref {
		if err := s.RestoreState(r); err != nil {
			return fmt.Errorf("knw: restoring F0 copy: %w", err)
		}
	}
	return nil
}

// MarshalBinary implements encoding.BinaryMarshaler, wrapping the
// type's payload in the self-describing envelope (envelope.go) so
// readers can restore it without knowing the concrete type. Any
// in-progress deamortized phases are drained first, so marshaling is
// an O(state) operation, not a hot-path one.
func (f *F0) MarshalBinary() ([]byte, error) {
	return f.AppendBinary(nil)
}

// AppendBinary implements encoding.BinaryAppender: MarshalBinary
// appending to b. Callers on a snapshot loop (the store checkpointer,
// the service's snapshot endpoint) pass a reused buffer so steady-state
// encoding allocates nothing beyond destination growth.
func (f *F0) AppendBinary(b []byte) ([]byte, error) {
	return appendEnvelope(b, KindF0, f.appendLegacy), nil
}

// marshalLegacy produces the pre-envelope (version-2) payload — the
// bytes the envelope carries.
func (f *F0) marshalLegacy() []byte { return f.appendLegacy(nil) }

func (f *F0) appendLegacy(buf []byte) []byte {
	w := binenc.Writer{Buf: f.appendHeader(buf)}
	f.appendCopyFrames(&w)
	return w.Buf
}

// appendHeader appends the payload header: everything before the
// first copy frame.
func (f *F0) appendHeader(buf []byte) []byte { return appendHeader(buf, f0Magic, f.cfg) }

func appendHeader(buf []byte, magic uint64, cfg settings) []byte {
	w := binenc.Writer{Buf: buf}
	w.Uvarint(magic)
	w.Uvarint(version)
	appendSettings(&w, cfg)
	return w.Buf
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler, replacing f's
// configuration and state entirely. Enveloped, bare version-2, and
// legacy version-1 payloads are all accepted, and so are the retired
// sharded F0 payloads, folded into one sketch (legacy.go).
func (f *F0) UnmarshalBinary(data []byte) error {
	payload, err := unwrapEnvelope(data, KindF0)
	if err != nil {
		return err
	}
	return f.unmarshalLegacy(payload)
}

func (f *F0) unmarshalLegacy(data []byte) error {
	if hasMagic(data, f0ShardedMagic) {
		folded, err := foldShards(data, f0ShardedMagic, "F0", newF0From)
		if err != nil {
			return err
		}
		*f = *folded
		return nil
	}
	r := binenc.Reader{Buf: data}
	r.Expect(f0Magic, "F0 magic")
	ver, err := readVersion(&r, "F0")
	if err != nil {
		return err
	}
	cfg := readSettings(&r)
	if err := r.Err(); err != nil {
		return err
	}
	if !cfg.valid() {
		return fmt.Errorf("knw: corrupt F0 header")
	}
	fresh := newF0From(cfg)
	if ver == 1 {
		err = fresh.restoreCopiesV1(&r)
	} else {
		err = fresh.restoreCopyFrames(&r)
	}
	if err != nil {
		return err
	}
	if len(r.Buf) != 0 {
		return fmt.Errorf("knw: %d trailing bytes in F0 payload", len(r.Buf))
	}
	*f = *fresh
	return nil
}

// appendCopyFrames / restoreCopyFrames / restoreCopiesV1: the L0
// equivalents of the F0 section helpers.
func (l *L0) appendCopyFrames(w *binenc.Writer) {
	for _, s := range l.copies {
		appendFrame(w, s.AppendState)
	}
}

func (l *L0) restoreCopyFrames(r *binenc.Reader) error {
	for _, s := range l.copies {
		if err := restoreFrame(r, s.RestoreState); err != nil {
			return fmt.Errorf("knw: restoring L0 copy: %w", err)
		}
	}
	return nil
}

func (l *L0) restoreCopiesV1(r *binenc.Reader) error {
	for _, s := range l.copies {
		if err := s.RestoreState(r); err != nil {
			return fmt.Errorf("knw: restoring L0 copy: %w", err)
		}
	}
	return nil
}

// MarshalBinary implements encoding.BinaryMarshaler for L0 (enveloped;
// see F0.MarshalBinary).
func (l *L0) MarshalBinary() ([]byte, error) {
	return l.AppendBinary(nil)
}

// AppendBinary implements encoding.BinaryAppender (see F0.AppendBinary).
func (l *L0) AppendBinary(b []byte) ([]byte, error) {
	return appendEnvelope(b, KindL0, l.appendLegacy), nil
}

func (l *L0) marshalLegacy() []byte { return l.appendLegacy(nil) }

func (l *L0) appendLegacy(buf []byte) []byte {
	w := binenc.Writer{Buf: l.appendHeader(buf)}
	l.appendCopyFrames(&w)
	return w.Buf
}

// appendHeader appends the payload header (see F0.appendHeader).
func (l *L0) appendHeader(buf []byte) []byte { return appendHeader(buf, l0Magic, l.cfg) }

// UnmarshalBinary implements encoding.BinaryUnmarshaler for L0.
// Enveloped, bare version-2, legacy version-1, and retired sharded L0
// payloads are all accepted.
func (l *L0) UnmarshalBinary(data []byte) error {
	payload, err := unwrapEnvelope(data, KindL0)
	if err != nil {
		return err
	}
	return l.unmarshalLegacy(payload)
}

func (l *L0) unmarshalLegacy(data []byte) error {
	if hasMagic(data, l0ShardedMagic) {
		folded, err := foldShards(data, l0ShardedMagic, "L0", newL0From)
		if err != nil {
			return err
		}
		*l = *folded
		return nil
	}
	r := binenc.Reader{Buf: data}
	r.Expect(l0Magic, "L0 magic")
	ver, err := readVersion(&r, "L0")
	if err != nil {
		return err
	}
	cfg := readSettings(&r)
	if err := r.Err(); err != nil {
		return err
	}
	if !cfg.valid() {
		return fmt.Errorf("knw: corrupt L0 header")
	}
	fresh := newL0From(cfg)
	if ver == 1 {
		err = fresh.restoreCopiesV1(&r)
	} else {
		err = fresh.restoreCopyFrames(&r)
	}
	if err != nil {
		return err
	}
	if len(r.Buf) != 0 {
		return fmt.Errorf("knw: %d trailing bytes in L0 payload", len(r.Buf))
	}
	*l = *fresh
	return nil
}
