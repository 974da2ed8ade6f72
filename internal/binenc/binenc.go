// Package binenc provides the minimal varint-based encoder/decoder the
// sketch serialization uses (MarshalBinary/UnmarshalBinary on the
// public types). Hash functions are never serialized: sketches are
// reconstructed deterministically from their seed and configuration,
// so the payload is only the dynamic counter state.
package binenc

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrCorrupt is returned when a payload is truncated or malformed.
var ErrCorrupt = errors.New("binenc: corrupt or truncated payload")

// Writer appends primitive values to a byte buffer.
type Writer struct {
	Buf []byte
}

// Uvarint appends an unsigned varint. Values below 0x80, which is
// every sketch counter, take one byte and skip the general encoder.
func (w *Writer) Uvarint(v uint64) {
	if v < 0x80 {
		w.Buf = append(w.Buf, byte(v))
		return
	}
	w.Buf = binary.AppendUvarint(w.Buf, v)
}

// Varint appends a signed varint (zig-zag).
func (w *Writer) Varint(v int64) { w.Buf = binary.AppendVarint(w.Buf, v) }

// Bool appends a single byte 0/1.
func (w *Writer) Bool(b bool) {
	if b {
		w.Buf = append(w.Buf, 1)
	} else {
		w.Buf = append(w.Buf, 0)
	}
}

// Bytes appends a length-prefixed byte slice.
func (w *Writer) Bytes(b []byte) {
	w.Uvarint(uint64(len(b)))
	w.Buf = append(w.Buf, b...)
}

// Frame appends a length-prefixed frame whose body fill appends to the
// buffer it is given, so the body is encoded in place instead of into
// a scratch buffer that is then copied: once the body's length is
// known, the body moves right by the width of its prefix. The bytes
// equal Bytes of the same body.
func (w *Writer) Frame(fill func([]byte) []byte) {
	start := len(w.Buf)
	w.Buf = fill(w.Buf)
	n := len(w.Buf) - start
	var pre [binary.MaxVarintLen64]byte
	p := binary.PutUvarint(pre[:], uint64(n))
	w.Buf = append(w.Buf, pre[:p]...)
	copy(w.Buf[start+p:], w.Buf[start:start+n])
	copy(w.Buf[start:], pre[:p])
}

// Uints appends a length-prefixed slice of uvarints.
func (w *Writer) Uints(vs []uint64) {
	w.Uvarint(uint64(len(vs)))
	for _, v := range vs {
		w.Uvarint(v)
	}
}

// Reader consumes primitive values from a byte buffer. The first
// decoding error sticks; check Err (or use the returned zero values
// knowingly) after a batch of reads.
type Reader struct {
	Buf []byte
	err error
}

// Err returns the sticky error, if any.
func (r *Reader) Err() error { return r.err }

func (r *Reader) fail() {
	if r.err == nil {
		r.err = ErrCorrupt
	}
}

// Uvarint reads an unsigned varint. A one-byte value skips the
// general decoder.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	if len(r.Buf) > 0 && r.Buf[0] < 0x80 {
		v := uint64(r.Buf[0])
		r.Buf = r.Buf[1:]
		return v
	}
	v, n := binary.Uvarint(r.Buf)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.Buf = r.Buf[n:]
	return v
}

// Varint reads a signed varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.Buf)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.Buf = r.Buf[n:]
	return v
}

// Bool reads a 0/1 byte.
func (r *Reader) Bool() bool {
	if r.err != nil {
		return false
	}
	if len(r.Buf) < 1 {
		r.fail()
		return false
	}
	b := r.Buf[0]
	r.Buf = r.Buf[1:]
	if b > 1 {
		r.fail()
		return false
	}
	return b == 1
}

// BytesView reads a length-prefixed byte slice without copying: the
// returned slice aliases the reader's buffer, so a caller whose bytes
// must outlive that buffer copies them.
func (r *Reader) BytesView() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if uint64(len(r.Buf)) < n {
		r.fail()
		return nil
	}
	out := r.Buf[:n:n]
	r.Buf = r.Buf[n:]
	return out
}

// Uints reads a length-prefixed uvarint slice. maxLen guards against
// corrupt headers allocating unbounded memory.
func (r *Reader) Uints(maxLen int) []uint64 {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(maxLen) {
		r.fail()
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.Uvarint()
	}
	if r.err != nil {
		return nil
	}
	return out
}

// UvarintsView reads what Uints wrote for exactly n values, each at
// most max and each one byte long (below 0x80): it returns the n
// encoded bytes, aliasing the reader's buffer, and byte i is value i.
// A run of a different length, a value above max or a multi-byte
// value, or a truncated run is a sticky ErrCorrupt.
func (r *Reader) UvarintsView(n int, max uint64) []byte {
	if cnt := r.Uvarint(); r.err != nil || cnt != uint64(n) || len(r.Buf) < n {
		r.fail()
		return nil
	}
	lim := byte(min(max, 0x7f))
	run := r.Buf[:n:n]
	for _, v := range run {
		if v > lim {
			r.fail()
			return nil
		}
	}
	r.Buf = r.Buf[n:]
	return run
}

// Expect checks a magic/version marker.
func (r *Reader) Expect(want uint64, what string) {
	if got := r.Uvarint(); r.err == nil && got != want {
		r.err = fmt.Errorf("binenc: bad %s: got %d want %d", what, got, want)
	}
}
