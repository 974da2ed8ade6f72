package core

import (
	"slices"

	"repro/internal/binenc"
	"repro/internal/bitutil"
	"repro/internal/vla"
)

// Sketch serialization: the dynamic state only. Hash functions are
// reconstructed from the seed by the caller (the public knw package
// serializes its settings — including the seed — alongside each
// copy's state), so payloads stay proportional to the counter state.

// AppendState serializes the reference sketch's dynamic state.
func (s *Sketch) AppendState(w *binenc.Writer) {
	w.Uvarint(uint64(s.cfg.K))
	cs := make([]uint64, len(s.c))
	for i, c := range s.c {
		cs[i] = uint64(int(c) + 1)
	}
	w.Uints(cs)
	w.Varint(int64(s.b))
	w.Varint(int64(s.est))
	w.Bool(s.failed)
	w.Uvarint(uint64(s.rescales))
	s.small.appendState(w)
	s.re.AppendState(w)
}

// RestoreState loads state produced by AppendState into a sketch built
// from the same Config and seed. Derived quantities (A, T) are
// recomputed from the counters.
func (s *Sketch) RestoreState(r *binenc.Reader) error {
	if k := r.Uvarint(); r.Err() == nil && int(k) != s.cfg.K {
		return binenc.ErrCorrupt
	}
	cs := r.Uints(s.cfg.K)
	b := r.Varint()
	est := r.Varint()
	failed := r.Bool()
	rescales := r.Uvarint()
	if err := s.small.restoreState(r, s.cfg.K); err != nil {
		return err
	}
	if err := s.re.RestoreState(r); err != nil {
		return err
	}
	if r.Err() != nil {
		return r.Err()
	}
	if len(cs) != s.cfg.K || b < 0 || est < 0 {
		return binenc.ErrCorrupt
	}
	s.a, s.tOcc = 0, 0
	for i, v := range cs {
		c := int(v) - 1
		if c > 127 {
			return binenc.ErrCorrupt
		}
		s.c[i] = int8(c)
		s.a += int(bitutil.CeilLog2(uint64(c + 2)))
		if c >= 0 {
			s.tOcc++
		}
	}
	s.b, s.est = int(b), int(est)
	s.failed = failed
	s.rescales = int(rescales)
	return nil
}

// AppendState serializes the fast sketch's dynamic state. Any
// in-progress deamortized copy phase is drained first so only the
// primary array needs encoding (an O(K) step — serialization is not a
// hot path).
func (s *FastSketch) AppendState(w *binenc.Writer) {
	s.settle()
	// The Uints encoding of the primary's counters, written a block at
	// a time without an intermediate slice of K counters.
	w.Uvarint(uint64(s.cfg.K))
	w.Uvarint(uint64(s.cfg.K))
	w.Buf = slices.Grow(w.Buf, s.cfg.K)
	var vals [vla.BlockSize]uint64
	for lo := 0; lo < s.cfg.K; lo += vla.BlockSize {
		s.arr[s.cur].DecodeRange(lo, vals[:])
		for _, v := range vals {
			w.Uvarint(v)
		}
	}
	w.Varint(int64(s.b))
	w.Varint(int64(s.est))
	w.Bool(s.failed)
	w.Uvarint(uint64(s.rescales))
	w.Uvarint(uint64(s.drains))
	s.small.appendState(w)
	s.re.AppendState(w)
}

// RestoreState loads state produced by AppendState into a sketch built
// from the same Config and seed. Every check runs before the counter
// array is written, and the counters are read straight from the
// encoded run into the array in one payload allocation: AppendState
// writes every counter in one byte, so a counter written in more is
// rejected with the rest of the corrupt input.
func (s *FastSketch) RestoreState(r *binenc.Reader) error {
	if k := r.Uvarint(); r.Err() == nil && int(k) != s.cfg.K {
		return binenc.ErrCorrupt
	}
	// A counter holds C+1 with C = lvl − b ≤ LogN; anything larger is
	// corrupt.
	run := r.UvarintsView(s.cfg.K, uint64(s.cfg.LogN)+1)
	b := r.Varint()
	est := r.Varint()
	failed := r.Bool()
	rescales := r.Uvarint()
	drains := r.Uvarint()
	if err := s.small.restoreState(r, s.cfg.K); err != nil {
		return err
	}
	if err := s.re.RestoreState(r); err != nil {
		return err
	}
	if r.Err() != nil {
		return r.Err()
	}
	if b < 0 || est < 0 || est > 63 || b > int64(s.offsetFor(int(est))) {
		// est is the log of a uint64 estimate; an offset past the one
		// est calls for would make the next rescale shift counters up.
		return binenc.ErrCorrupt
	}
	s.aPri, s.tPri = counterSums(run)
	vla.Load(s.arr[s.cur], run)
	s.b, s.est = int(b), int(est)
	s.failed = failed
	s.rescales = int(rescales)
	s.drains = int(drains)
	return nil
}

// counterSums returns the accumulators A and T of stored counters
// (C+1 each).
func counterSums(cs []byte) (a, t int) {
	for _, v := range cs {
		if v > 0 {
			t++
		}
		a += int(bitutil.CeilLog2(uint64(v) + 1))
	}
	return a, t
}

// appendState serializes the small-F0 companion. The exact-key set is
// held sorted, so the encoding is canonical: equal states always
// marshal to equal bytes.
func (s *smallF0) appendState(w *binenc.Writer) {
	w.Uints(s.exact)
	w.Bool(s.overflow)
	w.Uints(s.bv.Words())
}

// restoreState loads the small-F0 companion. Payloads whose exact keys
// are unsorted or repeated load as the set they name, sorted and
// deduplicated.
func (s *smallF0) restoreState(r *binenc.Reader, k int) error {
	keys := r.Uints(ExactCap + 1)
	overflow := r.Bool()
	words := r.Uints((2*k + 63) / 64)
	if r.Err() != nil {
		return r.Err()
	}
	if len(words) != len(s.bv.Words()) {
		return binenc.ErrCorrupt
	}
	slices.Sort(keys)
	s.exact = slices.Compact(keys)
	s.overflow = overflow
	s.bv.Load(words)
	return nil
}
