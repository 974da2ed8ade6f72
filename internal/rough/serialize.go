package rough

import (
	"fmt"

	"repro/internal/binenc"
)

// AppendState serializes the estimator's dynamic state (counters,
// suffix occupancy, cursors). Hash functions are not serialized —
// callers reconstruct the estimator from its seed and configuration
// first, then restore state.
func (e *Estimator) AppendState(w *binenc.Writer) {
	w.Uvarint(uint64(e.kre))
	w.Uvarint(uint64(e.logN))
	for j := range e.subs {
		s := &e.subs[j]
		// The Uints encoding, written without an intermediate slice.
		w.Uvarint(uint64(len(s.c)))
		for _, c := range s.c {
			w.Uvarint(uint64(c + 1)) // −1 → 0 keeps the varints tiny
		}
		w.Uvarint(uint64(len(s.t)))
		for _, t := range s.t {
			w.Uvarint(uint64(t))
		}
		w.Varint(int64(s.r))
	}
}

// RestoreState loads state produced by AppendState into an estimator
// built with the same configuration and seed.
func (e *Estimator) RestoreState(r *binenc.Reader) error {
	if kre := r.Uvarint(); r.Err() == nil && int(kre) != e.kre {
		return fmt.Errorf("rough: state KRE %d does not match estimator KRE %d", kre, e.kre)
	}
	if logN := r.Uvarint(); r.Err() == nil && uint(logN) != e.logN {
		return fmt.Errorf("rough: state LogN %d does not match estimator LogN %d", logN, e.logN)
	}
	for j := range e.subs {
		s := &e.subs[j]
		cs := r.Uints(e.kre)
		ts := r.Uints(int(e.logN) + 2)
		rr := r.Varint()
		if r.Err() != nil {
			return r.Err()
		}
		if len(cs) != len(s.c) || len(ts) != len(s.t) {
			return binenc.ErrCorrupt
		}
		for i, v := range cs {
			if v > uint64(e.logN)+1 {
				return binenc.ErrCorrupt
			}
			s.c[i] = int8(int(v) - 1)
		}
		for i, v := range ts {
			s.t[i] = uint32(v)
		}
		if rr < -1 || rr > int64(e.logN) {
			return binenc.ErrCorrupt
		}
		s.r = int(rr)
	}
	return nil
}
