package knw

import (
	"errors"
	"fmt"
)

// ErrIncompatible is wrapped by every merge/restore failure that stems
// from a kind, configuration, or seed mismatch — as opposed to corrupt
// bytes. Callers holding only Estimator interfaces (the store and
// service layers, which accept foreign envelopes over the network) test
// for it with errors.Is to distinguish "this peer is configured
// differently" (a client error, HTTP 409) from "this payload is
// garbage" (HTTP 400).
var ErrIncompatible = errors.New("knw: incompatible sketch configuration")

// errIncompatible builds a mismatch error carrying detail text.
func errIncompatible(format string, args ...any) error {
	return fmt.Errorf(format+": %w", append(args, ErrIncompatible)...)
}

// Compatible reports whether src can be merged into dst: both must be
// the same concrete wire type with equal options and seed (so their
// hash functions coincide). It returns nil on success and an error
// wrapping ErrIncompatible otherwise. It never mutates either sketch.
func Compatible(dst, src Estimator) error {
	switch d := dst.(type) {
	case *F0:
		s, ok := src.(*F0)
		if !ok {
			return errKindMismatch(dst, src)
		}
		if d.cfg != s.cfg {
			return errCfgMismatch(dst)
		}
	case *L0:
		s, ok := src.(*L0)
		if !ok {
			return errKindMismatch(dst, src)
		}
		if d.cfg != s.cfg {
			return errCfgMismatch(dst)
		}
	default:
		return errIncompatible("knw: %s does not support merging", dst.Name())
	}
	return nil
}

// MergeInto folds src into dst through the Estimator interface,
// dispatching to the concrete Merge of the two wire types. It is the
// interface-level counterpart of the typed Merge methods, for callers
// (stores, services) that hold sketches behind Estimator — e.g. after
// knw.Open on a peer's envelope. Mismatched kinds or configurations
// return an error wrapping ErrIncompatible; nothing panics on foreign
// payloads.
func MergeInto(dst, src Estimator) error {
	if err := Compatible(dst, src); err != nil {
		return err
	}
	switch d := dst.(type) {
	case *F0:
		return d.Merge(src.(*F0))
	case *L0:
		return d.Merge(src.(*L0))
	}
	return errIncompatible("knw: %s does not support merging", dst.Name())
}

func errKindMismatch(dst, src Estimator) error {
	return errIncompatible("knw: cannot merge a %s into a %s", kindOf(src), kindOf(dst))
}

func errCfgMismatch(dst Estimator) error {
	return errIncompatible("knw: cannot merge %s sketches with different configurations", kindOf(dst))
}

// kindOf names an estimator for error messages: the registry kind when
// the sketch has one, its Name() otherwise.
func kindOf(e Estimator) string {
	if k, ok := e.(interface{ Kind() Kind }); ok {
		return k.Kind().String()
	}
	return e.Name()
}
