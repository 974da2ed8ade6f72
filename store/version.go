package store

import (
	"bytes"

	knw "repro"
)

// Per-entry version counters and delta snapshots: the store side of
// the gossip protocol (cluster/gossip.go) and of incremental
// checkpoints (checkpoint.go).
//
// Every entry carries a monotonically increasing version, bumped by
// exactly the operations that change its canonical all-time state: a
// drain that applied buffered keys, a writer's direct apply of a batch
// that overflowed its slot, a Merge, a Restore, and a checkpoint
// install. Versions start at 1 on creation (so "store
// exists, still empty" is itself replicable state) and are
// process-local — they are never persisted, and peers pair them with a
// per-process instance id (see cluster/gossip.go) so a restarted
// node's counters can never be confused with its previous life's.
//
// DeltaSnapshot serves the versioned read: "give me what changed since
// base". The entry keeps a section-level encode cache — the last full
// envelope, split via knw.SplitEnvelope, with a per-section version
// stamp recording when each section last changed. Serving a delta is
// then a stamp comparison: sections stamped after the requested base
// go into a KNWD envelope, everything else is omitted. Stamps are
// maintained by bytes-comparing each refresh against the previous
// cache, so an entry whose drain touched 2 of 600 copies ships 2
// sections, not 600. Over-inclusion (a fresh cache stamps everything
// current) is always safe — sketch sections are whole-state, not
// diffs — it only costs bytes.

// DeltaSnap is one versioned snapshot response.
type DeltaSnap struct {
	// Version is the entry's current version — what the receiver holds
	// after applying Env.
	Version uint64
	// Delta reports whether Env is a KNWD delta against the requested
	// base (false: a full KNWE envelope). Meaningless when Env is nil.
	Delta bool
	// Env is the envelope bytes, or nil when the requested base is
	// already current. It aliases the entry's encode cache: treat as
	// read-only, copy if it must outlive the next store write.
	Env []byte
}

// sectionCache is an entry's section-level encode cache, guarded by
// the entry mutex. A refresh replaces the whole struct, so a DeltaSnap
// handed out earlier keeps aliasing the immutable previous generation.
type sectionCache struct {
	version  uint64 // entry version this cache encodes
	full     []byte // the full KNWE envelope
	split    knw.EnvelopeSections
	secVers  []uint64 // entry version at which each section last changed
	sections bool     // split succeeded; deltas can be served
}

// refreshEncLocked brings the entry's encode cache to its current
// version. Callers hold e.mu and have drained.
func (s *Store) refreshEncLocked(e *entry) {
	v := e.version.Load()
	if c := e.enc; c != nil && c.version == v {
		return
	}
	full := appendSketch(nil, e.total)
	nc := &sectionCache{version: v, full: full}
	split, serr := knw.SplitEnvelope(full)
	if serr == nil {
		nc.split = split
		nc.sections = true
		nc.secVers = make([]uint64, len(split.Sections))
		prev := e.enc
		carry := prev != nil && prev.sections &&
			len(prev.split.Sections) == len(split.Sections) &&
			bytes.Equal(prev.split.Header, split.Header)
		for i := range nc.secVers {
			if carry && bytes.Equal(prev.split.Sections[i], split.Sections[i]) {
				nc.secVers[i] = prev.secVers[i]
			} else {
				nc.secVers[i] = v
			}
		}
	}
	e.enc = nc
}

// DeltaSnapshot returns name's envelope relative to base: nil bytes
// when base is already current, a KNWD delta when the entry can prove
// which sections changed since base, and a full KNWE envelope
// otherwise (first contact, an unknown or future base, a section
// structure the splitter cannot frame, or a delta that would not
// actually be smaller). With compress set, delta bodies are
// DEFLATE-compressed when that shrinks them.
func (s *Store) DeltaSnapshot(name string, base uint64, compress bool) (DeltaSnap, error) {
	e, err := s.lookup(name, false)
	if err != nil {
		return DeltaSnap{}, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	s.drainLocked(e) // versioned reads carry every acknowledged write
	v := e.version.Load()
	if base == v {
		return DeltaSnap{Version: v}, nil
	}
	s.refreshEncLocked(e)
	c := e.enc
	if base == 0 || base > v || !c.sections {
		return DeltaSnap{Version: v, Env: c.full}, nil
	}
	var changed []int
	for i, sv := range c.secVers {
		if sv > base {
			changed = append(changed, i)
		}
	}
	delta, err := knw.AppendDelta(nil, c.split, base, v, changed, compress)
	if err != nil || len(delta) >= len(c.full) {
		return DeltaSnap{Version: v, Env: c.full}, nil
	}
	return DeltaSnap{Version: v, Delta: true, Env: delta}, nil
}

// Version returns name's current entry version, or 0 for never-written
// names. It does not drain: pending delta-slot keys version on their
// next drain, so a version observed here is at most one epoch behind.
func (s *Store) Version(name string) uint64 {
	e, err := s.lookup(name, false)
	if err != nil {
		return 0
	}
	return e.version.Load()
}

// Digest returns the store's version vector: every entry name mapped
// to its current version. This is what gossip digests exchange, so
// entries with buffered writes are drained first — an advertised
// version always covers every acknowledged write, which is what keeps
// the replication staleness bound at the gossip interval rather than
// interval + epoch age.
func (s *Store) Digest() map[string]uint64 {
	out := make(map[string]uint64, s.Len())
	var dirty []*entry
	var names []string
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for name, e := range sh.m {
			if e.pending.Load() > 0 {
				dirty = append(dirty, e)
				names = append(names, name)
				continue
			}
			out[name] = e.version.Load()
		}
		sh.mu.RUnlock()
	}
	for i, e := range dirty {
		e.mu.Lock()
		s.drainLocked(e)
		out[names[i]] = e.version.Load()
		e.mu.Unlock()
	}
	return out
}
