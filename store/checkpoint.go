package store

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"time"

	knw "repro"
)

// Checkpoint files are record streams (records.go) in a chain of two.
// The full file (StreamCheckpoint, anchored at a fresh nonzero id)
// holds every entry: name, version, all-time envelope and, once the
// ring has started, the ring. The delta file (StreamCheckpointDelta,
// anchored at the full file's id) is what CheckpointIncremental writes
// between full rewrites: the entries whose version moved since the
// full file, each as a KNWD delta against the full file's envelope
// (envelope_delta.go, the codec gossip ships) or as a KNWE envelope.
// The delta is cumulative, so loading reads the full file, then the
// delta file whose anchor matches; a stale delta (a crash between the
// full rewrite and the delta removal) is ignored whole. Both are
// written atomically (temp file + fsync + rename), and every sketch in
// them is the envelope /v1/snapshot serves.
const (
	// CheckpointFile is the full-checkpoint file name Checkpoint writes
	// inside its directory argument.
	CheckpointFile = "checkpoint.knwc"
	// CheckpointDeltaFile is the cumulative delta file
	// CheckpointIncremental writes between full rewrites.
	CheckpointDeltaFile = "checkpoint.knwi"
	// defaultCkptFullEvery is the Config.CheckpointFullEvery default:
	// every 8th CheckpointIncremental call rewrites the full file.
	defaultCkptFullEvery = 8
)

// ckptBufs pools whole-checkpoint encode buffers across ticks.
var ckptBufs = sync.Pool{New: func() any { return new([]byte) }}

// Checkpoint atomically writes every store entry to
// dir/checkpoint.knwc, creating dir if needed, and restarts the
// incremental chain on it. Each entry is captured under its own lock:
// the file is per-entry consistent, which is the granularity ingestion
// already has.
func (s *Store) Checkpoint(dir string) error {
	start := time.Now()
	s.ckptMu.Lock()
	size, err := s.checkpointLocked(dir, StreamCheckpoint)
	s.ckptMu.Unlock()
	s.noteCheckpoint(start, size, err)
	return err
}

// CheckpointIncremental writes the cheapest checkpoint that still
// makes dir recoverable: a full rewrite when there is no chain to
// extend (first call, or every CheckpointFullEvery-th call), otherwise
// the cumulative delta file against the last full rewrite. In the
// steady state of a distinct-count store — most traffic re-observing
// known keys — the delta file is orders of magnitude smaller than the
// full one, and knwd_store_checkpoint_bytes shows exactly that.
func (s *Store) CheckpointIncremental(dir string) error {
	start := time.Now()
	s.ckptMu.Lock()
	kind := StreamCheckpointDelta
	if s.ckptID == 0 || s.ckptSeq >= uint64(s.ckptFullEvery())-1 {
		kind = StreamCheckpoint
	}
	size, err := s.checkpointLocked(dir, kind)
	s.ckptMu.Unlock()
	s.noteCheckpoint(start, size, err)
	return err
}

func (s *Store) ckptFullEvery() int {
	if s.cfg.CheckpointFullEvery > 0 {
		return s.cfg.CheckpointFullEvery
	}
	return defaultCkptFullEvery
}

// checkpointLocked writes one checkpoint file of kind: the full file,
// restarting the chain on it, or the cumulative delta file against the
// chain's full file. Callers hold ckptMu, with a live chain for a
// delta.
func (s *Store) checkpointLocked(dir string, kind StreamKind) (int, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	buf := ckptBufs.Get().(*[]byte)
	defer ckptBufs.Put(buf)
	sw := StreamWriter{Header: StreamHeader{Kind: kind, Anchor: s.ckptID}}
	file := CheckpointDeltaFile
	if kind == StreamCheckpoint {
		sw.Header.Anchor = uint64(time.Now().UnixNano()) | 1
		file = CheckpointFile
	}
	sw.body.Buf = (*buf)[:0]
	base, err := s.appendCheckpoint(&sw)
	*buf = sw.body.Buf
	if err != nil {
		return 0, err
	}
	head := sw.Head()
	if err := writeFileAtomic(filepath.Join(dir, file), head, sw.Body()); err != nil {
		return 0, err
	}
	if kind == StreamCheckpointDelta {
		s.ckptSeq++
	} else {
		s.ckptID, s.ckptSeq, s.ckptBase = sw.Header.Anchor, 0, base
		// The old delta file chains to the replaced full file.
		// Best-effort removal: if it survives (or a crash lands here),
		// its anchor no longer matches and LoadCheckpoint ignores it.
		_ = os.Remove(filepath.Join(dir, CheckpointDeltaFile))
	}
	return len(head) + len(sw.Body()), nil
}

// appendCheckpoint adds the entries' records to sw and returns the
// per-entry versions it captured.
func (s *Store) appendCheckpoint(sw *StreamWriter) (map[string]uint64, error) {
	names := s.Names()
	base := make(map[string]uint64, len(names))
	for _, name := range names {
		e, err := s.lookup(name, false)
		if err != nil {
			// Entries are never deleted; a name from Names() resolves.
			return nil, err
		}
		base[name] = e.appendCheckpoint(s, sw, name)
	}
	return base, nil
}

// appendCheckpoint adds one entry's record under its lock and returns
// the entry version it captured. In a delta file, an entry unchanged
// since the chain's full file writes nothing, and a changed one writes
// a KNWD section delta when the encode cache can prove what changed
// and the delta is smaller than the envelope.
func (e *entry) appendCheckpoint(s *Store, sw *StreamWriter, name string) uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	s.drainLocked(e) // checkpoints must carry every acknowledged write
	base, inBase := s.ckptBase[name]
	delta := sw.Header.Kind == StreamCheckpointDelta && inBase
	if delta && e.version.Load() == base {
		return base
	}
	// Serve the envelope from the section cache: the bytes the file
	// holds are then the exact generation the cache's section stamps
	// describe, so a later delta file's "unchanged since the full
	// rewrite" is a statement about these bytes, not a re-marshal.
	s.refreshEncLocked(e)
	c := e.enc
	env := c.full
	if delta && base < c.version && c.sections {
		var idx []int
		for i, sv := range c.secVers {
			if sv > base {
				idx = append(idx, i)
			}
		}
		if d, err := knw.AppendDelta(nil, c.split, base, c.version, idx, true); err == nil && len(d) < len(env) {
			env = d
		}
	}
	sw.add(name, c.version, env, nil, e.ringView())
	return c.version
}

// ErrCorruptCheckpoint is wrapped by every LoadCheckpoint failure that
// stems from truncated or malformed checkpoint bytes (as opposed to a
// kind/options/seed mismatch, which wraps knw.ErrIncompatible).
// Callers test for it with errors.Is to distinguish "the file is
// damaged, restore from a replica" from "this daemon is configured
// differently from the one that wrote the file".
var ErrCorruptCheckpoint = errors.New("store: corrupt checkpoint")

// ckptEntry is one fully decoded, validated checkpoint entry, staged
// before installation so a failure partway through the file never
// leaves a partially restored registry behind.
type ckptEntry struct {
	name  string
	total knw.Estimator
	epoch int64
	ring  []knw.Estimator // oldest → newest; nil when the ring is not restored
}

// LoadCheckpoint restores the checkpoint written by Checkpoint or
// CheckpointIncremental into the store, replacing any same-named
// entries: the full file first, then the delta file spliced over it
// when its anchor matches (a mismatched delta file is a stale leftover
// and is ignored whole). A missing checkpoint file is not an error
// (the store simply starts empty). Loading is all-or-nothing: both
// files are decoded and validated before any entry is installed, so a
// truncated or bit-flipped checkpoint returns an error wrapping
// ErrCorruptCheckpoint (or knw.ErrIncompatible for mismatched sketch
// configurations) and leaves the store exactly as it was — never a
// partial registry, never a panic. It returns the number of entries
// restored.
//
// A window ring restores only when it fits the store's window
// (ringFits); otherwise the entry keeps its all-time sketch (which
// already contains every windowed key) and starts a fresh ring.
func (s *Store) LoadCheckpoint(dir string) (int, error) {
	data, err := os.ReadFile(filepath.Join(dir, CheckpointFile))
	if errors.Is(err, fs.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	full, err := decodeCheckpointFile(data, StreamCheckpoint)
	if err != nil {
		return 0, err
	}
	records := full.Records
	ddata, derr := os.ReadFile(filepath.Join(dir, CheckpointDeltaFile))
	if derr == nil {
		delta, err := decodeCheckpointFile(ddata, StreamCheckpointDelta)
		if err != nil {
			return 0, err
		}
		if full.Anchor != 0 && delta.Anchor == full.Anchor {
			if records, err = spliceCheckpointDelta(records, delta.Records); err != nil {
				return 0, err
			}
		}
	} else if !errors.Is(derr, fs.ErrNotExist) {
		return 0, derr
	}
	staged := make([]ckptEntry, 0, len(records))
	for i := range records {
		ent, err := s.stageEntry(&records[i])
		if err != nil {
			return 0, err
		}
		staged = append(staged, ent)
	}
	for i := range staged {
		s.installEntry(&staged[i])
	}
	return len(staged), nil
}

// decodeCheckpointFile decodes a checkpoint file of the given kind,
// record stream or legacy.
func decodeCheckpointFile(data []byte, kind StreamKind) (Stream, error) {
	decode := DecodeStream
	if legacyMagic(data) {
		decode = decodeLegacyCheckpoint
	}
	st, err := decode(data, kind)
	if err != nil {
		return Stream{}, fmt.Errorf("%w: %v", ErrCorruptCheckpoint, err)
	}
	return st, nil
}

// spliceCheckpointDelta folds a delta file's records over the full
// file's: KNWD envelopes are applied to the matching base record's
// bytes, full envelopes replace the record, new names are added.
func spliceCheckpointDelta(full, delta []Record) ([]Record, error) {
	byName := make(map[string]int, len(full))
	for i := range full {
		byName[full[i].Name] = i
	}
	for _, rec := range delta {
		i, held := byName[rec.Name]
		if knw.IsDelta(rec.Env) {
			if !held {
				return nil, fmt.Errorf("%w: delta for unknown entry %q", ErrCorruptCheckpoint, rec.Name)
			}
			d, err := knw.DecodeDelta(rec.Env)
			if err != nil {
				return nil, fmt.Errorf("%w: entry %q: %v", ErrCorruptCheckpoint, rec.Name, err)
			}
			if d.Base != full[i].Version || d.Next != rec.Version {
				return nil, fmt.Errorf("%w: entry %q delta chain %d→%d does not extend version %d",
					ErrCorruptCheckpoint, rec.Name, d.Base, d.Next, full[i].Version)
			}
			env, err := knw.ApplyDelta(full[i].Env, rec.Env)
			if err != nil {
				return nil, fmt.Errorf("%w: entry %q: %v", ErrCorruptCheckpoint, rec.Name, err)
			}
			rec.Env = env
		}
		if held {
			full[i] = rec
		} else {
			byName[rec.Name] = len(full)
			full = append(full, rec)
		}
	}
	return full, nil
}

// stageEntry opens and validates one record's envelopes.
func (s *Store) stageEntry(rec *Record) (ckptEntry, error) {
	ent := ckptEntry{name: rec.Name, epoch: rec.Ring.Epoch}
	total, err := s.openCompatible(rec.Env)
	if err != nil {
		return ent, wrapEntryErr(rec.Name, err)
	}
	ent.total = total
	if !s.ringFits(rec.Ring) {
		return ent, nil // the window changed; drop the saved ring
	}
	ent.ring = make([]knw.Estimator, 0, len(rec.Ring.Buckets))
	for _, env := range rec.Ring.Buckets {
		b, err := s.openCompatible(env)
		if err != nil {
			return ent, wrapEntryErr(rec.Name, err)
		}
		ent.ring = append(ent.ring, b)
	}
	return ent, nil
}

// ringFits reports whether a saved ring can restore into the store's
// window: same bucket count and same interval. A legacy ring records
// no interval, so its epoch is the only witness: it restores only when
// it is not ahead of the store clock's interval index, since a ring
// from a finer interval would sit in the future and never rotate.
func (s *Store) ringFits(r RingRecord) bool {
	w := s.cfg.Window
	if !w.enabled() || len(r.Buckets) != w.Buckets {
		return false
	}
	if r.Interval == 0 {
		return r.Epoch <= s.now().UnixNano()/int64(w.Interval)
	}
	return r.Interval == w.Interval
}

// wrapEntryErr classifies an envelope-open failure: configuration
// mismatches keep their knw.ErrIncompatible identity, everything else
// (undecodable bytes) is corruption.
func wrapEntryErr(name string, err error) error {
	if errors.Is(err, knw.ErrIncompatible) {
		return fmt.Errorf("store: checkpoint entry %q: %w", name, err)
	}
	return fmt.Errorf("%w: entry %q: %v", ErrCorruptCheckpoint, name, err)
}

// installEntry swaps a staged checkpoint entry into the registry.
func (s *Store) installEntry(ent *ckptEntry) {
	e, err := s.lookup(ent.name, true)
	if err != nil {
		// The stream reader validated the name; lookup cannot fail here.
		panic("store: installing validated checkpoint entry: " + err.Error())
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	// Same contract as Restore: keys pending at install time belong to
	// the pre-restore state, not the checkpointed one.
	s.drainLocked(e)
	e.total = ent.total
	e.version.Add(1)
	if ent.ring != nil && e.window != nil {
		e.window.install(ent.epoch, ent.ring)
	}
}

// openCompatible opens an envelope and verifies it matches the store's
// kind, options, and seed.
func (s *Store) openCompatible(env []byte) (knw.Estimator, error) {
	est, err := knw.Open(env)
	if err != nil {
		return nil, err
	}
	if err := knw.Compatible(s.template, est); err != nil {
		return nil, err
	}
	return est, nil
}

// writeFileAtomic writes the chunks, in order, next to path and
// renames the file into place, syncing it first so the rename never
// publishes a torn write.
func writeFileAtomic(path string, chunks ...[]byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	for _, data := range chunks {
		if _, err := tmp.Write(data); err != nil {
			tmp.Close()
			return err
		}
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	// Best-effort directory sync so the rename itself is durable.
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	return nil
}
