package store

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	knw "repro"
	"repro/internal/binenc"
)

// Checkpoint files come in two kinds that chain together:
//
// The full file ("KNWC") holds every store entry, written atomically
// (temp file + fsync + rename) so a crash mid-write leaves the
// previous checkpoint intact:
//
//	uvarint ckptMagic ("KNWC")
//	uvarint ckptVersion (2)
//	uvarint checkpoint id (nonzero; 0 only in legacy v1 files)
//	uvarint entry count
//	per entry (sorted by name):
//	  bytes   name
//	  uvarint entry version at capture
//	  bytes   all-time sketch envelope (the PR-2 self-describing format)
//	  bool    windowed
//	  if windowed:
//	    bool    started
//	    varint  epoch
//	    uvarint current bucket index
//	    uvarint bucket count
//	    bytes   bucket envelope × count
//
// Version-1 files (no checkpoint id, no per-entry versions) still
// load; they simply cannot anchor a delta file.
//
// The delta file ("KNWI") is what CheckpointIncremental writes between
// full rewrites: a cumulative set of the entries whose version moved
// since the full file was captured, each carried either as a KNWD
// delta envelope against the full file's envelope (envelope_delta.go —
// the same codec gossip ships) or as a full KNWE envelope (new
// entries, windowed entries, deltas that would not shrink):
//
//	uvarint ckptDeltaMagic ("KNWI")
//	uvarint ckptDeltaVersion (1)
//	uvarint base checkpoint id (must match the full file's)
//	uvarint sequence (1, 2, ... since the full rewrite)
//	uvarint entry count
//	per entry: as the full file, with the envelope KNWE or KNWD
//
// Because the delta is cumulative, loading needs exactly two files:
// the full file, then the latest delta whose base id matches. A stale
// delta (left behind by a crash between the full rewrite and the delta
// removal) has a mismatched base id and is ignored whole.
//
// Every sketch is stored as its own envelope, so a checkpoint is just
// a named collection of the same blobs /v1/snapshot serves and
// knw.Open restores — there is exactly one sketch wire format in the
// system, plus its one delta form.
const (
	ckptMagic        = 0x4b4e5743 // "KNWC"
	ckptVersion      = 2
	ckptDeltaMagic   = 0x4b4e5749 // "KNWI"
	ckptDeltaVersion = 1
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
	size, err := s.checkpointFullLocked(dir)
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
	var size int
	var err error
	if s.ckptID == 0 || s.ckptSeq >= uint64(s.ckptFullEvery())-1 {
		size, err = s.checkpointFullLocked(dir)
	} else {
		size, err = s.checkpointDeltaLocked(dir)
	}
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

// checkpointFullLocked writes the full file and, on success, resets
// the chain state to it. Callers hold ckptMu.
func (s *Store) checkpointFullLocked(dir string) (int, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	buf := ckptBufs.Get().(*[]byte)
	defer ckptBufs.Put(buf)
	id := uint64(time.Now().UnixNano()) | 1
	var base map[string]uint64
	var err error
	*buf, base, err = s.appendCheckpoint((*buf)[:0], id)
	if err != nil {
		return 0, err
	}
	if err := writeFileAtomic(filepath.Join(dir, CheckpointFile), *buf); err != nil {
		return 0, err
	}
	s.ckptID = id
	s.ckptSeq = 0
	s.ckptBase = base
	// The old delta file chains to the replaced full file. Best-effort
	// removal: if it survives (or a crash lands here), its base id no
	// longer matches and LoadCheckpoint ignores it.
	_ = os.Remove(filepath.Join(dir, CheckpointDeltaFile))
	return len(*buf), nil
}

// appendCheckpoint encodes the whole store to buf and returns the
// per-entry versions it captured.
func (s *Store) appendCheckpoint(buf []byte, id uint64) ([]byte, map[string]uint64, error) {
	names := s.Names()
	base := make(map[string]uint64, len(names))
	w := binenc.Writer{Buf: buf}
	w.Uvarint(ckptMagic)
	w.Uvarint(ckptVersion)
	w.Uvarint(id)
	w.Uvarint(uint64(len(names)))
	for _, name := range names {
		e, err := s.lookup(name, false)
		if err != nil {
			// Entries are never deleted; a name from Names() resolves.
			return nil, nil, err
		}
		base[name] = e.appendCheckpoint(s, &w, name)
	}
	return w.Buf, base, nil
}

// appendCheckpoint encodes one entry under its lock and returns the
// entry version the frame captured.
func (e *entry) appendCheckpoint(s *Store, w *binenc.Writer, name string) uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	s.drainLocked(e) // checkpoints must carry every acknowledged write
	// Serve the envelope from the section cache: the bytes the file
	// holds are then the exact generation the cache's section stamps
	// describe, so a later delta file's "unchanged since the full
	// rewrite" is a statement about these bytes, not a re-marshal.
	s.refreshEncLocked(e)
	w.Bytes([]byte(name))
	w.Uvarint(e.enc.version)
	w.Bytes(e.enc.full)
	e.appendWindowLocked(w)
	return e.enc.version
}

// appendWindowLocked encodes the windowed flag and, when set, the
// window ring. Callers hold e.mu.
func (e *entry) appendWindowLocked(w *binenc.Writer) {
	w.Bool(e.window != nil)
	if e.window == nil {
		return
	}
	win := e.window
	w.Bool(win.started)
	w.Varint(win.epoch)
	w.Uvarint(uint64(win.cur))
	w.Uvarint(uint64(len(win.buckets)))
	for _, b := range win.buckets {
		w.Frame(func(buf []byte) []byte { return appendSketch(buf, b) })
	}
}

// checkpointDeltaLocked writes the cumulative delta file: every entry
// whose version moved past the last full rewrite, as a KNWD section
// delta when the encode cache can prove what changed, as a full
// envelope otherwise. Callers hold ckptMu with a live chain.
func (s *Store) checkpointDeltaLocked(dir string) (int, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	body := ckptBufs.Get().(*[]byte)
	defer ckptBufs.Put(body)
	bw := binenc.Writer{Buf: (*body)[:0]}
	count := uint64(0)
	for _, name := range s.Names() {
		e, err := s.lookup(name, false)
		if err != nil {
			return 0, err
		}
		if e.appendCheckpointDelta(s, &bw, name) {
			count++
		}
	}
	*body = bw.Buf
	buf := ckptBufs.Get().(*[]byte)
	defer ckptBufs.Put(buf)
	w := binenc.Writer{Buf: (*buf)[:0]}
	w.Uvarint(ckptDeltaMagic)
	w.Uvarint(ckptDeltaVersion)
	w.Uvarint(s.ckptID)
	w.Uvarint(s.ckptSeq + 1)
	w.Uvarint(count)
	w.Buf = append(w.Buf, *body...)
	*buf = w.Buf
	if err := writeFileAtomic(filepath.Join(dir, CheckpointDeltaFile), *buf); err != nil {
		return 0, err
	}
	s.ckptSeq++
	return len(*buf), nil
}

// appendCheckpointDelta encodes one entry's delta-file frame if its
// version moved past the chain base, reporting whether it wrote one.
func (e *entry) appendCheckpointDelta(s *Store, w *binenc.Writer, name string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	s.drainLocked(e)
	v := e.version.Load()
	base, inBase := s.ckptBase[name]
	if inBase && v == base {
		return false // unchanged since the full rewrite
	}
	s.refreshEncLocked(e)
	c := e.enc
	env := c.full
	// Window rings are not versioned, so windowed entries always carry
	// the full envelope plus the full ring.
	if inBase && base < c.version && c.sections && e.window == nil {
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
	w.Bytes([]byte(name))
	w.Uvarint(c.version)
	w.Bytes(env)
	e.appendWindowLocked(w)
	return true
}

// ErrCorruptCheckpoint is wrapped by every LoadCheckpoint failure that
// stems from truncated or malformed checkpoint bytes (as opposed to a
// kind/options/seed mismatch, which wraps knw.ErrIncompatible).
// Callers test for it with errors.Is to distinguish "the file is
// damaged, restore from a replica" from "this daemon is configured
// differently from the one that wrote the file".
var ErrCorruptCheckpoint = errors.New("store: corrupt checkpoint")

// rawCkptEntry is one checkpoint-file entry before any envelope is
// opened: name, version, raw envelope bytes (KNWE, or KNWD in a delta
// file), and the raw window ring. Raw staging is what lets the loader
// splice delta files into full-file bytes before validating anything.
type rawCkptEntry struct {
	name     string
	version  uint64
	env      []byte
	windowed bool
	started  bool
	epoch    int64
	cur      uint64
	buckets  [][]byte
}

// ckptEntry is one fully decoded, validated checkpoint entry, staged
// before installation so a failure partway through the file never
// leaves a partially restored registry behind.
type ckptEntry struct {
	name     string
	total    knw.Estimator
	windowed bool
	started  bool
	epoch    int64
	cur      int
	buckets  []knw.Estimator // nil when the ring is dropped (shape changed)
}

// LoadCheckpoint restores the checkpoint written by Checkpoint or
// CheckpointIncremental into the store, replacing any same-named
// entries: the full file first, then the delta file spliced over it
// when its base id matches (a mismatched delta file is a stale
// leftover and is ignored whole). A missing checkpoint file is not an
// error (the store simply starts empty). Loading is all-or-nothing:
// both files are decoded and validated before any entry is installed,
// so a truncated or bit-flipped checkpoint returns an error wrapping
// ErrCorruptCheckpoint (or knw.ErrIncompatible for mismatched sketch
// configurations) and leaves the store exactly as it was — never a
// partial registry, never a panic. It returns the number of entries
// restored.
//
// Window rings restore only when the store's window config matches the
// file's bucket count; otherwise the entry keeps its all-time sketch
// (which already contains every windowed key) and starts a fresh ring.
func (s *Store) LoadCheckpoint(dir string) (int, error) {
	data, err := os.ReadFile(filepath.Join(dir, CheckpointFile))
	if errors.Is(err, fs.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	id, raw, err := parseCheckpoint(data)
	if err != nil {
		return 0, err
	}
	ddata, derr := os.ReadFile(filepath.Join(dir, CheckpointDeltaFile))
	if derr == nil {
		baseID, _, drecs, err := parseCheckpointDelta(ddata)
		if err != nil {
			return 0, err
		}
		if id != 0 && baseID == id {
			if raw, err = spliceCheckpointDelta(raw, drecs); err != nil {
				return 0, err
			}
		}
	} else if !errors.Is(derr, fs.ErrNotExist) {
		return 0, derr
	}
	staged := make([]ckptEntry, 0, len(raw))
	for i := range raw {
		ent, err := s.stageEntry(&raw[i])
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

// parseCheckpoint decodes a full checkpoint file into raw entries
// without opening any envelope.
func parseCheckpoint(data []byte) (uint64, []rawCkptEntry, error) {
	r := binenc.Reader{Buf: data}
	r.Expect(ckptMagic, "checkpoint magic")
	ver := r.Uvarint()
	if r.Err() == nil && ver != 1 && ver != ckptVersion {
		return 0, nil, fmt.Errorf("%w: unsupported version %d", ErrCorruptCheckpoint, ver)
	}
	id := uint64(0)
	if ver == ckptVersion {
		id = r.Uvarint()
	}
	entries, err := parseCkptEntries(&r, ver >= 2, "checkpoint")
	if err != nil {
		return 0, nil, err
	}
	return id, entries, nil
}

// parseCheckpointDelta decodes a delta checkpoint file into raw
// entries (whose envelopes may be KNWD).
func parseCheckpointDelta(data []byte) (uint64, uint64, []rawCkptEntry, error) {
	r := binenc.Reader{Buf: data}
	r.Expect(ckptDeltaMagic, "checkpoint delta magic")
	if v := r.Uvarint(); r.Err() == nil && v != ckptDeltaVersion {
		return 0, 0, nil, fmt.Errorf("%w: unsupported delta version %d", ErrCorruptCheckpoint, v)
	}
	baseID := r.Uvarint()
	seq := r.Uvarint()
	entries, err := parseCkptEntries(&r, true, "checkpoint delta")
	if err != nil {
		return 0, 0, nil, err
	}
	return baseID, seq, entries, nil
}

// parseCkptEntries decodes the shared entry-list tail of both file
// kinds, enforcing sorted unique names and zero trailing bytes.
func parseCkptEntries(r *binenc.Reader, versioned bool, what string) ([]rawCkptEntry, error) {
	count := r.Uvarint()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("%w: bad %s header: %v", ErrCorruptCheckpoint, what, err)
	}
	if count > 1<<20 {
		return nil, fmt.Errorf("%w: %s header claims %d entries", ErrCorruptCheckpoint, what, count)
	}
	entries := make([]rawCkptEntry, 0, count)
	for i := uint64(0); i < count; i++ {
		var ent rawCkptEntry
		ent.name = string(r.BytesView())
		if versioned {
			ent.version = r.Uvarint()
		}
		ent.env = r.BytesView()
		ent.windowed = r.Bool()
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("%w: bad %s entry frame: %v", ErrCorruptCheckpoint, what, err)
		}
		if err := ValidateName(ent.name); err != nil {
			return nil, fmt.Errorf("%w: %s entry name: %v", ErrCorruptCheckpoint, what, err)
		}
		if i > 0 && ent.name <= entries[i-1].name {
			// Writers emit sorted names, so anything else (duplicates
			// included) is damage, not data.
			return nil, fmt.Errorf("%w: %s entry %q out of order after %q",
				ErrCorruptCheckpoint, what, ent.name, entries[i-1].name)
		}
		if ent.windowed {
			ent.started = r.Bool()
			ent.epoch = r.Varint()
			ent.cur = r.Uvarint()
			buckets := r.Uvarint()
			if err := r.Err(); err != nil {
				return nil, fmt.Errorf("%w: bad window header for %q: %v", ErrCorruptCheckpoint, ent.name, err)
			}
			if buckets > 1024 || ent.cur >= max(buckets, 1) {
				return nil, fmt.Errorf("%w: bad window header for %q", ErrCorruptCheckpoint, ent.name)
			}
			ent.buckets = make([][]byte, 0, buckets)
			for b := uint64(0); b < buckets; b++ {
				env := r.BytesView()
				if err := r.Err(); err != nil {
					return nil, fmt.Errorf("%w: bad window frame for %q: %v", ErrCorruptCheckpoint, ent.name, err)
				}
				ent.buckets = append(ent.buckets, env)
			}
		}
		entries = append(entries, ent)
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptCheckpoint, err)
	}
	if len(r.Buf) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes in %s", ErrCorruptCheckpoint, len(r.Buf), what)
	}
	return entries, nil
}

// spliceCheckpointDelta folds a delta file's records over the full
// file's: KNWD envelopes are applied to the matching base entry's
// bytes, full envelopes replace the entry, new names are appended.
func spliceCheckpointDelta(full []rawCkptEntry, delta []rawCkptEntry) ([]rawCkptEntry, error) {
	byName := make(map[string]int, len(full))
	for i := range full {
		byName[full[i].name] = i
	}
	for _, rec := range delta {
		i, held := byName[rec.name]
		if knw.IsDelta(rec.env) {
			if !held {
				return nil, fmt.Errorf("%w: delta for unknown entry %q", ErrCorruptCheckpoint, rec.name)
			}
			d, err := knw.DecodeDelta(rec.env)
			if err != nil {
				return nil, fmt.Errorf("%w: entry %q: %v", ErrCorruptCheckpoint, rec.name, err)
			}
			if d.Base != full[i].version || d.Next != rec.version {
				return nil, fmt.Errorf("%w: entry %q delta chain %d→%d does not extend version %d",
					ErrCorruptCheckpoint, rec.name, d.Base, d.Next, full[i].version)
			}
			env, err := knw.ApplyDelta(full[i].env, rec.env)
			if err != nil {
				return nil, fmt.Errorf("%w: entry %q: %v", ErrCorruptCheckpoint, rec.name, err)
			}
			rec.env = env
		}
		if held {
			full[i] = rec
		} else {
			byName[rec.name] = len(full)
			full = append(full, rec)
		}
	}
	sort.Slice(full, func(i, j int) bool { return full[i].name < full[j].name })
	return full, nil
}

// stageEntry opens and validates one raw entry's envelopes.
func (s *Store) stageEntry(raw *rawCkptEntry) (ckptEntry, error) {
	ent := ckptEntry{
		name:     raw.name,
		windowed: raw.windowed,
		started:  raw.started,
		epoch:    raw.epoch,
		cur:      int(raw.cur),
	}
	total, err := s.openCompatible(raw.env)
	if err != nil {
		return ent, wrapEntryErr(raw.name, err)
	}
	ent.total = total
	if !raw.windowed {
		return ent, nil
	}
	if !s.cfg.Window.enabled() || s.cfg.Window.Buckets != len(raw.buckets) {
		return ent, nil // window config changed; drop the saved ring
	}
	ent.buckets = make([]knw.Estimator, 0, len(raw.buckets))
	for _, env := range raw.buckets {
		b, err := s.openCompatible(env)
		if err != nil {
			return ent, wrapEntryErr(raw.name, err)
		}
		ent.buckets = append(ent.buckets, b)
	}
	return ent, nil
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
		// stageEntry validated the name; lookup cannot fail here.
		panic("store: installing validated checkpoint entry: " + err.Error())
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	// Same contract as Restore: keys pending at install time belong to
	// the pre-restore state, not the checkpointed one.
	s.drainLocked(e)
	e.total = ent.total
	e.version.Add(1)
	if ent.buckets == nil || e.window == nil {
		return
	}
	copy(e.window.buckets, ent.buckets)
	e.window.started = ent.started
	e.window.epoch = ent.epoch
	e.window.cur = ent.cur
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

// writeFileAtomic writes data next to path and renames it into place,
// syncing the file first so the rename never publishes a torn write.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
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
