// Package store is a multi-tenant registry of named KNW sketches: the
// state layer of the knwd service. Each name (by convention
// "tenant/metric") maps to one all-time sketch plus, optionally, a ring
// of time-bucketed window sketches, all created on first write from the
// store's default Kind and options. The registry is sharded and
// concurrency-safe; every sketch a store creates shares one seed, so
// everything inside a store — window buckets, checkpoint restores,
// snapshots exchanged with same-configured peers — stays mergeable.
package store

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	knw "repro"
	"repro/internal/metrics"
)

// ErrNotFound is returned by read operations on names that have never
// been written.
var ErrNotFound = errors.New("store: unknown store")

// ErrNotWindowed is returned by WindowSnapshot on stores built without
// a window configuration.
var ErrNotWindowed = errors.New("store: store is not windowed")

// registryShards is the shard count of the name→entry map. Entry
// lookup is a read-lock on one shard; only first-write creation takes
// a write lock.
const registryShards = 16

// maxNameLen bounds store names so foreign input cannot grow headers
// and checkpoint frames without bound.
const maxNameLen = 256

// Window configures time-bucketed rotation. The zero value disables
// windowing. With Buckets = N and Interval = d, each bucket covers one
// d-wide slice of wall time and the ring covers the last N·d: a
// windowed estimate merges all N buckets, so it reports the distinct
// count over at least (N−1)·d and at most N·d of trailing stream —
// bucket-granular sliding-window semantics.
type Window struct {
	Buckets  int
	Interval time.Duration
}

func (w Window) enabled() bool { return w.Buckets > 0 }

func (w Window) validate() error {
	if !w.enabled() {
		return nil
	}
	if w.Buckets < 2 || w.Buckets > maxRingBuckets {
		return fmt.Errorf("store: window buckets must be in [2, %d], got %d", maxRingBuckets, w.Buckets)
	}
	if w.Interval <= 0 {
		return fmt.Errorf("store: window interval must be positive, got %v", w.Interval)
	}
	return nil
}

// Span is the wall-clock width the full ring covers.
func (w Window) Span() time.Duration { return time.Duration(w.Buckets) * w.Interval }

// Config describes how a Store builds sketches.
type Config struct {
	// Kind is the estimator kind for every sketch the store creates.
	// It must be a wire kind (Kind.Wire): the store checkpoints through
	// MarshalBinary/knw.Open. Defaults to KindF0.
	Kind knw.Kind
	// Options are the default construction options. If they do not pin
	// a seed, the store draws one at creation and pins it, so all
	// sketches in the store (and its checkpoints) stay mergeable.
	Options []knw.Option
	// Window enables time-bucketed rotation for every store entry.
	Window Window
	// Now overrides the clock used for window rotation (tests). Nil
	// means time.Now.
	Now func() time.Time
	// CheckpointFullEvery is the cadence of full checkpoint rewrites
	// under CheckpointIncremental: every Nth call writes the full file,
	// the calls between write a cumulative delta file against it
	// (checkpoint.go). Zero means the default (8); 1 makes every
	// incremental call a full checkpoint.
	CheckpointFullEvery int
	// EpochInterval is the background delta-drain cadence (see
	// delta.go). Zero means the default (10ms) with the real clock; when
	// Now is overridden, zero disables the background loop so a test's
	// fake clock is never read from another goroutine — reads still
	// drain on demand, and tests can Flush explicitly. Negative disables
	// the loop unconditionally.
	EpochInterval time.Duration
	// Metrics, when non-nil, receives the store-layer instruments
	// (entry count, ingested keys, window rotations, checkpoint
	// duration/size/age, epoch drain backlog/latency). Nil disables
	// instrumentation.
	Metrics *metrics.Registry
	// Stages, when non-nil, receives the store's share of the
	// knwd_stage_seconds pipeline-stage histogram: slot_claim (the
	// delta-slot CAS), hash (Ingest: hashing into a slot buffer, or a
	// direct apply), append (IngestHashed: a buffer copy, or a direct
	// apply) and epoch_merge (an epoch drain feeding buffered keys to
	// the sketches). The service layer owns the vec so one family spans
	// the HTTP, store, and cluster layers.
	Stages *metrics.HistogramVec
}

// Store is the sharded, concurrency-safe sketch registry.
type Store struct {
	cfg      Config
	opts     []knw.Option // Config.Options with the seed pinned
	template knw.Estimator
	now      func() time.Time
	shards   [registryShards]registryShard
	met      storeMetrics
	lastCkpt atomic.Int64 // unix nanos of the last successful checkpoint

	// Incremental-checkpoint chain state (checkpoint.go): the id of the
	// last full checkpoint this process wrote, how many delta files have
	// been written against it, and the per-entry versions it captured.
	ckptMu   sync.Mutex
	ckptID   uint64
	ckptSeq  uint64
	ckptBase map[string]uint64

	// Hashing identity, pinned at New: what clients pre-hashing keys on
	// their side (the binary frame codec) must reproduce.
	seed         int64
	universeBits uint
	hasher       knw.SeededHasher[string]

	// Epoch drain state (delta.go).
	slots       int       // delta slots per entry
	bufs        sync.Pool // empty *keyBuf slot buffers
	dirtyMu     sync.Mutex
	dirty       []*entry
	pendingKeys atomic.Int64 // undrained keys across all entries
	dirtySince  atomic.Int64 // unix nanos the dirty list became non-empty
	lastFlush   atomic.Int64 // unix nanos of the last completed Flush pass
	stop        chan struct{}
	loopDone    chan struct{}
	closeOnce   sync.Once
}

type registryShard struct {
	mu sync.RWMutex
	m  map[string]*entry
}

// entry is one named sketch: the all-time total, the optional window
// ring, and the delta slots ingestion buffers keys in (delta.go). The
// entry mutex serializes drains, rotation, estimation, merging, and
// checkpoint capture. Ingest/IngestHashed take it only for a batch
// that does not fit their slot's buffer; otherwise they just claim a
// slot, so concurrent writers never share a buffer.
type entry struct {
	mu     sync.Mutex
	total  knw.Estimator
	window *windowRing
	// version counts state changes to total (drains that applied keys,
	// direct applies, Merge, Restore, checkpoint install), starting at 1
	// on creation; enc is the section-level encode cache DeltaSnapshot
	// serves from (version.go). enc is guarded by mu.
	version atomic.Uint64
	enc     *sectionCache

	slots      []deltaSlot
	pending    atomic.Int64 // keys in slots not yet drained
	queued     atomic.Bool  // on the store's dirty list
	writeStamp atomic.Int64 // store-clock nanos of the last windowed write
}

// New builds an empty store. The configured kind must serialize
// (checkpointing needs MarshalBinary / knw.Open).
func New(cfg Config) (*Store, error) {
	if cfg.Kind == knw.KindInvalid {
		cfg.Kind = knw.KindF0
	}
	if !cfg.Kind.Wire() {
		return nil, fmt.Errorf("store: kind %s does not serialize and cannot be checkpointed", cfg.Kind)
	}
	if err := cfg.Window.validate(); err != nil {
		return nil, err
	}
	s := &Store{cfg: cfg, now: cfg.Now}
	if s.now == nil {
		s.now = time.Now
	}
	// Pin the seed: build one probe sketch with the caller's options and
	// re-append whatever seed it resolved (the caller's when given, a
	// time-drawn one otherwise). Every subsequent sketch then shares it.
	probe, err := knw.New(cfg.Kind, cfg.Options...)
	if err != nil {
		return nil, err
	}
	seeded, ok := probe.(interface{ Seed() int64 })
	if !ok {
		return nil, fmt.Errorf("store: kind %s does not expose its seed", cfg.Kind)
	}
	s.opts = append(append([]knw.Option{}, cfg.Options...), knw.WithSeed(seeded.Seed()))
	s.template = probe // never ingested into; used for compatibility checks
	s.seed = seeded.Seed()
	s.universeBits = 64
	if u, ok := probe.(interface{ UniverseBits() uint }); ok {
		s.universeBits = u.UniverseBits()
	}
	s.hasher = knw.NewHasher[string](s.seed, s.universeBits)
	s.slots = slotsPerEntry()
	for i := range s.shards {
		s.shards[i].m = make(map[string]*entry)
	}
	s.initMetrics(cfg.Metrics)
	if interval := s.epochInterval(); interval > 0 {
		s.stop = make(chan struct{})
		s.loopDone = make(chan struct{})
		go s.run(interval)
	}
	return s, nil
}

// epochInterval resolves the background drain cadence: the configured
// interval, the default under the real clock, off under a fake clock
// (unless explicitly set) or a negative config.
func (s *Store) epochInterval() time.Duration {
	switch {
	case s.cfg.EpochInterval > 0:
		return s.cfg.EpochInterval
	case s.cfg.EpochInterval < 0 || s.cfg.Now != nil:
		return 0
	default:
		return defaultEpochInterval
	}
}

// Seed returns the store's pinned sketch seed — with UniverseBits,
// the hashing identity a pre-hashing client must reproduce.
func (s *Store) Seed() int64 { return s.seed }

// UniverseBits returns the store's key-universe width.
func (s *Store) UniverseBits() uint { return s.universeBits }

// HashKey maps a string key exactly as the store's ingest path does
// (knw.NewHasher over the pinned seed and universe). IngestHashed on
// the result is equivalent to Ingest on the key — the contract the
// binary frame codec and the cluster forwarder stand on.
func (s *Store) HashKey(key string) uint64 { return s.hasher.Hash(key) }

// Kind returns the store's sketch kind.
func (s *Store) Kind() knw.Kind { return s.cfg.Kind }

// Window returns the store's window configuration (zero if disabled).
func (s *Store) Window() Window { return s.cfg.Window }

// newSketch builds a sketch with the store's kind and pinned options.
// Construction cannot fail: New validated the kind and options once.
func (s *Store) newSketch() knw.Estimator {
	est, err := knw.New(s.cfg.Kind, s.opts...)
	if err != nil {
		panic("store: sketch construction failed after validation: " + err.Error())
	}
	return est
}

// ValidateName checks a store name: non-empty, at most 256 bytes, no
// control bytes. Slashes are allowed (and conventional: tenant/metric).
func ValidateName(name string) error {
	if name == "" {
		return errors.New("store: empty store name")
	}
	if len(name) > maxNameLen {
		return fmt.Errorf("store: store name exceeds %d bytes", maxNameLen)
	}
	if strings.ContainsFunc(name, func(r rune) bool { return r < 0x20 || r == 0x7f }) {
		return errors.New("store: store name contains control characters")
	}
	return nil
}

func (s *Store) shardFor(name string) *registryShard {
	// Inline FNV-1a: hash/fnv would heap-allocate a hasher and a byte
	// copy of the name on every lookup, i.e. on every request.
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint32(name[i])) * 16777619
	}
	return &s.shards[h%registryShards]
}

// lookup returns the entry for name, creating it (from the store
// defaults) when create is set.
func (s *Store) lookup(name string, create bool) (*entry, error) {
	if err := ValidateName(name); err != nil {
		return nil, err
	}
	sh := s.shardFor(name)
	sh.mu.RLock()
	e := sh.m[name]
	sh.mu.RUnlock()
	if e != nil {
		return e, nil
	}
	if !create {
		return nil, fmt.Errorf("%w %q", ErrNotFound, name)
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e = sh.m[name]; e != nil { // lost the create race
		return e, nil
	}
	e = s.newEntry()
	sh.m[name] = e
	s.met.entries.Add(1)
	return e, nil
}

// newEntry builds an empty entry with the store defaults.
func (s *Store) newEntry() *entry {
	e := &entry{total: s.newSketch(), slots: make([]deltaSlot, s.slots)}
	e.version.Store(1) // creation is itself replicable state
	if s.cfg.Window.enabled() {
		e.window = newWindowRing(s.cfg.Window, s.newSketch)
	}
	return e
}

// Ingest records a batch of string keys under name, creating the store
// entry on first write. The keys are hashed into a delta slot's buffer
// — no entry lock — and fed to the canonical total and current window
// bucket by the next epoch drain or read barrier, whichever comes
// first; a batch too large for its slot's free space is applied by the
// caller instead (delta.go).
func (s *Store) Ingest(name string, keys []string) error {
	return s.ingest(name, keys, nil, s.met.stageHash)
}

// IngestHashed is Ingest for pre-hashed keys (clients that run the
// store's hash on their side — Store.HashKey, or knw.NewHasher with
// the store's seed and universe — and ship uint64s).
func (s *Store) IngestHashed(name string, keys []uint64) error {
	return s.ingest(name, nil, keys, s.met.stageAppend)
}

// Estimate is one store entry's read-side report.
type Estimate struct {
	Store     string  `json:"store"`
	Sketch    string  `json:"sketch"`
	AllTime   float64 `json:"all_time"`
	SpaceBits int     `json:"space_bits"`
	// Window fields are present only for windowed stores.
	Windowed   bool    `json:"windowed"`
	Window     float64 `json:"window,omitempty"`
	WindowSpan string  `json:"window_span,omitempty"`
}

// Estimate reports the all-time estimate and, for windowed stores, the
// merged estimate over the live window ring. It returns ErrNotFound
// for never-written names.
func (s *Store) Estimate(name string) (Estimate, error) {
	e, err := s.lookup(name, false)
	if err != nil {
		return Estimate{}, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	s.drainLocked(e) // read barrier: include this caller's completed writes
	out := Estimate{
		Store:     name,
		Sketch:    e.total.Name(),
		AllTime:   e.total.Estimate(),
		SpaceBits: e.total.SpaceBits(),
	}
	if e.window != nil {
		s.met.rotations.Add(uint64(e.window.rotate(s.now())))
		out.Windowed = true
		out.Window = e.window.estimate()
		out.WindowSpan = s.cfg.Window.Span().String()
		out.SpaceBits += e.window.spaceBits()
	}
	return out, nil
}

// Merge folds a peer's envelope (the bytes of its snapshot for the
// same logical store) into name's all-time sketch, creating the entry
// if needed — the cross-node aggregation primitive. The envelope must
// hold the store's kind with the store's exact options and seed;
// mismatches return an error wrapping knw.ErrIncompatible and corrupt
// payloads an ordinary decode error. Merged keys are not attributed to
// window buckets: the peer's event times are unknown, so remote counts
// appear only in the all-time estimate.
func (s *Store) Merge(name string, envelope []byte) error {
	peer, err := knw.Open(envelope)
	if err != nil {
		return err
	}
	// Validate against the store template before create-on-merge, so a
	// rejected envelope never leaves behind an empty ghost entry.
	if err := knw.Compatible(s.template, peer); err != nil {
		return err
	}
	e, lerr := s.lookup(name, true)
	if lerr != nil {
		return lerr
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := knw.MergeInto(e.total, peer); err != nil {
		return err
	}
	e.version.Add(1)
	return nil
}

// MergeRing folds a peer's window ring into name's, bucket by bucket
// by epoch, creating the entry if needed — handoff's window sink. Epochs
// are wall-aligned interval indices, so a bucket inside the live range
// merges into the bucket of the same epoch, one newer than the current
// epoch into the current bucket, and one older than the live range is
// dropped, as it has expired here too. A ring of another interval folds
// whole into the current bucket, and a store without a window folds it
// into its all-time sketch: the keys then stay visible too long, never
// too short. Every bucket is checked against the store's kind, options
// and seed before anything merges. The entry version moves, so the next
// delta checkpoint carries the merged ring.
func (s *Store) MergeRing(name string, ring RingRecord) error {
	rs, err := s.OpenRing(ring)
	if err != nil {
		return err
	}
	e, err := s.lookup(name, true)
	if err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	s.drainLocked(e) // pending keys keep their own write times
	defer e.version.Add(1)
	w := e.window
	if w != nil {
		s.met.rotations.Add(uint64(w.rotate(s.now())))
	}
	for _, b := range rs.Buckets {
		var dst knw.Estimator
		switch {
		case w == nil:
			dst = e.total
		case rs.Interval != w.interval || b.Epoch > w.epoch:
			dst = w.current()
		case b.Epoch > w.epoch-int64(len(w.buckets)):
			dst = w.bucketAt(int(w.epoch - b.Epoch))
		default:
			continue
		}
		if err := knw.MergeInto(dst, b.Sketch); err != nil {
			return err
		}
	}
	return nil
}

// Snapshot appends name's all-time sketch as a self-describing
// envelope to buf (which may be nil) — the bytes a peer feeds to Merge
// or PUT back through Restore. It returns ErrNotFound for
// never-written names.
func (s *Store) Snapshot(name string, buf []byte) ([]byte, error) {
	e, err := s.lookup(name, false)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	s.drainLocked(e) // envelopes must carry every acknowledged write
	return appendSketch(buf, e.total), nil
}

// AppendRecord adds name's whole state to sw as one record: the drained
// all-time envelope and, on a windowed store, the ring rotated to the
// store clock, both encoded under the entry lock. It returns the
// all-time estimate of the state written — what handoff counts as the
// key mass it ships.
func (s *Store) AppendRecord(sw *StreamWriter, name string) (float64, error) {
	e, err := s.lookup(name, false)
	if err != nil {
		return 0, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	s.drainLocked(e)
	if e.window != nil {
		s.met.rotations.Add(uint64(e.window.rotate(s.now())))
	}
	sw.add(name, 0, nil, e.total, e.ringView())
	// Encoding finished any deamortized phase, so this is the estimate
	// of exactly the bytes written.
	return e.total.Estimate(), nil
}

// ringView is the entry's ring as records carry it (none when the
// store is unwindowed). Callers hold e.mu.
func (e *entry) ringView() RingSnapshot {
	if e.window == nil {
		return RingSnapshot{}
	}
	return e.window.view()
}

// CopySketch returns a native copy of name's drained all-time sketch
// or, with windowed set, of the union of its live window ring (rotated
// to the store clock first), and the entry version the copy was taken
// at — the in-memory counterpart of Snapshot and WindowSnapshot, for
// reads that merge or run set algebra in this process. The copy is
// taken under the entry lock and is caller-owned: it aliases no store
// state, so the caller may merge into it freely.
//
// An all-time read at version skip takes no copy and returns a nil
// sketch: the caller's memo of that version is current (versions start
// at 1, so skip 0 always copies). A windowed read always copies, as
// rotation does not move the version. A name the store does not hold
// returns a nil sketch, version 0 and no error; a windowed read of an
// unwindowed store returns ErrNotWindowed.
func (s *Store) CopySketch(name string, windowed bool, skip uint64) (knw.Estimator, uint64, error) {
	e, err := s.lookup(name, false)
	if errors.Is(err, ErrNotFound) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	s.drainLocked(e) // copies keep read-your-writes for local ingest
	v := e.version.Load()
	if !windowed {
		if v == skip {
			return nil, v, nil
		}
		c, err := knw.Clone(e.total)
		return c, v, err
	}
	if e.window == nil {
		return nil, 0, fmt.Errorf("%w (%q)", ErrNotWindowed, name)
	}
	s.met.rotations.Add(uint64(e.window.rotate(s.now())))
	u := e.window.fresh()
	e.window.mergeSpanInto(u, len(e.window.buckets))
	return u, v, nil
}

// WindowSnapshot appends the union of name's live window ring as a
// single self-describing envelope — the windowed counterpart of
// Snapshot. A peer merges it like any other envelope, so cluster
// scatter-gather can union windowed estimates across nodes without
// shipping the full per-bucket ring state (which only checkpoints
// need). The ring is rotated to the store clock first, so the envelope
// never contains expired buckets. It returns ErrNotWindowed for
// unwindowed stores and ErrNotFound for never-written names.
func (s *Store) WindowSnapshot(name string, buf []byte) ([]byte, error) {
	e, err := s.lookup(name, false)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.window == nil {
		return nil, fmt.Errorf("%w (%q)", ErrNotWindowed, name)
	}
	s.drainLocked(e)
	s.met.rotations.Add(uint64(e.window.rotate(s.now())))
	return appendSketch(buf, e.window.merged()), nil
}

// Restore replaces name's all-time sketch with the envelope's,
// creating the entry if needed. Like Merge it rejects envelopes whose
// kind or settings mismatch the store (wrapping knw.ErrIncompatible).
// Window buckets are left untouched: restored history has no event
// times.
func (s *Store) Restore(name string, envelope []byte) error {
	peer, err := knw.Open(envelope)
	if err != nil {
		return err
	}
	if err := knw.Compatible(s.template, peer); err != nil {
		return err
	}
	e, lerr := s.lookup(name, true)
	if lerr != nil {
		return lerr
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	// Drain into the outgoing total first: writes acknowledged before
	// the Restore belong to the replaced state, not the restored one.
	// Keys a racing writer buffers after this drain land in the restored
	// sketch — the write was concurrent with the replacement, so either
	// order is correct.
	s.drainLocked(e)
	e.total = peer
	e.version.Add(1)
	return nil
}

// Names returns every store name in sorted order.
func (s *Store) Names() []string {
	var names []string
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for name := range sh.m {
			names = append(names, name)
		}
		sh.mu.RUnlock()
	}
	sort.Strings(names)
	return names
}

// Len returns the number of store entries.
func (s *Store) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}
