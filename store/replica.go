package store

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"

	knw "repro"
	"repro/internal/binenc"
)

// ReplicaSet is a node's merged view of its peers: for every (peer,
// store) pair the sketch decoded from the last envelope or delta
// gossip pulled, held beside the canonical local Store. Estimates over
// the set are the union of the local sketch and every replica — the
// O(1) read path that replaces per-request scatter-gather — and the
// whole set checkpoints to disk so a restarted node serves a warm view
// while gossip re-converges.
//
// The set is passive storage: cluster/gossip.go drives it (digest →
// pull → ApplyFull/ApplyDelta). Every applied envelope is validated
// against the store's template (kind, options, seed) before it is
// accepted, so a misconfigured peer can corrupt nothing.

// ErrStaleBase is returned by ApplyDelta when the delta's base version
// does not match the replica's held version: the caller must re-pull a
// full envelope (base 0).
var ErrStaleBase = errors.New("store: delta base does not match held replica version")

// replica is one (peer, store) sketch: the decoded estimator view reads
// merge from, the base the next delta applies to, and what checkpoints
// re-encode. It is never written after it is installed — a delta
// builds a new sketch — so readers share it under rs.mu or a copy of
// the pointer.
type replica struct {
	version uint64
	est     knw.Estimator
}

// peerReplicas is everything held from one peer, pinned to the peer's
// process instance id.
type peerReplicas struct {
	instance uint64
	stores   map[string]*replica
}

// ViewEstimate is one merged-view read.
type ViewEstimate struct {
	// AllTime is the union estimate over the local sketch and every
	// replica holding the store.
	AllTime float64
	// Replicas counts the peer replicas that contributed.
	Replicas int
	// LocalFound reports whether the local store holds the name itself.
	LocalFound bool
}

// viewCache is one store's memoized merged estimate, valid while the
// local entry version and the replica apply counter both stand still.
type viewCache struct {
	localVer uint64
	touch    uint64
	out      ViewEstimate
}

// ReplicaSet holds and serves the replica view. All methods are safe
// for concurrent use.
type ReplicaSet struct {
	st *Store

	mu    sync.Mutex
	peers map[string]*peerReplicas
	touch map[string]uint64 // per-store apply counter (cache invalidation)
	cache map[string]viewCache
}

// NewReplicaSet builds an empty replica view over st.
func NewReplicaSet(st *Store) *ReplicaSet {
	return &ReplicaSet{
		st:    st,
		peers: make(map[string]*peerReplicas),
		touch: make(map[string]uint64),
		cache: make(map[string]viewCache),
	}
}

// SetInstance records peer's process instance id, creating the peer on
// first contact. When the id changes (the peer restarted), every held
// version resets to zero — the peer's new counters share nothing with
// its old life, so the next pull must fetch full envelopes — while the
// envelopes themselves stay serving reads until replaced. It reports
// whether the id changed.
func (rs *ReplicaSet) SetInstance(peer string, instance uint64) bool {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	pr := rs.peers[peer]
	if pr == nil {
		rs.peers[peer] = &peerReplicas{instance: instance, stores: make(map[string]*replica)}
		return false
	}
	if pr.instance == instance {
		return false
	}
	pr.instance = instance
	for _, r := range pr.stores {
		r.version = 0
	}
	return true
}

// BaseVersions returns the versions held from peer, the base vector a
// pull request sends. Unknown peers return an empty map.
func (rs *ReplicaSet) BaseVersions(peer string) map[string]uint64 {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	out := make(map[string]uint64)
	if pr := rs.peers[peer]; pr != nil {
		for name, r := range pr.stores {
			out[name] = r.version
		}
	}
	return out
}

// ApplyFull replaces the (peer, name) replica with a full envelope at
// version. The envelope is validated against the store template;
// incompatible or undecodable envelopes are rejected wrapping
// knw.ErrIncompatible or a decode error, leaving the old replica in
// place.
func (rs *ReplicaSet) ApplyFull(peer, name string, version uint64, env []byte) error {
	if err := ValidateName(name); err != nil {
		return err
	}
	est, err := rs.st.openCompatible(env)
	if err != nil {
		return fmt.Errorf("store: replica %q from %s: %w", name, peer, err)
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	pr := rs.peers[peer]
	if pr == nil {
		pr = &peerReplicas{stores: make(map[string]*replica)}
		rs.peers[peer] = pr
	}
	pr.stores[name] = &replica{version: version, est: est}
	rs.touch[name]++
	return nil
}

// ApplyDelta applies a KNWD delta to the held (peer, name) replica: the
// new replica is a copy of the held sketch with the delta's changed
// sections decoded into it (knw.Delta.ApplyTo). A missing replica or a
// base-version mismatch returns ErrStaleBase (re-pull full); a
// structurally incompatible or corrupt delta returns the underlying
// error. The old replica survives any failure.
func (rs *ReplicaSet) ApplyDelta(peer, name string, delta []byte) error {
	if err := ValidateName(name); err != nil {
		return err
	}
	d, err := knw.DecodeDelta(delta)
	if err != nil {
		return err
	}
	rs.mu.Lock()
	pr := rs.peers[peer]
	var r *replica
	if pr != nil {
		r = pr.stores[name]
	}
	if r == nil || r.version != d.Base || r.version == 0 {
		rs.mu.Unlock()
		return fmt.Errorf("%w (%q from %s: held %d, delta base %d)",
			ErrStaleBase, name, peer, heldVersion(r), d.Base)
	}
	base := r.est
	rs.mu.Unlock()

	// Apply outside the lock: it copies the base and decodes the changed
	// sections. The base was validated against the store template when
	// it was applied, and the delta's header checksum pins the result to
	// the base's settings.
	est, err := d.ApplyTo(base)
	if err != nil {
		return fmt.Errorf("store: replica %q from %s: applying delta: %w", name, peer, err)
	}

	rs.mu.Lock()
	defer rs.mu.Unlock()
	// Re-check under the lock: a concurrent apply may have moved the
	// replica past our base.
	if pr = rs.peers[peer]; pr != nil {
		r = pr.stores[name]
	} else {
		r = nil
	}
	if r == nil || r.version != d.Base {
		return fmt.Errorf("%w (%q from %s: concurrent apply)", ErrStaleBase, name, peer)
	}
	pr.stores[name] = &replica{version: d.Next, est: est}
	rs.touch[name]++
	return nil
}

func heldVersion(r *replica) uint64 {
	if r == nil {
		return 0
	}
	return r.version
}

// Estimate serves the merged local+replica estimate for name. The
// local store's drained total is copied under its entry lock (keeping
// read-your-writes for local ingest), and the replicas are merged into
// that copy. The result is memoized and only recomputed when the local
// version or the replica set actually changed; a memo hit takes no
// copy. ErrNotFound means neither the local store nor any replica
// holds the name.
func (rs *ReplicaSet) Estimate(name string) (ViewEstimate, error) {
	skip := rs.memoVersion(name)
	for {
		// The entry lock is held only inside CopySketch, never with rs.mu.
		local, ver, err := rs.st.CopySketch(name, false, skip)
		if err != nil {
			return ViewEstimate{}, err
		}
		rs.mu.Lock()
		if c, ok := rs.cache[name]; ok && c.localVer == ver && c.touch == rs.touch[name] {
			rs.mu.Unlock()
			return c.out, nil
		}
		if local == nil && ver != 0 {
			// The copy was skipped for a memo a replica apply has since
			// invalidated: take it after all.
			rs.mu.Unlock()
			skip = 0
			continue
		}
		_, out, err := rs.mergeLocked(name, local)
		if err == nil {
			rs.cache[name] = viewCache{localVer: ver, touch: rs.touch[name], out: out}
		}
		rs.mu.Unlock()
		return out, err
	}
}

// memoVersion returns the local version name's memo was computed at
// while the memo still covers the current replicas, and 0 otherwise.
func (rs *ReplicaSet) memoVersion(name string) uint64 {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if c, ok := rs.cache[name]; ok && c.touch == rs.touch[name] {
		return c.localVer
	}
	return 0
}

// MergedSketch builds a fresh estimator holding the union of the local
// store's sketch and every held replica for name — the sketch-valued
// counterpart of Estimate, for set-algebra reads over the O(1) gossip
// view (the cluster's /v1/query mode=local). The returned sketch is a
// copy of the local total (or of a replica, when the local store does
// not hold the name) with the replicas merged in; nothing aliases held
// state, so the caller may merge or diff it freely. Unlike Estimate
// the result is not memoized: a shared cached sketch could not be
// handed out for mutation.
func (rs *ReplicaSet) MergedSketch(name string) (knw.Estimator, ViewEstimate, error) {
	local, _, err := rs.st.CopySketch(name, false, 0)
	if err != nil {
		return nil, ViewEstimate{}, err
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.mergeLocked(name, local)
}

// mergeLocked merges every held replica of name into local (a
// caller-owned copy of the local total, or nil when the local store
// does not hold the name), returning the union and its view report.
// Callers hold rs.mu.
func (rs *ReplicaSet) mergeLocked(name string, local knw.Estimator) (knw.Estimator, ViewEstimate, error) {
	acc := local
	replicas := 0
	for _, pr := range rs.peers {
		r := pr.stores[name]
		if r == nil {
			continue
		}
		// Replicas were validated at apply time, so failures here are
		// bugs; reads degrade to the remaining contributions rather than
		// erroring.
		if acc == nil {
			// The accumulator is mutated by later merges and must never
			// be a held replica.
			c, err := knw.Clone(r.est)
			if err != nil {
				continue
			}
			acc = c
		} else if err := knw.MergeInto(acc, r.est); err != nil {
			continue
		}
		replicas++
	}
	if acc == nil {
		return nil, ViewEstimate{}, fmt.Errorf("%w %q", ErrNotFound, name)
	}
	return acc, ViewEstimate{AllTime: acc.Estimate(), Replicas: replicas, LocalFound: local != nil}, nil
}

// DropPeer discards every replica held for one peer and returns how
// many were dropped — called when cluster membership removes the peer,
// so merged-view estimates stop counting a departed node's envelopes.
// (Its keys survive: handoff merged them into the new owners' own
// stores before the membership change committed.) Each affected
// store's view cache is invalidated.
func (rs *ReplicaSet) DropPeer(peer string) int {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	pr := rs.peers[peer]
	if pr == nil {
		return 0
	}
	for name := range pr.stores {
		rs.touch[name]++
	}
	delete(rs.peers, peer)
	return len(pr.stores)
}

// Stats reports the view's size: peers known, replicas held.
func (rs *ReplicaSet) Stats() (peers, replicas int) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	for _, pr := range rs.peers {
		replicas += len(pr.stores)
	}
	return len(rs.peers), replicas
}

// The replica file is the serialized replica view, written beside the
// store checkpoint so a restarted node serves a warm merged view
// immediately: one StreamReplica record stream (records.go) per peer,
// back to back in increasing URL order, each holding what a base-0 pull
// from that peer would carry — every held replica's full envelope at
// its version. A stream's source is the peer URL and its anchor the
// peer's instance id: peer instance ids are persisted because they
// identify the peer's process, not ours, so held versions stay valid
// across our own restarts for peers that kept running. Replica files in
// the format before the record stream load through legacy.go.
const (
	// ReplicaFile is the file name ReplicaSet.Checkpoint writes inside
	// its directory argument.
	ReplicaFile = "replicas.knwr"
)

// Checkpoint atomically writes the replica view to dir/replicas.knwr.
// The held sketches are collected under rs.mu and encoded outside it:
// they are never written after apply, so encoding reads them safely
// while gossip keeps applying.
func (rs *ReplicaSet) Checkpoint(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	type heldReplica struct {
		name string
		r    *replica
	}
	type heldPeer struct {
		url      string
		instance uint64
		stores   []heldReplica
	}
	rs.mu.Lock()
	peers := make([]heldPeer, 0, len(rs.peers))
	for url, pr := range rs.peers {
		hp := heldPeer{url: url, instance: pr.instance, stores: make([]heldReplica, 0, len(pr.stores))}
		for name, r := range pr.stores {
			hp.stores = append(hp.stores, heldReplica{name, r})
		}
		peers = append(peers, hp)
	}
	rs.mu.Unlock()

	sort.Slice(peers, func(i, j int) bool { return peers[i].url < peers[j].url })
	chunks := make([][]byte, 0, 2*len(peers))
	for _, hp := range peers {
		sort.Slice(hp.stores, func(i, j int) bool { return hp.stores[i].name < hp.stores[j].name })
		sw := StreamWriter{Header: StreamHeader{Kind: StreamReplica, Source: hp.url, Anchor: hp.instance}}
		for _, h := range hp.stores {
			sw.add(h.name, h.r.version, nil, h.r.est, RingSnapshot{})
		}
		chunks = append(chunks, sw.Head(), sw.Body())
	}
	return writeFileAtomic(filepath.Join(dir, ReplicaFile), chunks...)
}

// LoadCheckpoint restores the replica view written by Checkpoint,
// replacing the current view. A missing file is not an error. Loading
// is all-or-nothing: every envelope is decoded and validated before
// any of it is installed, and corrupt files return an error wrapping
// ErrCorruptCheckpoint. It returns the number of replicas restored.
func (rs *ReplicaSet) LoadCheckpoint(dir string) (int, error) {
	data, err := os.ReadFile(filepath.Join(dir, ReplicaFile))
	if errors.Is(err, fs.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	streams, err := decodeReplicaFile(data)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrCorruptCheckpoint, err)
	}
	staged := make(map[string]*peerReplicas, len(streams))
	total := 0
	for _, st := range streams {
		pr := &peerReplicas{instance: st.Anchor, stores: make(map[string]*replica, len(st.Records))}
		for _, rec := range st.Records {
			est, err := rs.st.openCompatible(rec.Env)
			if err != nil {
				return 0, wrapEntryErr(rec.Name, err)
			}
			pr.stores[rec.Name] = &replica{version: rec.Version, est: est}
			total++
		}
		staged[st.Source] = pr
	}
	rs.mu.Lock()
	rs.peers = staged
	for _, pr := range staged {
		for name := range pr.stores {
			rs.touch[name]++
		}
	}
	rs.mu.Unlock()
	return total, nil
}

// decodeReplicaFile decodes the replica file's streams, record stream
// or legacy, and checks that each names a peer, in increasing order.
func decodeReplicaFile(data []byte) ([]Stream, error) {
	var streams []Stream
	if legacyMagic(data) {
		var err error
		if streams, err = decodeLegacyReplicas(data); err != nil {
			return nil, err
		}
	} else {
		r := binenc.Reader{Buf: data}
		for len(r.Buf) > 0 {
			st, err := readStream(&r, StreamReplica)
			if err != nil {
				return nil, err
			}
			streams = append(streams, st)
		}
	}
	for i, st := range streams {
		if st.Source == "" || (i > 0 && st.Source <= streams[i-1].Source) {
			return nil, fmt.Errorf("replica stream for peer %q out of order", st.Source)
		}
	}
	return streams, nil
}
