package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/httpx"
	"repro/internal/trace"
	"repro/store"
)

// The handoff engine moves re-owned data to its new owners during a
// membership transition. Mergeability is what makes this O(sketch)
// instead of O(keys): a node does not enumerate or re-route individual
// keys — it ships each store's envelope (a few KB regardless of
// cardinality) to every peer that newly owns any slice this node
// currently owns, and the receiver merges it. Over-transfer is free
// under union semantics (keys the target did not strictly need still
// count once), so the target set errs wide: any peer that gains
// ownership of any hash interval we own today gets our full envelopes.
//
// The push body is a StreamHandoff record stream (store/records.go):
// the source member and the pending epoch the transfer serves in its
// header, then one record per store with its all-time envelope and, for
// a windowed store, its ring. The receiver merges the ring bucket by
// bucket by epoch (store.MergeRing), so keys keep the bucket they
// arrived in. Every member computes its targets from the committed ring
// the coordinator proposed from, which the prepare body carries
// (descriptor.go): a node started with -join boots on a one-member ring
// and would otherwise see itself owning everything.
//
// Pushes retry with capped exponential backoff until they succeed, the
// attempt budget runs out, or a newer epoch supersedes the transition;
// each push rebuilds the stream from live snapshots, so a retry after
// more ingest simply carries the fresher envelope (idempotent merges).
const (
	// maxHandoffBackoff caps the push retry backoff.
	maxHandoffBackoff = 2 * time.Second
	// maxHandoffAttempts bounds one target's pushes; past it the
	// coordinator's cutover deadline decides (replication covers the
	// data when the target stayed unreachable).
	maxHandoffAttempts = 60
)

// HandoffTarget is one peer's transfer progress.
type HandoffTarget struct {
	Done     bool   `json:"done"`
	Attempts int    `json:"attempts"`
	Stores   int    `json:"stores"`
	LastErr  string `json:"error,omitempty"`
}

// HandoffStatus reports one epoch's outbound transfer state — the
// coordinator's poll answer.
type HandoffStatus struct {
	Epoch   uint64                   `json:"epoch"`
	Done    bool                     `json:"done"`
	Targets map[string]HandoffTarget `json:"targets,omitempty"`
}

// handoff drives one pending epoch's outbound pushes.
type handoff struct {
	rt     *Router
	epoch  uint64
	cancel chan struct{}
	wg     sync.WaitGroup

	mu      sync.Mutex
	targets map[string]*HandoffTarget
}

// startHandoffLocked cancels any previous engine and starts pushes for
// the view's pending epoch. Callers hold memMu.
func (rt *Router) startHandoffLocked(v *ringView) {
	if rt.ho != nil {
		close(rt.ho.cancel)
	}
	h := &handoff{
		rt:      rt,
		epoch:   v.pendingEpoch,
		cancel:  make(chan struct{}),
		targets: make(map[string]*HandoffTarget),
	}
	for _, peer := range handoffTargets(v) {
		h.targets[peer] = &HandoffTarget{}
	}
	rt.ho = h
	if len(h.targets) == 0 {
		return
	}
	rt.log.Info("handoff started", "epoch", h.epoch, "targets", len(h.targets))
	for peer := range h.targets {
		h.wg.Add(1)
		go h.push(peer)
	}
}

// stopHandoff cancels the running engine and waits for its pushers —
// the shutdown path.
func (rt *Router) stopHandoff() {
	rt.memMu.Lock()
	h := rt.ho
	rt.ho = nil
	rt.memMu.Unlock()
	if h == nil {
		return
	}
	select {
	case <-h.cancel:
	default:
		close(h.cancel)
	}
	h.wg.Wait()
}

// HandoffStatus reports the transfer state for one epoch. Epochs at or
// below the committed one with no live engine read as done: either the
// transfer finished and was superseded, or this node had nothing to
// ship for it.
func (rt *Router) HandoffStatus(epoch uint64) HandoffStatus {
	rt.memMu.Lock()
	h := rt.ho
	committed := rt.cur.Epoch
	pending := uint64(0)
	if rt.pending != nil {
		pending = rt.pending.next.Epoch
	}
	rt.memMu.Unlock()
	if h != nil && h.epoch == epoch {
		return h.status()
	}
	// No engine for that epoch: done when this node has moved past it
	// (committed or superseded by a newer proposal); not done when the
	// node has never heard of the epoch at all.
	return HandoffStatus{Epoch: epoch, Done: committed >= epoch || pending > epoch}
}

func (h *handoff) status() HandoffStatus {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := HandoffStatus{Epoch: h.epoch, Done: true,
		Targets: make(map[string]HandoffTarget, len(h.targets))}
	for peer, t := range h.targets {
		out.Targets[peer] = *t
		if !t.Done {
			out.Done = false
		}
	}
	return out
}

// handoffTargets computes the peers this node must push to: every
// member of the pending ring that newly owns a hash interval this node
// owns in the ring the transition starts from — the coordinator's
// committed ring, whatever ring this node booted with. Ownership is
// piecewise constant between ring points, so evaluating the owner sets
// at every point hash of both rings covers every interval exactly once.
func handoffTargets(v *ringView) []string {
	if v.next == nil || v.self < 0 {
		return nil
	}
	hashes := make([]uint64, 0, len(v.from.points)+len(v.next.points))
	for _, p := range v.from.points {
		hashes = append(hashes, p.hash)
	}
	for _, p := range v.next.points {
		hashes = append(hashes, p.hash)
	}
	sort.Slice(hashes, func(i, j int) bool { return hashes[i] < hashes[j] })

	self := v.selfURL
	targets := map[string]bool{}
	var curBuf, nextBuf []int
	var prev uint64
	first := true
	for _, hp := range hashes {
		if !first && hp == prev {
			continue
		}
		first, prev = false, hp
		curBuf = v.from.owners(hp, v.fromRepl, curBuf)
		selfOwns := false
		for _, m := range curBuf {
			if v.from.members[m] == self {
				selfOwns = true
				break
			}
		}
		if !selfOwns {
			continue
		}
		nextBuf = v.next.owners(hp, v.nextRepl, nextBuf)
	outer:
		for _, m := range nextBuf {
			url := v.next.members[m]
			if url == self || targets[url] {
				continue
			}
			for _, c := range curBuf {
				if v.from.members[c] == url {
					continue outer // owned it before: nothing new to ship
				}
			}
			targets[url] = true
		}
	}
	out := make([]string, 0, len(targets))
	for url := range targets {
		out = append(out, url)
	}
	sort.Strings(out)
	return out
}

// push drives one target until its transfer lands (or the engine is
// canceled / the attempt budget runs out).
func (h *handoff) push(peer string) {
	defer h.wg.Done()
	rt := h.rt
	backoff := rt.cfg.Backoff
	for attempt := 0; attempt < maxHandoffAttempts; attempt++ {
		if attempt > 0 {
			rt.met.handoffRetries.Inc()
			if !h.pause(backoff) {
				return
			}
			if backoff < maxHandoffBackoff {
				backoff *= 2
			}
		}
		select {
		case <-h.cancel:
			return
		default:
		}
		stores, keys, nbytes, err, permanent := rt.pushHandoff(peer, h.epoch)
		h.mu.Lock()
		t := h.targets[peer]
		t.Attempts = attempt + 1
		if err == nil {
			t.Done = true
			t.Stores = stores
			t.LastErr = ""
			h.mu.Unlock()
			rt.met.handoffStores.Add(uint64(stores))
			rt.met.handoffKeys.Add(keys)
			rt.met.handoffBytes.Add(nbytes)
			rt.log.Info("handoff push complete", "peer", peer, "epoch", h.epoch,
				"stores", stores, "bytes", nbytes)
			return
		}
		t.LastErr = err.Error()
		h.mu.Unlock()
		rt.met.handoffErrors.Inc()
		rt.log.Warn("handoff push failed", "peer", peer, "epoch", h.epoch,
			"attempt", attempt+1, "err", err)
		if permanent {
			return
		}
	}
}

// pause sleeps the retry backoff, returning false when the engine was
// canceled meanwhile. Tests inject Router.sleepFn to run retries on a
// fake clock.
func (h *handoff) pause(d time.Duration) bool {
	if h.rt.sleepFn != nil {
		h.rt.sleepFn(d)
		select {
		case <-h.cancel:
			return false
		default:
			return true
		}
	}
	select {
	case <-h.cancel:
		return false
	case <-time.After(d):
		return true
	}
}

// pushHandoff builds one record stream from the live stores and
// delivers it. stores counts the records shipped; keys is the
// estimated distinct-key mass shipped (the sum of the shipped stores'
// all-time estimates — what knwd_handoff_keys_total accumulates).
// permanent marks 4xx rejections, which a retry cannot fix.
func (rt *Router) pushHandoff(peer string, epoch uint64) (stores int, keys, nbytes uint64, err error, permanent bool) {
	act := rt.tracer.StartLocal("handoff.push")
	act.SetPeer(peer)
	t0 := time.Now()
	defer func() {
		d := time.Since(t0)
		if err == nil {
			rt.met.handoffSeconds.Observe(d.Seconds())
			rt.met.stageHandoffPush.Observe(d.Seconds())
			act.Stage("handoff_push", d)
		}
		rt.tracer.FinishLocal(act, err)
	}()

	sw := store.StreamWriter{Header: store.StreamHeader{Kind: store.StreamHandoff, Source: rt.cfg.Self, Anchor: epoch}}
	var keyMass float64
	for _, name := range rt.local.Names() {
		est, serr := rt.local.AppendRecord(&sw, name)
		if errors.Is(serr, store.ErrNotFound) {
			continue // deleted between Names and AppendRecord
		}
		if serr != nil {
			return 0, 0, 0, serr, false
		}
		stores++
		keyMass += est
	}
	payload := append(sw.Head(), sw.Body()...)
	req, rerr := http.NewRequest(http.MethodPost, peer+"/v1/cluster/handoff", bytes.NewReader(payload))
	if rerr != nil {
		return 0, 0, 0, rerr, false
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, derr := rt.client.Do(req)
	if derr != nil {
		return 0, 0, 0, derr, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return 0, 0, 0, fmt.Errorf("peer answered HTTP %d: %s", resp.StatusCode, msg),
			resp.StatusCode >= 400 && resp.StatusCode < 500
	}
	io.Copy(io.Discard, resp.Body)
	if keyMass < 0 {
		keyMass = 0
	}
	return stores, uint64(keyMass + 0.5), uint64(len(payload)), nil, false
}

// HandleHandoff is POST /v1/cluster/handoff: merge an inbound record
// stream into the local store (mergeRecords). Merging is idempotent
// and union-safe, so re-deliveries (push retries) and transfers for
// epochs this node has already moved past are accepted rather than
// bounced — bouncing could only lose data.
func (rt *Router) HandleHandoff(w http.ResponseWriter, r *http.Request) {
	st, err := readStream(http.MaxBytesReader(w, r.Body, maxPeerBody), store.StreamHandoff)
	if err != nil {
		httpx.Fail(w, httpx.ReadStatus(err), fmt.Errorf("handoff: %w", err))
		return
	}
	act := trace.FromContext(r.Context())
	t0 := time.Now()
	applied, err := rt.mergeRecords(st)
	if err != nil {
		httpx.Fail(w, http.StatusBadRequest, fmt.Errorf("handoff: %w", err))
		return
	}
	rt.met.handoffApplied.Add(uint64(applied))
	d := time.Since(t0)
	rt.met.stageHandoffApply.Observe(d.Seconds())
	act.Stage("handoff_apply", d)
	act.SetPeer(st.Source)
	rt.log.Info("handoff applied", "source", st.Source, "epoch", st.Anchor, "stores", applied)
	rt.ringHeaders(w)
	httpx.Reply(w, http.StatusOK, map[string]any{
		"epoch":  st.Anchor,
		"stores": applied,
	})
}

// mergeRecords merges an inbound handoff stream into the local store:
// each record's envelope into the all-time sketch, then its ring into
// the window (store.MergeRing). It returns the stores merged.
func (rt *Router) mergeRecords(st store.Stream) (int, error) {
	for i, rec := range st.Records {
		if err := rt.local.Merge(rec.Name, rec.Env); err != nil {
			return i, fmt.Errorf("handoff record %q: %w", rec.Name, err)
		}
		if len(rec.Ring.Buckets) == 0 {
			continue
		}
		if err := rt.local.MergeRing(rec.Name, rec.Ring); err != nil {
			return i, fmt.Errorf("handoff ring %q: %w", rec.Name, err)
		}
	}
	return len(st.Records), nil
}
