package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/httpx"
	"repro/internal/trace"
	"repro/store"
)

// The handoff phase moves re-owned data to its new owners during a
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
// Handoff is the middle of the coordinator's three phases (prepare,
// handoff, commit; membership.go). It starts only once every member
// holds the transition and routes to the union, so keys routed on the
// old ring before a member adopted are in the stream. Each old member
// builds its stream once, pushes it to every target concurrently, and
// answers the coordinator when every push has landed or failed.

// handoff runs the handoff phase on this node for the pending epoch
// and returns the targets it pushed to. A push retries until it lands,
// the peer answers 4xx, HandoffTimeout passes, or ctx ends (a remote
// coordinator that gave up on the call cancels it); the error joins the
// pushes that did not land.
func (rt *Router) handoff(ctx context.Context, epoch uint64) ([]string, error) {
	v := rt.view()
	if v.pendingEpoch != epoch {
		return nil, fmt.Errorf("%w %d (pending %d, committed %d)", errNotPending, epoch, v.pendingEpoch, v.epoch)
	}
	targets := handoffTargets(v)
	if len(targets) == 0 {
		return nil, nil
	}
	payload, stores, keys, err := rt.handoffStream(epoch)
	if err != nil {
		return targets, err
	}
	rt.log.Info("handoff started", "epoch", epoch, "targets", len(targets), "stores", stores)
	deadline := rt.now().Add(rt.cfg.HandoffTimeout)
	errs := make([]error, len(targets))
	var wg sync.WaitGroup
	for i, peer := range targets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			act := rt.tracer.StartLocal("handoff.push")
			act.SetPeer(peer)
			t0 := time.Now()
			tries, err := rt.post(ctx, rt.client, peer+"/v1/cluster/handoff", payload, 0, deadline)
			d := time.Since(t0)
			rt.met.handoffRetries.Add(uint64(tries - 1))
			if err != nil {
				rt.met.handoffErrors.Add(uint64(tries))
				rt.log.Warn("handoff push failed", "peer", peer, "epoch", epoch, "attempts", tries, "err", err)
				errs[i] = fmt.Errorf("handoff to %s: %w", peer, err)
			} else {
				rt.met.handoffErrors.Add(uint64(tries - 1))
				rt.met.handoffStores.Add(uint64(stores))
				rt.met.handoffKeys.Add(keys)
				rt.met.handoffBytes.Add(uint64(len(payload)))
				rt.met.handoffSeconds.Observe(d.Seconds())
				rt.met.stageHandoffPush.Observe(d.Seconds())
				act.Stage("handoff_push", d)
				rt.log.Info("handoff push complete", "peer", peer, "epoch", epoch,
					"stores", stores, "bytes", len(payload), "attempts", tries)
			}
			rt.tracer.FinishLocal(act, err)
		}()
	}
	wg.Wait()
	return targets, errors.Join(errs...)
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

// handoffStream builds one record stream of every local store. stores
// counts its records; keys is the estimated distinct-key mass they carry
// (the sum of their all-time estimates — what knwd_handoff_keys_total
// accumulates per landed push).
func (rt *Router) handoffStream(epoch uint64) (payload []byte, stores int, keys uint64, err error) {
	sw := store.StreamWriter{Header: store.StreamHeader{Kind: store.StreamHandoff, Source: rt.cfg.Self, Anchor: epoch}}
	var keyMass float64
	for _, name := range rt.local.Names() {
		est, err := rt.local.AppendRecord(&sw, name)
		if errors.Is(err, store.ErrNotFound) {
			continue // deleted between Names and AppendRecord
		}
		if err != nil {
			return nil, 0, 0, err
		}
		stores++
		keyMass += est
	}
	return append(sw.Head(), sw.Body()...), stores, uint64(max(keyMass, 0) + 0.5), nil
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
