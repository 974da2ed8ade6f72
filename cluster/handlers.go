package cluster

import (
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"repro/internal/httpx"
	"repro/internal/trace"
	"repro/internal/version"
	"repro/store"
)

// HTTP handlers for the /v1/cluster/... routes. The service layer
// mounts them (service.Config.Cluster) so they ride the same mux,
// metrics wrapper, and request accounting as the single-node API;
// body limits and error mappings come from internal/httpx, shared
// with the leaf ingest the router forwards to.

// HandleIngest is POST /v1/cluster/ingest: the single-node ingest
// bodies, decoded by the same httpx.DecodeIngest (newline keys with
// ?store=, a stream of JSON documents, or a binary frame of pre-hashed
// keys), but every key is routed to its R ring owners instead of
// landing only here. The create-on-empty rule creates the store on
// every member.
//
// Status: 200 when every key reached at least one owner (including
// partial successes that lost fewer than R peers, flagged by
// X-KNW-Partial and "partial": true); 502 once ≥ R peers failed, since
// some keys may then have lost every owner. A body that fails
// mid-stream routes every key decoded before the failure and reports
// the progress fields beside the error; re-sends are idempotent.
func (rt *Router) HandleIngest(w http.ResponseWriter, r *http.Request) {
	sink := &routeSink{rt: rt, act: trace.FromContext(r.Context()), sessions: map[string]*session{}}
	_, err := httpx.DecodeIngest(http.MaxBytesReader(w, r.Body, httpx.MaxBodyBytes),
		r.Header.Get("Content-Type"), r.URL.Query().Get("store"), sink)
	res, failed, worst := rt.settle(sink.order)
	if len(failed) > 0 {
		w.Header().Set(PartialHeader, strings.Join(failed, ","))
	}
	rt.ringHeaders(w)
	switch {
	case err != nil:
		httpx.Reply(w, httpx.ReadStatus(err), map[string]any{
			"error":       err.Error(),
			"store":       res.Store,
			"received":    res.Received,
			"replication": res.Replication,
			"local":       res.Local,
			"forwarded":   res.Forwarded,
			"lost":        res.Lost,
			"partial":     res.Partial,
		})
	case worst >= res.Replication:
		// A key's owners are R distinct members, so only ≥ R failures
		// within one session can have dropped a key on every replica.
		// (Mid-rebalance the union routing only widens owner sets, so
		// the committed R stays the conservative loss bound.)
		httpx.Reply(w, http.StatusBadGateway, res)
	default:
		httpx.Reply(w, http.StatusOK, res)
	}
}

// routeSink is the router's ingest sink: one session per target store,
// in first-seen order. An empty batch creates the store on every
// member.
type routeSink struct {
	rt       *Router
	act      *trace.Active
	sessions map[string]*session
	order    []*session
}

func (k *routeSink) session(name string) *session {
	s := k.sessions[name]
	if s == nil {
		s = k.rt.newSession(name, k.act)
		k.sessions[name] = s
		k.order = append(k.order, s)
	}
	return s
}

func (k *routeSink) Strings(name string, keys []string) error {
	s := k.session(name)
	if len(keys) == 0 {
		s.createAll()
	}
	s.route(keys)
	return nil
}

func (k *routeSink) Hashed(name string, keys []uint64) error {
	s := k.session(name)
	if len(keys) == 0 {
		s.createAll()
	}
	s.routeHashed(keys)
	return nil
}

// settle finishes every session and folds their results: the single
// session's own result, or the aggregate across stores. worst is the
// largest per-session failed-peer count — the number the ≥ R
// key-loss check applies to, since owner sets are per key.
func (rt *Router) settle(sessions []*session) (ingestResult, []string, int) {
	switch len(sessions) {
	case 0:
		return ingestResult{Replication: rt.view().replication}, nil, 0
	case 1:
		sessions[0].finish()
		res, failed := sessions[0].result()
		return res, failed, len(failed)
	}
	agg := ingestResult{Replication: rt.view().replication, Store: "(multiple)"}
	worst := 0
	failedSet := map[string]bool{}
	for _, s := range sessions {
		s.finish()
		res, failed := s.result()
		agg.Received += res.Received
		agg.Local += res.Local
		agg.Partial = agg.Partial || res.Partial
		for _, peer := range failed {
			failedSet[peer] = true
		}
		if len(failed) > worst {
			worst = len(failed)
		}
	}
	failed := make([]string, 0, len(failedSet))
	for peer := range failedSet {
		failed = append(failed, peer)
	}
	sort.Strings(failed)
	return agg, failed, worst
}

// HandleEstimate is GET /v1/cluster/estimate. Two read modes:
//
//   - mode=gather: the scatter-gather union estimate. Partial
//     assemblies answer 200 with X-KNW-Partial; a store unknown
//     everywhere answers 404; a gather that produced nothing at all
//     (every node unreachable and no local data) answers 503.
//   - mode=local: the O(1) merged-view estimate over this node's own
//     sketch plus its gossip replicas, with the X-KNW-Staleness
//     header. Requires gossip replication (400 otherwise).
//
// The default is local when gossip is enabled (reads stop paying
// fan-out the moment replication is on) and gather otherwise.
func (rt *Router) HandleEstimate(w http.ResponseWriter, r *http.Request) {
	switch mode := r.URL.Query().Get("mode"); {
	case mode == "local" || (mode == "" && rt.gossip != nil):
		rt.serveLocalEstimate(w, r)
		return
	case mode != "" && mode != "gather":
		httpx.Fail(w, http.StatusBadRequest, fmt.Errorf("unknown estimate mode %q (local or gather)", mode))
		return
	}
	est, err := rt.mergedEstimate(r.URL.Query().Get("store"), trace.FromContext(r.Context()))
	if est.Partial {
		w.Header().Set(PartialHeader, strings.Join(est.FailedPeers, ","))
	}
	rt.ringHeaders(w)
	if err != nil {
		switch {
		case errors.Is(err, store.ErrNotFound):
			httpx.Fail(w, http.StatusNotFound, err)
		case est.Partial:
			httpx.Fail(w, http.StatusServiceUnavailable, err)
		default:
			httpx.Fail(w, http.StatusBadRequest, err)
		}
		return
	}
	httpx.Reply(w, http.StatusOK, est)
}

// serveLocalEstimate answers an estimate from the gossip merged view.
func (rt *Router) serveLocalEstimate(w http.ResponseWriter, r *http.Request) {
	est, err := rt.LocalEstimate(r.URL.Query().Get("store"))
	if err != nil {
		switch {
		case errors.Is(err, store.ErrNotFound):
			httpx.Fail(w, http.StatusNotFound, err)
		default:
			httpx.Fail(w, http.StatusBadRequest, err)
		}
		return
	}
	w.Header().Set(StalenessHeader, strconv.FormatFloat(est.StalenessSeconds, 'f', 3, 64))
	rt.ringHeaders(w)
	httpx.Reply(w, http.StatusOK, est)
}

// HandleInfo is GET /v1/cluster/info: the node's membership view, for
// operators and the examples/cluster demo.
func (rt *Router) HandleInfo(w http.ResponseWriter, _ *http.Request) {
	v := rt.view()
	out := map[string]any{
		"self":        rt.cfg.Self,
		"version":     version.Version,
		"members":     v.cur.members,
		"replication": v.replication,
		"vnodes":      rt.vnodes,
		"gossip":      rt.gossip != nil,
		"ring_epoch":  v.epoch,
	}
	if v.rebalancing() {
		out["pending_epoch"] = v.pendingEpoch
		out["rebalancing"] = true
		out["union_members"] = v.members
	}
	if health := rt.PeerHealth(); len(health) > 0 {
		out["peer_health"] = health
	}
	if rt.gossip != nil {
		peers, replicas := rt.gossip.replicas.Stats()
		out["gossip_interval"] = rt.cfg.GossipInterval.String()
		out["gossip_peers"] = peers
		out["gossip_replicas"] = replicas
		out["staleness_seconds"] = rt.Staleness().Seconds()
	}
	rt.ringHeaders(w)
	httpx.Reply(w, http.StatusOK, out)
}
