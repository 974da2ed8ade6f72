package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"time"

	knw "repro"
	"repro/internal/trace"
	"repro/store"
)

// Estimate is the scatter-gather read-side report: the union estimate
// over every reachable node's sketch for one store.
type Estimate struct {
	Store   string  `json:"store"`
	AllTime float64 `json:"all_time"`
	// Window fields are present only when this node's store is
	// windowed; the window estimate is the union of every reachable
	// node's live window ring.
	Windowed bool    `json:"windowed"`
	Window   float64 `json:"window,omitempty"`
	// GatherInfo counts cluster members and how many contributed. When
	// any peer could not contribute, Partial is set and the response
	// carries the X-KNW-Partial header naming them.
	GatherInfo
	Replication int `json:"replication"`
	// RingEpoch is the committed membership epoch the answer was
	// assembled under; Rebalancing is set while a transition (union
	// routing + handoff) was in flight — mirrored in the
	// X-KNW-Ring-Epoch / X-KNW-Rebalancing headers.
	RingEpoch   uint64 `json:"ring_epoch"`
	Rebalancing bool   `json:"rebalancing,omitempty"`
}

// errNoData distinguishes "no node holds this store" (404) from
// transport-level gather failures.
var errNoData = errors.New("cluster: store unknown on every reachable node")

// gatherRes is one member's contribution to a scatter-gather: its
// sketch (est, or ring for scope=buckets; nil when the member does not
// hold the store) or the failure that kept it from contributing. The
// local member's is an in-memory copy, a peer's is decoded from the
// snapshot it served; either way it is the gather's to mutate.
type gatherRes struct {
	member int
	est    knw.Estimator
	ring   *store.RingSnapshot
	err    error
}

// MergedEstimate assembles the cluster-wide estimate for name: a copy
// of the local sketch plus every peer's snapshot envelope, opened and
// merged in this process — the gather GatherSketch runs, once for the
// all-time sketches and, on windowed stores, once for the live window
// rings. Peers that do not hold the store contribute nothing and are
// still counted healthy; peers that cannot be reached (or ship
// incompatible envelopes) are reported in Estimate.FailedPeers, and
// the merged result of everyone else — at minimum the stale local
// view — is served instead of an error. The error return is reserved
// for "no data anywhere": every reachable node 404ed (errors.Is
// store.ErrNotFound) or the store name is invalid.
func (rt *Router) MergedEstimate(name string) (Estimate, error) {
	return rt.mergedEstimate(name, nil)
}

// mergedEstimate is MergedEstimate with the caller's sampled span (nil
// when the request is unsampled or the caller is not a request): the
// scatter carries the trace header so peer snapshot handlers join the
// trace, and the span is annotated with the gather outcome.
func (rt *Router) mergedEstimate(name string, act *trace.Active) (Estimate, error) {
	if err := store.ValidateName(name); err != nil {
		return Estimate{}, err
	}
	t0 := time.Now()
	v := rt.view()
	out := Estimate{
		Store:       name,
		Windowed:    rt.local.Window().Buckets > 0,
		Replication: v.replication,
		RingEpoch:   v.epoch,
		Rebalancing: v.rebalancing(),
	}
	total, info := rt.gather(v, name, "", act)
	var window knw.Estimator
	if out.Windowed {
		var winInfo GatherInfo
		window, winInfo = rt.gather(v, name, "window", act)
		info.Merge(winInfo)
	}
	out.GatherInfo = info
	rt.notePartial(info, total != nil)
	if total == nil {
		return out, noDataErr(name, info)
	}
	out.AllTime = total.Estimate()
	if window != nil {
		out.Window = window.Estimate()
	}
	d := time.Since(t0)
	rt.met.gatherSeconds.Observe(d.Seconds())
	act.SetStore(name)
	act.Stage("gather", d)
	return out, nil
}

// noDataErr is the error of a gather that assembled nothing: a 404
// (errNoData wrapping store.ErrNotFound) when every node answered and
// none held the store, an unreachable-peers error otherwise.
func noDataErr(name string, info GatherInfo) error {
	if info.Partial {
		return fmt.Errorf("cluster: no node could serve %q (unreachable: %v)", name, info.FailedPeers)
	}
	return fmt.Errorf("%w: %w %q", errNoData, store.ErrNotFound, name)
}

// notePartial counts one request's gather outcome: every partial
// gather, and separately the partial ones still served from the
// reachable nodes (the stale-local fallback).
func (rt *Router) notePartial(info GatherInfo, served bool) {
	if !info.Partial {
		return
	}
	rt.met.gatherPartial.Inc()
	if served {
		rt.met.partialServed.Inc()
	}
}

// getSnapshot GETs one envelope from a peer; found is false on 404.
func (rt *Router) getSnapshot(peer, name, scope, hdr string) (env []byte, found bool, err error) {
	u := peer + "/v1/snapshot?store=" + url.QueryEscape(name)
	if scope != "" {
		u += "&scope=" + scope
	}
	req, err := http.NewRequest(http.MethodGet, u, nil)
	if err != nil {
		return nil, false, err
	}
	if hdr != "" {
		req.Header.Set(trace.Header, hdr)
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNotFound:
		io.Copy(io.Discard, resp.Body)
		return nil, false, nil
	default:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return nil, false, fmt.Errorf("peer answered HTTP %d: %s", resp.StatusCode, msg)
	}
	env, err = io.ReadAll(io.LimitReader(resp.Body, 256<<20))
	if err != nil {
		return nil, false, err
	}
	return env, true, nil
}

// TraceResult is one peer's contribution to a cluster-wide trace
// gather: the peer URL and its local sampled traces (or the error that
// kept it from answering).
type TraceResult struct {
	Peer   string
	Traces []trace.Tree
	Err    error
}

// GatherTraces fans GET /v1/debug/traces?<query> out to every peer but
// self, concurrently, and returns one result per peer. query is the
// caller's filter set (trace=, store=, min_ms=, limit=) already
// stripped of scope — each peer answers with its local view only,
// and the caller merges.
func (rt *Router) GatherTraces(query string) []TraceResult {
	v := rt.view()
	var peers []string
	for m, peer := range v.members {
		if m != v.self {
			peers = append(peers, peer)
		}
	}
	out := make([]TraceResult, len(peers))
	var wg sync.WaitGroup
	for i, peer := range peers {
		out[i].Peer = peer
		wg.Add(1)
		go func(i int, peer string) {
			defer wg.Done()
			out[i].Traces, out[i].Err = rt.fetchTraces(peer, query)
		}(i, peer)
	}
	wg.Wait()
	return out
}

func (rt *Router) fetchTraces(peer, query string) ([]trace.Tree, error) {
	u := peer + "/v1/debug/traces"
	if query != "" {
		u += "?" + query
	}
	resp, err := rt.client.Get(u)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return nil, fmt.Errorf("peer answered HTTP %d: %s", resp.StatusCode, msg)
	}
	var body struct {
		Traces []trace.Tree `json:"traces"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 64<<20)).Decode(&body); err != nil {
		return nil, err
	}
	return body.Traces, nil
}
