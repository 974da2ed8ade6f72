package cluster

import (
	"errors"
	"fmt"
	"sync"
	"time"

	knw "repro"
	"repro/internal/trace"
	"repro/store"
)

// Cluster-side query primitives: GatherSketch hands the scatter-gather
// machinery's merged sketch back to the caller (MergedEstimate
// collapses the same merge to a number), so the service's /v1/query
// can run set algebra across several gathered stores; GatherSeries
// scatters per-bucket ring snapshots and unions them epoch by epoch
// into one cluster-wide time-series; LocalSketch is the O(1)
// gossip-view counterpart for mode=local.

// GatherInfo describes how complete a scatter-gather assembly was —
// the completeness fields of Estimate, reusable by any gathered
// answer.
type GatherInfo struct {
	Nodes       int      `json:"nodes"`
	NodesOK     int      `json:"nodes_ok"`
	Partial     bool     `json:"partial"`
	FailedPeers []string `json:"failed_peers,omitempty"`
}

// Merge folds another gather's completeness into g: a multi-store
// query is partial when any of its per-store gathers was.
func (g *GatherInfo) Merge(o GatherInfo) {
	if g.Nodes == 0 {
		*g = o
		return
	}
	if o.NodesOK < g.NodesOK {
		g.NodesOK = o.NodesOK
	}
	g.Partial = g.Partial || o.Partial
	for _, p := range o.FailedPeers {
		seen := false
		for _, q := range g.FailedPeers {
			if p == q {
				seen = true
				break
			}
		}
		if !seen {
			g.FailedPeers = append(g.FailedPeers, p)
		}
	}
}

// GatherSketch assembles the cluster-wide union sketch for one store:
// a copy of the local sketch plus every peer's envelope, opened and
// merged in this process. windowed merges the live window rings'
// unions (scope=window) instead of the all-time sketches. Failure semantics match
// MergedEstimate: peers that hold no data count healthy, unreachable
// or incompatible peers land in GatherInfo.FailedPeers with the merged
// remainder still returned, and the error return means no data
// anywhere (errors.Is store.ErrNotFound when every node 404ed).
func (rt *Router) GatherSketch(name string, windowed bool, act *trace.Active) (knw.Estimator, GatherInfo, error) {
	if err := store.ValidateName(name); err != nil {
		return nil, GatherInfo{}, err
	}
	t0 := time.Now()
	scope := ""
	if windowed {
		scope = "window"
	}
	acc, info := rt.gather(rt.view(), name, scope, act)
	rt.notePartial(info, acc != nil)
	if acc == nil {
		return nil, info, noDataErr(name, info)
	}
	d := time.Since(t0)
	rt.met.gatherSeconds.Observe(d.Seconds())
	act.SetStore(name)
	act.Stage("gather", d)
	return acc, info, nil
}

// gather scatters one snapshot scope to every member and merges the
// sketches, tallying completeness. Callers count the outcome
// (notePartial) once per request.
func (rt *Router) gather(v *ringView, name, scope string, act *trace.Active) (knw.Estimator, GatherInfo) {
	info := GatherInfo{Nodes: len(v.members)}
	var acc knw.Estimator
	for _, res := range rt.scatterScope(v, name, scope, act.HeaderValue()) {
		if res.err == nil && res.est != nil {
			if acc == nil {
				acc = res.est
			} else {
				res.err = knw.MergeInto(acc, res.est)
			}
		}
		if res.err != nil {
			info.Partial = true
			info.FailedPeers = append(info.FailedPeers, v.members[res.member])
			rt.log.Warn("gather failed", "store", name,
				"peer", v.members[res.member], "err", res.err,
				"trace", act.TraceHex())
			continue
		}
		info.NodesOK++
	}
	return acc, info
}

// scatterScope collects every member's sketch for one snapshot scope
// concurrently: the local store's is copied in memory, peers' are
// fetched over GET /v1/snapshot and decoded. The member space is the
// view's union list, so mid-rebalance gathers read joining and leaving
// nodes alike. hdr is the caller's rendered trace header ("" when
// unsampled), attached to every peer fetch; a peer's 404 is a healthy
// empty contribution.
func (rt *Router) scatterScope(v *ringView, name, scope, hdr string) []gatherRes {
	results := make([]gatherRes, len(v.members))
	var wg sync.WaitGroup
	for m := range v.members {
		if m == v.self {
			results[m] = rt.localScope(name, scope)
			results[m].member = m
			continue
		}
		results[m].member = m
		wg.Add(1)
		go func(res *gatherRes) {
			defer wg.Done()
			env, found, err := rt.getSnapshot(v.members[res.member], name, scope, hdr)
			switch {
			case err != nil:
				res.err = err
			case !found:
			case scope == "buckets":
				res.ring, res.err = rt.openRing(name, env)
			default:
				res.est, res.err = knw.Open(env)
			}
		}(&results[m])
	}
	wg.Wait()
	return results
}

// localScope reads this node's own contribution for a snapshot scope
// in memory: a copy of the all-time sketch or of the live window's
// union, or the ring's bucket copies. A store unknown here is the
// healthy-empty contribution.
func (rt *Router) localScope(name, scope string) gatherRes {
	var res gatherRes
	var err error
	if scope == "buckets" {
		var rs store.RingSnapshot
		if rs, err = rt.local.RingSnapshot(name); err == nil {
			res.ring = &rs
		}
	} else {
		// A nil copy is a store unknown here.
		res.est, _, err = rt.local.CopySketch(name, scope == "window", 0)
	}
	if !errors.Is(err, store.ErrNotFound) {
		res.err = err
	}
	return res
}

// openRing decodes a peer's ring export of name (a StreamRing record
// stream) into caller-owned sketches.
func (rt *Router) openRing(name string, data []byte) (*store.RingSnapshot, error) {
	st, err := store.DecodeStream(data, store.StreamRing)
	if err != nil {
		return nil, err
	}
	if len(st.Records) != 1 || st.Records[0].Name != name {
		return nil, fmt.Errorf("ring export holds %d records, want one for %q", len(st.Records), name)
	}
	rs, err := rt.local.OpenRing(st.Records[0].Ring)
	if err != nil {
		return nil, err
	}
	return &rs, nil
}

// GatherSeries assembles the cluster-wide cardinality time-series for
// one windowed store: every member ships its per-bucket ring snapshot
// (GET /v1/snapshot?scope=buckets), and because bucket epochs are
// wall-aligned interval indices shared by every same-configured node,
// the buckets union epoch by epoch — per-point union semantics
// identical to a single node that had ingested everything. The span is
// rounded exactly as store.Series rounds it; epochs nobody has data
// for read zero. Requires NTP-sane clocks across members, like the
// window ring itself.
//
// A series cannot be answered from the gossip merged view: replicas
// carry only all-time envelopes (deltas have no event times), so there
// is no mode=local series — the documented trade-off is fan-out per
// series read vs O(1) staleness-bounded point reads.
func (rt *Router) GatherSeries(name string, span time.Duration, act *trace.Active) (store.Series, GatherInfo, error) {
	if err := store.ValidateName(name); err != nil {
		return store.Series{}, GatherInfo{}, err
	}
	win := rt.local.Window()
	if win.Buckets == 0 {
		return store.Series{}, GatherInfo{}, fmt.Errorf("%w (%q)", store.ErrNotWindowed, name)
	}
	t0 := time.Now()
	v := rt.view()
	results := rt.scatterScope(v, name, "buckets", act.HeaderValue())

	info := GatherInfo{Nodes: len(v.members)}
	byEpoch := map[int64]knw.Estimator{}
	var maxEpoch int64
	var sketchName string
	seen := false
	for _, res := range results {
		if res.err == nil && res.ring != nil {
			res.err = func() error {
				rs := res.ring
				if rs.Interval != win.Interval {
					return fmt.Errorf("peer window interval %v differs from local %v", rs.Interval, win.Interval)
				}
				for _, b := range rs.Buckets {
					est := b.Sketch
					sketchName = est.Name()
					if cur := byEpoch[b.Epoch]; cur == nil {
						byEpoch[b.Epoch] = est
					} else if err := knw.MergeInto(cur, est); err != nil {
						return err
					}
					if !seen || b.Epoch > maxEpoch {
						maxEpoch = b.Epoch
						seen = true
					}
				}
				return nil
			}()
		}
		if res.err != nil {
			info.Partial = true
			info.FailedPeers = append(info.FailedPeers, v.members[res.member])
			rt.log.Warn("series gather failed", "store", name,
				"peer", v.members[res.member], "err", res.err,
				"trace", act.TraceHex())
			continue
		}
		info.NodesOK++
	}
	rt.notePartial(info, seen)
	if !seen {
		return store.Series{}, info, noDataErr(name, info)
	}

	k := store.SpanBuckets(span, win.Interval, win.Buckets)
	out := store.Series{
		Store:    name,
		Sketch:   sketchName,
		Interval: win.Interval.String(),
		Span:     (time.Duration(k) * win.Interval).String(),
		Buckets:  make([]store.SeriesPoint, 0, k),
	}
	// Per-bucket estimates first; the union accumulator below mutates
	// the per-epoch sketches, so read before merging.
	for j := k - 1; j >= 0; j-- {
		epoch := maxEpoch - int64(j)
		start := time.Unix(0, epoch*int64(win.Interval))
		p := store.SeriesPoint{Start: start, End: start.Add(win.Interval), Epoch: epoch}
		if est := byEpoch[epoch]; est != nil {
			p.Estimate = est.Estimate()
		}
		out.Buckets = append(out.Buckets, p)
	}
	var union knw.Estimator
	for j := 0; j < k; j++ {
		est := byEpoch[maxEpoch-int64(j)]
		if est == nil {
			continue
		}
		if union == nil {
			union = est
		} else if err := knw.MergeInto(union, est); err != nil {
			return store.Series{}, info, err
		}
	}
	if union != nil {
		out.Window = union.Estimate()
	}
	// Delta compares the two newest epochs. With k == 1 the previous
	// epoch's sketch is outside the span and so still unmutated by the
	// union accumulator above.
	n := len(out.Buckets)
	var prev float64
	if k >= 2 {
		prev = out.Buckets[n-2].Estimate
	} else if est := byEpoch[maxEpoch-1]; est != nil {
		prev = est.Estimate()
	}
	out.Delta = out.Buckets[n-1].Estimate - prev
	out.RatePerSec = out.Delta / win.Interval.Seconds()

	d := time.Since(t0)
	rt.met.gatherSeconds.Observe(d.Seconds())
	act.SetStore(name)
	act.Stage("series_gather", d)
	return out, info, nil
}

// LocalSketch resolves name to a caller-owned sketch merged from this
// node's own store plus its gossip replicas — the sketch-valued
// counterpart of LocalEstimate, for /v1/query mode=local: O(replicas)
// merging, no network, the X-KNW-Staleness bound of the gossip view.
// The second return carries the replica and staleness detail for
// response assembly.
func (rt *Router) LocalSketch(name string) (knw.Estimator, LocalEstimate, error) {
	if rt.gossip == nil {
		return nil, LocalEstimate{}, errors.New("cluster: gossip replication is disabled (-gossip-interval)")
	}
	if err := store.ValidateName(name); err != nil {
		return nil, LocalEstimate{}, err
	}
	est, ve, err := rt.gossip.replicas.MergedSketch(name)
	if err != nil {
		return nil, LocalEstimate{}, err
	}
	return est, LocalEstimate{
		Store:            name,
		AllTime:          ve.AllTime,
		Mode:             "local",
		Replicas:         ve.Replicas,
		LocalFound:       ve.LocalFound,
		Nodes:            len(rt.view().members),
		StalenessSeconds: rt.gossip.staleness().Seconds(),
	}, nil
}
