package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	knw "repro"
	"repro/internal/httpx"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/store"
)

// Anti-entropy gossip replication: every node keeps a merged view of
// the whole cluster — its own store plus one replica envelope per
// (peer, store) — and refreshes it in the background instead of
// scatter-gathering at read time. The loop is classic anti-entropy:
//
//  1. Each round, pick GossipFanout random peers (all of them by
//     default) and fetch each peer's digest — its per-store version
//     vector plus a per-process instance id.
//  2. Diff the digest against the versions held for that peer and POST
//     a pull request listing only the stores that moved, with the held
//     version as the delta base (0 for first contact, and for
//     everything when the instance id changed: a restarted peer's
//     counters share nothing with its old life).
//  3. The peer streams back one record per requested store in a
//     StreamPull record stream (store/records.go): a KNWD section delta
//     (envelope_delta.go) when it can prove what changed since the
//     base — in the duplicate-heavy steady state of distinct counting,
//     a near-empty frame — or a full KNWE envelope. Both are validated
//     and installed into the ReplicaSet; a delta whose base no longer
//     matches (ErrStaleBase) is re-pulled as a full.
//
// Reads over the merged view (LocalEstimate, /v1/estimate, and
// /v1/cluster/estimate?mode=local) are then O(1) in cluster size: one
// local union, no per-request fan-out. The price is staleness, bounded
// by the gossip cadence: a key ingested on a peer is visible here
// within one round-trip of the next round that reaches that peer, and
// every local answer carries its worst-case lag in the
// X-KNW-Staleness header so clients can judge it.
// StalenessHeader carries the worst-case replication lag, in seconds,
// of a merged-view estimate: the age of the oldest peer sync the
// answer may predate. Under a healthy gossip loop it stays below two
// gossip intervals.
const StalenessHeader = "X-KNW-Staleness"

// maxPeerBody bounds one inbound record stream (a first-contact pull or
// a handoff can carry many full envelopes).
const maxPeerBody = 256 << 20

// gossipDigest is GET /v1/gossip/digest: the node's version vector.
type gossipDigest struct {
	Self     string            `json:"self"`
	Instance uint64            `json:"instance"`
	Versions map[string]uint64 `json:"versions"`
}

// pullRequest is the POST /v1/gossip/pull body: the stores the caller
// wants, each with the version it already holds as the delta base.
// Instance is the serving node's instance id as the caller saw it in
// the digest; on a mismatch (the node restarted in between) every base
// is treated as zero.
type pullRequest struct {
	Instance uint64            `json:"instance"`
	Versions map[string]uint64 `json:"versions"`
}

// gossipMetrics are the anti-entropy instruments.
type gossipMetrics struct {
	rounds       *metrics.Counter
	roundSeconds *metrics.Histogram
	rxDeltaBytes *metrics.Counter
	rxFullBytes  *metrics.Counter
	txDeltaBytes *metrics.Counter
	txFullBytes  *metrics.Counter
	// Record counts beside the byte counters, so bytes/records gives
	// the average shipped envelope size per kind — the number that
	// proves steady-state deltas undercut full envelopes.
	txDeltas     *metrics.Counter
	txFulls      *metrics.Counter
	peerFailures *metrics.CounterVec // peer
	applyErrors  *metrics.Counter
}

// gossiper drives one node's anti-entropy loop and owns its replica
// view.
type gossiper struct {
	rt       *Router
	replicas *store.ReplicaSet
	instance uint64
	interval time.Duration
	fanout   int
	now      func() time.Time // injectable for tests

	mu        sync.Mutex
	rng       *rand.Rand
	lastSync  map[string]int64 // peer → unix nanos of the last complete sync
	start     int64            // unix nanos the gossiper was built (staleness floor)
	peerStale *metrics.GaugeFuncVec
	watched   map[string]bool // peers with a registered staleness gauge

	loopMu sync.Mutex
	stop   chan struct{}
	done   chan struct{}

	met gossipMetrics
}

func newGossiper(rt *Router, reg *metrics.Registry) *gossiper {
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	g := &gossiper{
		rt:       rt,
		replicas: store.NewReplicaSet(rt.local),
		instance: rng.Uint64() | 1,
		interval: rt.cfg.GossipInterval,
		fanout:   rt.cfg.GossipFanout,
		now:      time.Now,
		rng:      rng,
		lastSync: make(map[string]int64),
	}
	g.start = g.now().UnixNano()
	g.met = gossipMetrics{
		rounds: reg.NewCounter("knwd_gossip_rounds_total",
			"Anti-entropy rounds completed."),
		roundSeconds: reg.NewHistogram("knwd_gossip_round_seconds",
			"Wall time of anti-entropy rounds.", metrics.DefBuckets),
		rxDeltaBytes: reg.NewCounter("knwd_gossip_rx_delta_bytes_total",
			"Envelope bytes received as KNWD section deltas."),
		rxFullBytes: reg.NewCounter("knwd_gossip_rx_full_bytes_total",
			"Envelope bytes received as full KNWE envelopes."),
		txDeltaBytes: reg.NewCounter("knwd_gossip_tx_delta_bytes_total",
			"Envelope bytes served as KNWD section deltas."),
		txFullBytes: reg.NewCounter("knwd_gossip_tx_full_bytes_total",
			"Envelope bytes served as full KNWE envelopes."),
		txDeltas: reg.NewCounter("knwd_gossip_tx_deltas_total",
			"Envelopes served as KNWD section deltas."),
		txFulls: reg.NewCounter("knwd_gossip_tx_fulls_total",
			"Envelopes served as full KNWE envelopes."),
		peerFailures: reg.NewCounterVec("knwd_gossip_peer_failures_total",
			"Peer syncs abandoned on error.", "peer"),
		applyErrors: reg.NewCounter("knwd_gossip_apply_errors_total",
			"Received envelopes rejected by validation."),
	}
	reg.NewGaugeFunc("knwd_gossip_staleness_seconds",
		"Worst-case replication lag of the merged view.",
		func() float64 { return g.staleness().Seconds() })
	reg.NewGaugeFunc("knwd_gossip_replicas",
		"Replica envelopes held in the merged view.",
		func() float64 { _, n := g.replicas.Stats(); return float64(n) })
	g.peerStale = reg.NewGaugeFuncVec("knwd_gossip_peer_staleness_seconds",
		"Per-peer replication lag: seconds since the last complete sync with the peer.",
		"peer")
	g.watched = make(map[string]bool)
	for _, m := range rt.view().members {
		g.watchPeer(m)
	}
	return g
}

// watchPeer registers the staleness gauge for one peer the first time
// it appears in the membership (join path: gauges are registered
// lazily as the view grows). The gauge reads 0 once the peer leaves
// the view, so a departed member stops alarming dashboards.
func (g *gossiper) watchPeer(peer string) {
	if peer == g.rt.cfg.Self {
		return
	}
	g.mu.Lock()
	seen := g.watched[peer]
	if !seen {
		g.watched[peer] = true
	}
	g.mu.Unlock()
	if seen {
		return
	}
	p := peer
	g.peerStale.With(func() float64 {
		if !memberOf(g.rt.view().members, p) {
			return 0
		}
		return g.peerStaleness(p).Seconds()
	}, p)
}

// dropPeer forgets a departed member: its replicas leave the merged
// view and its sync bookkeeping is discarded. Called on epoch commit.
func (g *gossiper) dropPeer(peer string) {
	n := g.replicas.DropPeer(peer)
	g.mu.Lock()
	delete(g.lastSync, peer)
	g.mu.Unlock()
	g.rt.log.Info("gossip replicas dropped for departed member", "peer", peer, "replicas", n)
}

// memberOf reports whether url is in the sorted member list.
func memberOf(members []string, url string) bool {
	i := sort.SearchStrings(members, url)
	return i < len(members) && members[i] == url
}

// peerStaleness is the age of the last complete sync with one peer
// (the gossiper's own age for peers never reached).
func (g *gossiper) peerStaleness(peer string) time.Duration {
	now := g.now().UnixNano()
	g.mu.Lock()
	last := g.lastSync[peer]
	g.mu.Unlock()
	if last == 0 {
		last = g.start
	}
	return time.Duration(now - last)
}

// GossipEnabled reports whether this router runs anti-entropy
// replication (Config.GossipInterval > 0).
func (rt *Router) GossipEnabled() bool { return rt.gossip != nil }

// Replicas returns the router's replica view, or nil when gossip is
// disabled. The service layer checkpoints it beside the store.
func (rt *Router) Replicas() *store.ReplicaSet {
	if rt.gossip == nil {
		return nil
	}
	return rt.gossip.replicas
}

// Instance returns this node's gossip instance id (0 when disabled).
func (rt *Router) Instance() uint64 {
	if rt.gossip == nil {
		return 0
	}
	return rt.gossip.instance
}

// StartGossip launches the background anti-entropy loop. It is a
// no-op when gossip is disabled or already running.
func (rt *Router) StartGossip() {
	g := rt.gossip
	if g == nil {
		return
	}
	g.loopMu.Lock()
	defer g.loopMu.Unlock()
	if g.stop != nil {
		return
	}
	g.stop = make(chan struct{})
	g.done = make(chan struct{})
	go g.run(g.stop, g.done)
}

// StopGossip stops the loop started by StartGossip and waits for the
// in-flight round to finish.
func (rt *Router) StopGossip() {
	g := rt.gossip
	if g == nil {
		return
	}
	g.loopMu.Lock()
	stop, done := g.stop, g.done
	g.stop, g.done = nil, nil
	g.loopMu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

// GossipRound runs one synchronous anti-entropy round (every peer the
// fanout selects). Tests and the smoke harness drive convergence with
// it; the background loop calls exactly this.
func (rt *Router) GossipRound() {
	if rt.gossip != nil {
		rt.gossip.round()
	}
}

// Staleness is the merged view's worst-case replication lag: the age
// of the oldest peer sync (or of the gossiper itself for peers never
// reached). Zero when gossip is disabled or the node has no peers.
func (rt *Router) Staleness() time.Duration {
	if rt.gossip == nil {
		return 0
	}
	return rt.gossip.staleness()
}

func (g *gossiper) run(stop, done chan struct{}) {
	defer close(done)
	t := time.NewTicker(g.interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			g.round()
		}
	}
}

// round syncs the fanout's worth of random peers concurrently. Each
// sync is a traced local operation (subject to the sampling rate), so
// a sampled round shows up in /v1/debug/traces with its pull and apply
// stage split.
func (g *gossiper) round() {
	t0 := time.Now()
	peers := g.pickPeers()
	var wg sync.WaitGroup
	for _, peer := range peers {
		wg.Add(1)
		go func(peer string) {
			defer wg.Done()
			act := g.rt.tracer.StartLocal("gossip.sync")
			act.SetPeer(peer)
			err := g.syncPeer(peer, act)
			g.rt.tracer.FinishLocal(act, err)
			if err != nil {
				g.met.peerFailures.With(peer).Inc()
				g.rt.log.Warn("gossip sync failed", "peer", peer, "err", err,
					"trace", act.TraceHex())
			}
		}(peer)
	}
	wg.Wait()
	g.met.rounds.Inc()
	d := time.Since(t0)
	g.met.roundSeconds.Observe(d.Seconds())
	g.rt.log.Debug("gossip round", "peers", len(peers),
		"duration_ms", float64(d)/float64(time.Millisecond))
}

// pickPeers selects this round's sync targets: every other member of
// the current union view (joining and leaving nodes keep gossiping
// until the cutover commits), or a uniform sample of GossipFanout of
// them.
func (g *gossiper) pickPeers() []string {
	v := g.rt.view()
	others := make([]string, 0, len(v.members))
	for i, m := range v.members {
		if i != v.self {
			g.watchPeer(m)
			others = append(others, m)
		}
	}
	if g.fanout <= 0 || g.fanout >= len(others) {
		return others
	}
	g.mu.Lock()
	g.rng.Shuffle(len(others), func(i, j int) { others[i], others[j] = others[j], others[i] })
	g.mu.Unlock()
	return others[:g.fanout]
}

// syncPeer brings the replica view for one peer up to date: digest,
// diff, pull, and a base-0 re-pull for any delta that no longer
// applies.
func (g *gossiper) syncPeer(peer string, act *trace.Active) error {
	hdr := act.HeaderValue()
	dig, err := g.fetchDigest(peer, hdr)
	if err != nil {
		return err
	}
	g.replicas.SetInstance(peer, dig.Instance)
	bases := g.replicas.BaseVersions(peer)
	want := make(map[string]uint64, len(dig.Versions))
	for name, v := range dig.Versions {
		if bases[name] != v {
			want[name] = bases[name]
		}
	}
	if len(want) > 0 {
		retry, err := g.pull(peer, dig.Instance, want, hdr, act)
		if err != nil {
			return err
		}
		if len(retry) > 0 {
			zero := make(map[string]uint64, len(retry))
			for _, name := range retry {
				zero[name] = 0
			}
			if again, err := g.pull(peer, dig.Instance, zero, hdr, act); err != nil {
				return err
			} else if len(again) > 0 {
				return fmt.Errorf("cluster: %s served stale deltas for base-0 pull of %v", peer, again)
			}
		}
	}
	g.mu.Lock()
	g.lastSync[peer] = g.now().UnixNano()
	g.mu.Unlock()
	return nil
}

func (g *gossiper) fetchDigest(peer, hdr string) (gossipDigest, error) {
	var dig gossipDigest
	req, err := http.NewRequest(http.MethodGet, peer+"/v1/gossip/digest", nil)
	if err != nil {
		return dig, err
	}
	if hdr != "" {
		req.Header.Set(trace.Header, hdr)
	}
	resp, err := g.rt.client.Do(req)
	if err != nil {
		return dig, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return dig, fmt.Errorf("digest: peer answered HTTP %d: %s", resp.StatusCode, msg)
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, httpx.MaxBodyBytes)).Decode(&dig); err != nil {
		return dig, fmt.Errorf("digest: %w", err)
	}
	if dig.Instance == 0 {
		return dig, errors.New("digest: peer reports no gossip instance")
	}
	return dig, nil
}

// pull fetches and applies the requested envelopes. It returns the
// names whose deltas hit ErrStaleBase (the caller re-pulls base 0);
// anything else wrong with the stream or its contents is an error.
func (g *gossiper) pull(peer string, instance uint64, want map[string]uint64, hdr string, act *trace.Active) ([]string, error) {
	body, err := json.Marshal(pullRequest{Instance: instance, Versions: want})
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequest(http.MethodPost, peer+"/v1/gossip/pull", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if hdr != "" {
		req.Header.Set(trace.Header, hdr)
	}
	t0 := time.Now()
	resp, err := g.rt.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return nil, fmt.Errorf("pull: peer answered HTTP %d: %s", resp.StatusCode, msg)
	}
	st, err := readStream(resp.Body, store.StreamPull)
	if err != nil {
		return nil, fmt.Errorf("pull: %w", err)
	}
	pullDur := time.Since(t0)
	g.rt.met.stagePull.Observe(pullDur.Seconds())
	act.Stage("gossip_pull", pullDur)
	applyStart := time.Now()
	defer func() {
		d := time.Since(applyStart)
		g.rt.met.stageApply.Observe(d.Seconds())
		act.Stage("gossip_apply", d)
	}()

	retry, err := g.apply(peer, st)
	if err != nil {
		return nil, fmt.Errorf("pull: %w", err)
	}
	return retry, nil
}

// apply installs a pulled record stream into peer's replicas — gossip's
// sink for the record codec. It returns the names whose deltas hit
// ErrStaleBase; anything else wrong with a record is an error.
func (g *gossiper) apply(peer string, st store.Stream) ([]string, error) {
	// The peer may have restarted between digest and pull; its versions
	// then belong to the new life.
	g.replicas.SetInstance(peer, st.Anchor)
	var retry []string
	for _, rec := range st.Records {
		if knw.IsDelta(rec.Env) {
			g.met.rxDeltaBytes.Add(uint64(len(rec.Env)))
			switch err := g.replicas.ApplyDelta(peer, rec.Name, rec.Env); {
			case errors.Is(err, store.ErrStaleBase):
				retry = append(retry, rec.Name)
			case err != nil:
				g.met.applyErrors.Inc()
				return retry, fmt.Errorf("applying delta %q: %w", rec.Name, err)
			}
			continue
		}
		g.met.rxFullBytes.Add(uint64(len(rec.Env)))
		if err := g.replicas.ApplyFull(peer, rec.Name, rec.Version, rec.Env); err != nil {
			g.met.applyErrors.Inc()
			return retry, fmt.Errorf("applying %q: %w", rec.Name, err)
		}
	}
	return retry, nil
}

// readStream reads one whole record stream of kind from body, refusing
// more than maxPeerBody bytes, and decodes it with the store's one
// reader. Read errors come back wrapped, so a http.MaxBytesReader body
// still maps to 413.
func readStream(body io.Reader, kind store.StreamKind) (store.Stream, error) {
	data, err := io.ReadAll(io.LimitReader(body, maxPeerBody+1))
	if err != nil {
		return store.Stream{}, fmt.Errorf("reading record stream: %w", err)
	}
	if len(data) > maxPeerBody {
		return store.Stream{}, fmt.Errorf("record stream exceeds %d bytes", maxPeerBody)
	}
	return store.DecodeStream(data, kind)
}

func (g *gossiper) staleness() time.Duration {
	v := g.rt.view()
	now := g.now().UnixNano()
	g.mu.Lock()
	defer g.mu.Unlock()
	worst := int64(0)
	for i, m := range v.members {
		if i == v.self {
			continue
		}
		last := g.lastSync[m]
		if last == 0 {
			last = g.start
		}
		if d := now - last; d > worst {
			worst = d
		}
	}
	return time.Duration(worst)
}

// LocalEstimate is the merged-view read: the union of this node's own
// sketch and every replica envelope gossip holds for the store.
type LocalEstimate struct {
	Store   string  `json:"store"`
	AllTime float64 `json:"all_time"`
	Mode    string  `json:"mode"`
	// Replicas counts the peer envelopes merged in; LocalFound reports
	// whether this node's own store holds the name.
	Replicas   int  `json:"replicas"`
	LocalFound bool `json:"local_found"`
	Nodes      int  `json:"nodes"`
	// StalenessSeconds is the answer's worst-case replication lag (the
	// X-KNW-Staleness header as a field).
	StalenessSeconds float64 `json:"staleness_seconds"`
}

// LocalEstimate serves name from the merged view in O(1): no network,
// one cached union. It returns store.ErrNotFound when neither the
// local store nor any replica holds the name, and an error when gossip
// is disabled.
func (rt *Router) LocalEstimate(name string) (LocalEstimate, error) {
	if rt.gossip == nil {
		return LocalEstimate{}, errors.New("cluster: gossip replication is disabled (-gossip-interval)")
	}
	if err := store.ValidateName(name); err != nil {
		return LocalEstimate{}, err
	}
	ve, err := rt.gossip.replicas.Estimate(name)
	if err != nil {
		return LocalEstimate{}, err
	}
	return LocalEstimate{
		Store:            name,
		AllTime:          ve.AllTime,
		Mode:             "local",
		Replicas:         ve.Replicas,
		LocalFound:       ve.LocalFound,
		Nodes:            len(rt.view().members),
		StalenessSeconds: rt.gossip.staleness().Seconds(),
	}, nil
}

// HandleGossipDigest is GET /v1/gossip/digest: this node's version
// vector and instance id.
func (rt *Router) HandleGossipDigest(w http.ResponseWriter, _ *http.Request) {
	g := rt.gossip
	if g == nil {
		httpx.Fail(w, http.StatusNotFound, errors.New("gossip replication is disabled"))
		return
	}
	httpx.Reply(w, http.StatusOK, gossipDigest{
		Self:     rt.cfg.Self,
		Instance: g.instance,
		Versions: rt.local.Digest(),
	})
}

// HandleGossipPull is POST /v1/gossip/pull: stream back one record
// per requested store — a KNWD delta against the caller's base when
// the store can prove what changed, a full envelope otherwise.
func (rt *Router) HandleGossipPull(w http.ResponseWriter, r *http.Request) {
	g := rt.gossip
	if g == nil {
		httpx.Fail(w, http.StatusNotFound, errors.New("gossip replication is disabled"))
		return
	}
	var req pullRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, httpx.MaxBodyBytes)).Decode(&req); err != nil {
		httpx.Fail(w, httpx.ReadStatus(err), err)
		return
	}
	if len(req.Versions) > store.MaxStreamRecords {
		httpx.Fail(w, http.StatusBadRequest, fmt.Errorf("pull requests %d stores", len(req.Versions)))
		return
	}
	names := make([]string, 0, len(req.Versions))
	for name := range req.Versions {
		names = append(names, name)
	}
	sort.Strings(names)

	sw := store.StreamWriter{Header: store.StreamHeader{Kind: store.StreamPull, Anchor: g.instance}}
	for _, name := range names {
		base := req.Versions[name]
		if req.Instance != g.instance {
			// The caller's bases belong to a previous life of this
			// process; every version counter has restarted since.
			base = 0
		}
		ds, err := rt.local.DeltaSnapshot(name, base, true)
		if err != nil || ds.Env == nil {
			continue // unknown here, or already current
		}
		sw.Add(name, ds.Version, ds.Env)
		if ds.Delta {
			g.met.txDeltaBytes.Add(uint64(len(ds.Env)))
			g.met.txDeltas.Inc()
		} else {
			g.met.txFullBytes.Add(uint64(len(ds.Env)))
			g.met.txFulls.Inc()
		}
	}
	head := sw.Head()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(head)+len(sw.Body())))
	w.WriteHeader(http.StatusOK)
	w.Write(head)
	w.Write(sw.Body())
}
