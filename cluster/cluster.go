// Package cluster turns N knwd processes into one logical sketch
// service. It is the scale-out layer the paper's mergeability makes
// nearly free: a KNW envelope is a tiny summary of a key stream, so
// any node can ingest any slice of the keyspace and a union of
// envelopes carries the same (ε, δ) guarantee as a single sketch over
// the whole stream.
//
// The design is symmetric and coordinator-free:
//
//   - Membership is a versioned ring descriptor (descriptor.go): an
//     epoch-numbered, canonically-encoded member list every node
//     holds. A consistent-hash ring over the sorted list — vnodes
//     points per member — assigns each ingested key to R owner nodes
//     (the replication factor). Every node computes identical
//     ownership from the descriptor alone; there is no metadata
//     service. The boot descriptor (epoch 1) comes from the -peers
//     flag, and joins/leaves advance it through the coordinator's
//     prepare, handoff and commit phases (membership.go). In the
//     handoff phase (handoff.go) each old owner pushes re-owned data
//     as whole envelopes — O(sketch), not O(keys) — in the same peer
//     record stream gossip pulls carry (records.go).
//   - Writes route. POST /v1/cluster/ingest decodes its body with the
//     leaf's decoder (httpx.DecodeIngest, so both ingest endpoints
//     share one body contract), hashes each key once through the
//     store's pinned sketch hash, places mix64(hash) on the ring,
//     applies locally owned keys directly to the node's own
//     store, and fans the rest out to owner peers as binary frames of
//     pre-hashed keys (internal/frame) over the existing single-node
//     POST /v1/ingest API, with per-peer buffered batches and
//     retry/backoff. Plain /v1/ingest never re-forwards, so forwarding
//     can never loop — and since every replica ingests the same
//     uint64s, replicas that drain at the same points hold
//     byte-identical sketches no matter which codec the client used
//     (DESIGN.md §18).
//   - Reads gather. GET /v1/cluster/estimate scatter-gathers snapshot
//     envelopes from every peer, opens them with knw.Open, unions them
//     into the local contribution via knw.MergeInto, and reports the
//     merged estimate. Keys replicated on several nodes count once —
//     union semantics — so replication costs no accuracy.
//   - Partial failure degrades, never errors. An ingest that loses
//     fewer than R peers still lands every key on at least one owner
//     (owner sets are R distinct members) and answers 200. A gather
//     that loses peers serves the union of what answered — at minimum
//     the stale local view — with the X-KNW-Partial header naming the
//     unreachable peers.
//
// All peers must share sketch kind, options, and seed (knwd's -seed
// flag): mergeability is what the whole layer stands on, and a
// misconfigured peer's envelopes are rejected as 409s by the
// compatibility check rather than silently corrupting the union.
package cluster

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/store"
)

// PartialHeader is set on cluster responses assembled without every
// peer: the value is the comma-separated list of unreachable peers.
const PartialHeader = "X-KNW-Partial"

// Config configures a cluster Router.
type Config struct {
	// Self is this node's own base URL exactly as it appears in Peers.
	Self string
	// Peers is the full static member list (including Self), as base
	// URLs ("http://10.0.0.1:7070"). Order does not matter: the ring is
	// built over the sorted list, so all nodes agree.
	Peers []string
	// Replication is the number of owner nodes per key, in
	// [1, len(Peers)]. Default 1 (partitioning without redundancy).
	Replication int
	// Vnodes is the number of ring points per member (default 64).
	Vnodes int
	// Attempts is how many times a forward batch is tried before the
	// peer is declared failed for the request (default 3).
	Attempts int
	// Backoff is the delay before the first retry, doubling per attempt
	// (default 50ms).
	Backoff time.Duration
	// Timeout bounds each forward or gather request (default 5s).
	// Ignored when Client is set.
	Timeout time.Duration
	// Client overrides the HTTP client used for peer traffic.
	Client *http.Client
	// GossipInterval enables anti-entropy replication (gossip.go): every
	// interval the node syncs replica envelopes from random peers and
	// serves merged-view estimates locally. Zero disables gossip.
	GossipInterval time.Duration
	// GossipFanout is how many random peers each round syncs (0 = all).
	GossipFanout int
	// HandoffTimeout bounds a membership change's handoff phase: the
	// coordinator's wait for each old owner, and each owner's push
	// retries (default 30s). Past it the coordinator commits the new
	// ring epoch anyway; with replication ≥ 2 a skipped (unreachable)
	// member's keys survive on the other replicas.
	HandoffTimeout time.Duration
	// Log receives structured operational logs. Nil discards them. The
	// service layer passes its own logger down so cluster events share
	// the daemon's -log-level/-log-format.
	Log *slog.Logger
	// Tracer, when non-nil, traces peer traffic: forwards, gathers, and
	// gossip syncs carry the X-KNW-Trace header so remote spans join
	// the caller's trace. The service layer passes its tracer down.
	Tracer *trace.Tracer
	// Stages, when non-nil, receives the cluster's share of the
	// knwd_stage_seconds histogram (peer_forward, gossip_pull,
	// gossip_apply). The service layer owns the vec.
	Stages *metrics.HistogramVec
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Replication == 0 {
		out.Replication = 1
	}
	if out.Vnodes == 0 {
		out.Vnodes = defaultVnodes
	}
	if out.Attempts == 0 {
		out.Attempts = 3
	}
	if out.Backoff == 0 {
		out.Backoff = 50 * time.Millisecond
	}
	if out.Timeout == 0 {
		out.Timeout = 5 * time.Second
	}
	if out.HandoffTimeout == 0 {
		out.HandoffTimeout = 30 * time.Second
	}
	if out.Log == nil {
		out.Log = trace.DiscardLogger()
	}
	return out
}

// Router is one node's view of the cluster: the versioned ring, the
// local store, and the HTTP plumbing for forwarding, gathering, and
// membership changes.
type Router struct {
	cfg    Config
	local  *store.Store
	vnodes int // normalized Config.Vnodes
	client *http.Client
	log    *slog.Logger
	tracer *trace.Tracer // may be nil (library embeddings)
	gossip *gossiper     // nil when Config.GossipInterval is zero
	met    routerMetrics

	// live is the routing snapshot handlers load once per request;
	// memMu guards the descriptor state it is rebuilt from, and
	// changeMu serializes local coordinators (Join/Leave).
	live     atomic.Pointer[ringView]
	memMu    sync.Mutex
	changeMu sync.Mutex
	cur      *RingDescriptor
	curRing  *ring
	pending  *transition // nil when stable

	// now/sleepFn are injectable for the fake-clock cutover tests.
	now     func() time.Time
	sleepFn func(time.Duration)
}

// sleep pauses for d or until ctx ends, via the injected clock when
// tests set one.
func (rt *Router) sleep(ctx context.Context, d time.Duration) {
	if rt.sleepFn != nil {
		rt.sleepFn(d)
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// routerMetrics are the cluster-layer instruments, labeled by peer URL
// where a peer is involved. All handles are nil-safe.
type routerMetrics struct {
	forwardKeys    *metrics.CounterVec // peer
	forwardErrors  *metrics.CounterVec // peer
	forwardRetries *metrics.CounterVec // peer
	forwardSeconds *metrics.HistogramVec
	gatherSeconds  *metrics.Histogram
	gatherPartial  *metrics.Counter
	partialServed  *metrics.Counter
	routedKeys     *metrics.Counter
	localKeys      *metrics.Counter

	// Handoff progress (membership transitions).
	handoffStores  *metrics.Counter
	handoffKeys    *metrics.Counter
	handoffBytes   *metrics.Counter
	handoffRetries *metrics.Counter
	handoffErrors  *metrics.Counter
	handoffApplied *metrics.Counter
	handoffSeconds *metrics.Histogram

	// Cached knwd_stage_seconds series (Config.Stages; nil without a
	// stage vec).
	stageForward      *metrics.Histogram // successful forward batches
	stagePull         *metrics.Histogram // gossip pull HTTP round-trips
	stageApply        *metrics.Histogram // gossip envelope validation + install
	stageHandoffPush  *metrics.Histogram // successful handoff pushes
	stageHandoffApply *metrics.Histogram // inbound handoff merge
}

// New validates the configuration, builds the ring, and returns the
// node's Router. st is the node's own store — the same registry the
// single-node API serves — and reg (which may be nil) receives the
// cluster instruments.
func New(cfg Config, st *store.Store, reg *metrics.Registry) (*Router, error) {
	if st == nil {
		return nil, fmt.Errorf("cluster: nil store")
	}
	cfg = cfg.withDefaults()
	r, err := newRing(cfg.Peers, cfg.Vnodes)
	if err != nil {
		return nil, err
	}
	if r.index(cfg.Self) < 0 {
		return nil, fmt.Errorf("cluster: self %q is not in the peer list %v", cfg.Self, cfg.Peers)
	}
	if cfg.Replication < 1 || cfg.Replication > len(r.members) {
		return nil, fmt.Errorf("cluster: replication %d outside [1, %d]", cfg.Replication, len(r.members))
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{
			Timeout: cfg.Timeout,
			Transport: &http.Transport{
				MaxIdleConns:        4 * len(r.members),
				MaxIdleConnsPerHost: 8,
			},
		}
	}
	vnodes := cfg.Vnodes
	if vnodes <= 0 {
		vnodes = defaultVnodes
	}
	rt := &Router{cfg: cfg, local: st, vnodes: vnodes, client: client,
		log: cfg.Log, tracer: cfg.Tracer, now: time.Now}
	rt.initMembership(r)
	rt.initMetrics(reg)
	rt.ringEpochGauges(reg)
	if cfg.GossipInterval > 0 {
		rt.gossip = newGossiper(rt, reg)
	}
	return rt, nil
}

// Close releases the router's idle peer connections. The service layer
// calls it on shutdown after draining.
func (rt *Router) Close() { rt.client.CloseIdleConnections() }

func (rt *Router) initMetrics(reg *metrics.Registry) {
	rt.met = routerMetrics{
		forwardKeys: reg.NewCounterVec("knwd_cluster_forward_keys_total",
			"Keys delivered to peer nodes by the ingest router.", "peer"),
		forwardErrors: reg.NewCounterVec("knwd_cluster_forward_errors_total",
			"Forward batches abandoned after exhausting retries.", "peer"),
		forwardRetries: reg.NewCounterVec("knwd_cluster_forward_retries_total",
			"Forward batch retry attempts.", "peer"),
		forwardSeconds: reg.NewHistogramVec("knwd_cluster_forward_seconds",
			"Latency of forward batches to peers (successful attempts).",
			metrics.DefBuckets, "peer"),
		gatherSeconds: reg.NewHistogram("knwd_cluster_gather_seconds",
			"Wall time of full scatter-gather estimate assemblies.",
			metrics.DefBuckets),
		gatherPartial: reg.NewCounter("knwd_cluster_gather_partial_total",
			"Scatter-gather estimates served without every peer."),
		partialServed: reg.NewCounter("knwd_cluster_partial_estimates_total",
			"Cluster estimates answered 200 from a partial gather (the stale-local fallback)."),
		routedKeys: reg.NewCounter("knwd_cluster_routed_keys_total",
			"Keys accepted by POST /v1/cluster/ingest."),
		localKeys: reg.NewCounter("knwd_cluster_local_keys_total",
			"Routed key-replicas owned by this node itself."),
		handoffStores: reg.NewCounter("knwd_handoff_stores_total",
			"Store records shipped to new owners by the handoff phase."),
		handoffKeys: reg.NewCounter("knwd_handoff_keys_total",
			"Estimated distinct keys covered by shipped handoff envelopes."),
		handoffBytes: reg.NewCounter("knwd_handoff_bytes_total",
			"Bytes of handoff streams delivered to new owners."),
		handoffRetries: reg.NewCounter("knwd_handoff_retries_total",
			"Handoff push retry attempts."),
		handoffErrors: reg.NewCounter("knwd_handoff_errors_total",
			"Handoff push attempts that failed."),
		handoffApplied: reg.NewCounter("knwd_handoff_applied_total",
			"Inbound handoff records merged into the local store."),
		handoffSeconds: reg.NewHistogram("knwd_handoff_seconds",
			"Wall time of successful handoff pushes.", metrics.DefBuckets),
	}
	if rt.cfg.Stages != nil {
		rt.met.stageForward = rt.cfg.Stages.With("peer_forward")
		rt.met.stagePull = rt.cfg.Stages.With("gossip_pull")
		rt.met.stageApply = rt.cfg.Stages.With("gossip_apply")
		rt.met.stageHandoffPush = rt.cfg.Stages.With("handoff_push")
		rt.met.stageHandoffApply = rt.cfg.Stages.With("handoff_apply")
	}
}

// Members returns the committed ring's (sorted) member list.
func (rt *Router) Members() []string {
	return append([]string(nil), rt.view().cur.members...)
}

// Replication returns the committed ring's replication factor.
func (rt *Router) Replication() int { return rt.view().replication }

// Self returns this node's member URL.
func (rt *Router) Self() string { return rt.cfg.Self }
