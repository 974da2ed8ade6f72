// Package service is knwd's HTTP layer: it binds a store.Store to a
// small versioned API (ingest, estimate, merge, snapshot) and runs the
// background checkpoint loop that makes the daemon restartable. The
// handlers are deliberately thin — every piece of sketch logic lives
// in the store and knw packages — so the same Server drives production
// listeners, httptest harnesses, and the in-process nodes of
// examples/service.
//
// API (all store names come from the required ?store= query parameter
// unless noted):
//
//	POST /v1/ingest    newline-delimited keys; JSON
//	                   {"store": "...", "keys": [...]} documents (the
//	                   JSON body may carry the store name itself); or
//	                   binary frames of pre-hashed keys (Content-Type
//	                   application/x-knw-frame, see internal/frame),
//	                   decoded by httpx.DecodeIngest into the store
//	GET  /v1/estimate  → JSON store.Estimate
//	POST /v1/merge     body = a peer sketch envelope; folds it into the
//	                   named store (409 on kind/settings mismatch)
//	GET  /v1/snapshot  → the named store's envelope bytes
//	                   (&scope=window: the live window ring's union;
//	                   &scope=buckets: the per-bucket ring export the
//	                   cluster series gather ships)
//	PUT  /v1/snapshot  body = an envelope; replaces the named store's
//	                   all-time sketch (409 on mismatch)
//	GET  /v1/stores    → JSON {"stores": [...], "kind": "..."}
//	GET  /v1/query     set algebra over ?stores=a,b[,...]: union,
//	                   intersection, Jaccard, differences, Hamming (L0)
//	                   by inclusion–exclusion over snapshots;
//	                   &scope=window restricts to live windows; cluster
//	                   nodes add &mode=local|gather
//	GET  /v1/series    → per-bucket cardinality time-series of the
//	                   ?store= window ring over &span=, with span union
//	                   and rate-of-change fields; cluster nodes gather
//	                   rings and union same-epoch buckets
//	POST /v1/cluster/ingest    cluster mode: the same bodies, decoded by
//	                   the same httpx.DecodeIngest, routed to ring owners
//	GET  /v1/cluster/estimate  cluster mode: ?mode=local the merged
//	                   gossip view (O(1), X-KNW-Staleness header),
//	                   ?mode=gather the scatter-gather union; local is
//	                   the default once gossip is on
//	GET  /v1/cluster/info      cluster mode: membership and settings
//	POST /v1/cluster/join      membership: add {"url": ...} to the ring
//	                   and cut over (prepare: union routing; handoff:
//	                   old owners push sketches; commit: epoch swap)
//	POST /v1/cluster/leave     membership: remove a member (alive —
//	                   drained first — or dead) and cut over
//	GET/POST /v1/cluster/ring  membership control plane: descriptor
//	                   state; prepare (the proposed and the committed
//	                   KNWM descriptor); ?phase=handoff&epoch= (push
//	                   re-owned stores, answer when every push landed);
//	                   ?phase=commit&epoch=
//	POST /v1/cluster/handoff   rebalance data plane: a record stream
//	                   (KNWG) of a re-owned peer's all-time envelopes
//	                   and rings, merged on arrival
//	GET  /v1/gossip/digest     gossip: this node's version vector
//	POST /v1/gossip/pull       gossip: a record stream of delta/full
//	                   envelopes since the caller's base versions
//	GET  /metrics      → Prometheus text exposition (service + store
//	                   instruments; see internal/metrics)
//	GET  /healthz      → 200 once serving
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"

	knw "repro"
	"repro/cluster"
	"repro/internal/httpx"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/store"
)

// maxBodyBytes bounds any request body; shared with the cluster
// router so the routed and leaf ingest paths can never drift apart.
const maxBodyBytes = httpx.MaxBodyBytes

// Config configures a Server.
type Config struct {
	// Store configures the underlying sketch registry.
	Store store.Config
	// CheckpointDir enables envelope-backed checkpointing: restored on
	// New, written every CheckpointEvery by Run, and once more on
	// shutdown. Empty disables persistence.
	CheckpointDir string
	// CheckpointEvery is the background checkpoint interval (default
	// 30s). A restart loses at most this much ingestion.
	CheckpointEvery time.Duration
	// Log receives structured operational logs (startup, checkpoints,
	// slow requests). Nil discards them. The cluster layer inherits it
	// unless Cluster.Log is set.
	Log *slog.Logger
	// Trace configures request tracing (sampling rate, slow threshold,
	// ring size; see internal/trace). The zero value disables
	// probabilistic sampling but still honors sampled X-KNW-Trace
	// headers from upstream, so cross-node traces stay complete.
	Trace trace.Config
	// Metrics is the instrument registry /metrics serves. Nil means the
	// Server creates its own. The store shares it (unless Store.Metrics
	// is already set), so one scrape covers both layers.
	Metrics *metrics.Registry
	// OnListen, when non-nil, is called once with the bound listener
	// address right after Run's net.Listen succeeds — the readiness
	// hook behind knwd's -ready-file flag.
	OnListen func(net.Addr)
	// Cluster, when non-nil, mounts the /v1/cluster/... routes: this
	// node joins the described static cluster, routing ingested keys to
	// their ring owners and scatter-gathering estimates (see package
	// cluster). The plain /v1/ingest route stays strictly local — it is
	// the leaf API cluster forwarding itself targets, so routed traffic
	// can never loop.
	Cluster *cluster.Config
	// JoinVia, when set on a cluster node, makes serve() announce this
	// node to an existing member (POST {url: self} to
	// JoinVia/v1/cluster/join) once the listener is up, retrying with
	// backoff until the join commits — knwd's -join flag. The node
	// starts on its boot ring (typically just itself) and cuts over to
	// the cluster's epoch during the join's prepare phase.
	JoinVia string
	// DrainOnShutdown makes a cancelled Run leave the ring first —
	// Drain() hands this node's re-owned sketches to the surviving
	// owners and commits the shrunken epoch before the listener stops —
	// knwd's -drain flag. Without it the node just stops serving and
	// peers mark it dead.
	DrainOnShutdown bool
	// Pprof mounts net/http/pprof under /debug/pprof/ on the service
	// mux (knwd's -pprof flag), so the ingest hot path can be profiled
	// in place. Off by default: the endpoints expose goroutine dumps
	// and heap contents, which do not belong on an open ingest port.
	Pprof bool
}

// Server is the knwd HTTP service: a store, its handlers, and the
// checkpoint loop.
type Server struct {
	cfg    Config
	st     *store.Store
	mux    *http.ServeMux
	reg    *metrics.Registry
	met    serviceMetrics
	log    *slog.Logger
	tracer *trace.Tracer
	router *cluster.Router // non-nil iff Config.Cluster was given
	bufs   sync.Pool       // pooled request-body scratch (merge, restore)
	snaps  sync.Pool       // pooled *[]byte envelope scratch for snapshot responses
}

// New builds a Server and, when a checkpoint directory is configured,
// restores the latest checkpoint from it.
func New(cfg Config) (*Server, error) {
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 30 * time.Second
	}
	if cfg.Log == nil {
		cfg.Log = trace.DiscardLogger()
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	if cfg.Store.Metrics == nil {
		cfg.Store.Metrics = cfg.Metrics
	}
	if cfg.Trace.Log == nil {
		cfg.Trace.Log = cfg.Log
	}
	if cfg.Trace.Node == "" && cfg.Cluster != nil {
		cfg.Trace.Node = cfg.Cluster.Self
	}
	// The stage vec is created before the store so both layers (and the
	// cluster router below) observe into one knwd_stage_seconds family.
	met := newServiceMetrics(cfg.Metrics)
	if cfg.Store.Stages == nil {
		cfg.Store.Stages = met.stages
	}
	st, err := store.New(cfg.Store)
	if err != nil {
		return nil, err
	}
	s := &Server{cfg: cfg, st: st, reg: cfg.Metrics, met: met, log: cfg.Log,
		tracer: trace.New(cfg.Trace)}
	s.bufs.New = func() any { return new(bytes.Buffer) }
	s.snaps.New = func() any { return new([]byte) }
	if cfg.CheckpointDir != "" {
		n, err := st.LoadCheckpoint(cfg.CheckpointDir)
		if err != nil {
			return nil, fmt.Errorf("service: restoring checkpoint: %w", err)
		}
		if n > 0 {
			s.log.Info("restored checkpoint", "stores", n, "dir", cfg.CheckpointDir)
		}
	}
	s.mux = http.NewServeMux()
	s.handle("POST /v1/ingest", "/v1/ingest", s.handleIngest)
	s.handle("GET /v1/estimate", "/v1/estimate", s.handleEstimate)
	s.handle("POST /v1/merge", "/v1/merge", s.handleMerge)
	s.handle("GET /v1/snapshot", "/v1/snapshot", s.handleSnapshotGet)
	s.handle("PUT /v1/snapshot", "/v1/snapshot", s.handleSnapshotPut)
	s.handle("GET /v1/stores", "/v1/stores", s.handleStores)
	s.handle("GET /v1/query", "/v1/query", s.handleQuery)
	s.handle("GET /v1/series", "/v1/series", s.handleSeries)
	s.handle("GET /v1/debug/traces", "/v1/debug/traces", s.handleDebugTraces)
	s.mux.Handle("GET /metrics", s.reg.Handler())
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	if cfg.Cluster != nil {
		cc := *cfg.Cluster
		if cc.Log == nil {
			cc.Log = cfg.Log
		}
		if cc.Tracer == nil {
			cc.Tracer = s.tracer
		}
		if cc.Stages == nil {
			cc.Stages = met.stages
		}
		rt, err := cluster.New(cc, st, cfg.Metrics)
		if err != nil {
			return nil, err
		}
		s.router = rt
		s.handle("POST /v1/cluster/ingest", "/v1/cluster/ingest", rt.HandleIngest)
		s.handle("GET /v1/cluster/estimate", "/v1/cluster/estimate", rt.HandleEstimate)
		s.handle("GET /v1/cluster/info", "/v1/cluster/info", rt.HandleInfo)
		s.handle("POST /v1/cluster/join", "/v1/cluster/join", rt.HandleJoin)
		s.handle("POST /v1/cluster/leave", "/v1/cluster/leave", rt.HandleLeave)
		s.handle("/v1/cluster/ring", "/v1/cluster/ring", rt.HandleRing)
		s.handle("POST /v1/cluster/handoff", "/v1/cluster/handoff", rt.HandleHandoff)
		if rt.GossipEnabled() {
			s.handle("GET /v1/gossip/digest", "/v1/gossip/digest", rt.HandleGossipDigest)
			s.handle("POST /v1/gossip/pull", "/v1/gossip/pull", rt.HandleGossipPull)
			if cfg.CheckpointDir != "" {
				n, err := rt.Replicas().LoadCheckpoint(cfg.CheckpointDir)
				if err != nil {
					// A lost replica view is not data loss — the next gossip
					// sweep rebuilds it — so restore best-effort.
					s.log.Warn("replica view restore failed", "err", err)
				} else if n > 0 {
					s.log.Info("restored replica envelopes", "envelopes", n, "dir", cfg.CheckpointDir)
				}
			}
		}
	}
	if cfg.Pprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s, nil
}

// Cluster returns the node's cluster router (nil on single-node
// servers) — in-process access for tests and embeddings.
func (s *Server) Cluster() *cluster.Router { return s.router }

// Tracer exposes the request tracer (tests, embeddings).
func (s *Server) Tracer() *trace.Tracer { return s.tracer }

// Metrics exposes the registry (embedding, tests).
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// Store exposes the underlying registry (tests, in-process embedding).
func (s *Server) Store() *store.Store { return s.st }

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Checkpoint writes a full checkpoint now (no-op without a configured
// directory), plus the replica view when gossip is on.
func (s *Server) Checkpoint() error {
	if s.cfg.CheckpointDir == "" {
		return nil
	}
	s.checkpointReplicas()
	return s.st.Checkpoint(s.cfg.CheckpointDir)
}

// checkpointTick is the background-loop variant: deltas against the
// last full checkpoint file, with a full rewrite every Nth tick (see
// store.Config.CheckpointFullEvery).
func (s *Server) checkpointTick() error {
	if s.cfg.CheckpointDir == "" {
		return nil
	}
	s.checkpointReplicas()
	return s.st.CheckpointIncremental(s.cfg.CheckpointDir)
}

// checkpointReplicas persists the gossip replica view beside the store
// checkpoint. Best-effort: the view is reconstructible from peers.
func (s *Server) checkpointReplicas() {
	if s.router == nil || !s.router.GossipEnabled() {
		return
	}
	if err := s.router.Replicas().Checkpoint(s.cfg.CheckpointDir); err != nil {
		s.log.Warn("replica checkpoint failed", "err", err)
	}
}

// Run serves the API on addr until ctx is cancelled, checkpointing
// every CheckpointEvery. On cancellation it drains in-flight requests
// and writes a final checkpoint, so a clean shutdown loses nothing.
func (s *Server) Run(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.serve(ctx, ln)
}

func (s *Server) serve(ctx context.Context, ln net.Listener) error {
	if s.cfg.OnListen != nil {
		s.cfg.OnListen(ln.Addr())
	}
	if s.cfg.Trace.Node == "" {
		// Single-node daemons get their span node name from the bound
		// address (cluster nodes already carry their self URL).
		s.tracer.SetNode(ln.Addr().String())
	}
	hs := &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	s.log.Info("serving", "addr", ln.Addr().String(), "kind", s.st.Kind().String(),
		"checkpoint_dir", s.cfg.CheckpointDir, "checkpoint_every", s.cfg.CheckpointEvery.String(),
		"trace_sample", s.cfg.Trace.Sample, "trace_slow", s.cfg.Trace.Slow.String())
	if s.router != nil {
		s.router.StartGossip()
		defer s.router.StopGossip()
		defer s.router.Close()
		if s.cfg.JoinVia != "" {
			go s.announceJoin(ctx)
		}
	}

	ticker := time.NewTicker(s.cfg.CheckpointEvery)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			if err := s.checkpointTick(); err != nil {
				s.log.Warn("checkpoint failed", "err", err)
			}
		case err := <-errc:
			return err
		case <-ctx.Done():
			// Drain before the listener stops: the handoff push and the
			// peers' commit broadcast both need this node still serving.
			if s.cfg.DrainOnShutdown && s.router != nil {
				if res, err := s.router.Drain(); err != nil {
					s.log.Warn("drain failed; shutting down without handoff", "err", err)
				} else if res.Changed {
					s.log.Info("drained from ring", "epoch", res.Epoch, "members", len(res.Members))
				}
			}
			shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			serr := hs.Shutdown(shutCtx)
			<-errc // Serve has returned http.ErrServerClosed
			// Quiesce gossip before the final checkpoint so the persisted
			// replica view is not mid-splice.
			if s.router != nil {
				s.router.StopGossip()
			}
			// Stop the store's epoch loop and drain pending deltas so
			// the final checkpoint captures every acknowledged write.
			s.st.Close()
			if err := s.Checkpoint(); err != nil {
				return fmt.Errorf("service: final checkpoint: %w", err)
			}
			s.log.Info("shut down cleanly, final checkpoint written")
			return serr
		}
	}
}

// announceJoin asks an existing cluster member to admit this node
// (Config.JoinVia): POST {"url": self} to its /v1/cluster/join,
// retrying with capped backoff until the join commits or ctx ends.
// Joining is driven by the seed member — it computes the new epoch,
// streams re-owned sketches here, and commits — so this side only has
// to keep asking; the request is idempotent once membership sticks.
func (s *Server) announceJoin(ctx context.Context) {
	self := s.cfg.Cluster.Self
	body, _ := json.Marshal(map[string]string{"url": self})
	backoff := 200 * time.Millisecond
	for attempt := 1; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			s.cfg.JoinVia+"/v1/cluster/join", bytes.NewReader(body))
		if err != nil {
			s.log.Error("join request build failed", "via", s.cfg.JoinVia, "err", err)
			return
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<10))
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.log.Info("joined cluster", "via", s.cfg.JoinVia,
					"epoch", s.router.Epoch(), "attempt", attempt)
				return
			}
			err = fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
		}
		s.log.Warn("join attempt failed", "via", s.cfg.JoinVia,
			"attempt", attempt, "err", err)
		select {
		case <-ctx.Done():
			return
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > 5*time.Second {
			backoff = 5 * time.Second
		}
	}
}

// --- handlers -------------------------------------------------------

func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("store")
	view := r.URL.Query().Get("view")
	switch view {
	case "merged":
		if s.router == nil || !s.router.GossipEnabled() {
			s.fail(w, http.StatusBadRequest,
				errors.New("view=merged needs gossip replication (-gossip-interval)"))
			return
		}
	case "":
		if s.router == nil || !s.router.GossipEnabled() {
			view = "shard"
		}
	case "shard":
	default:
		s.fail(w, http.StatusBadRequest, fmt.Errorf("unknown estimate view %q", view))
		return
	}
	// With gossip on, /v1/estimate answers from the merged local+replica
	// view by default — O(1), cluster-wide, bounded staleness — so "how
	// many distinct users" needs no scatter-gather. view=shard keeps the
	// raw this-node-only estimate reachable (debugging, shard balance).
	if view != "shard" {
		est, err := s.router.LocalEstimate(name)
		if err != nil {
			s.failStore(w, err)
			return
		}
		w.Header().Set(cluster.StalenessHeader, fmt.Sprintf("%.3f", est.StalenessSeconds))
		s.reply(w, http.StatusOK, est)
		return
	}
	est, err := s.st.Estimate(name)
	if err != nil {
		s.failStore(w, err)
		return
	}
	s.reply(w, http.StatusOK, est)
}

func (s *Server) handleMerge(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("store")
	buf, done := s.readBody(w, r)
	if !done {
		return
	}
	defer s.putBuf(buf)
	if err := s.st.Merge(name, buf.Bytes()); err != nil {
		s.failStore(w, err)
		return
	}
	s.reply(w, http.StatusOK, map[string]any{"store": name, "merged": true})
}

func (s *Server) handleSnapshotGet(w http.ResponseWriter, r *http.Request) {
	// The grown slice is stored back into the pooled holder, so
	// steady-state snapshots reuse one encode buffer per concurrent
	// request instead of reallocating the envelope each time.
	p := s.snaps.Get().(*[]byte)
	defer s.snaps.Put(p)
	var env []byte
	var err error
	switch scope := r.URL.Query().Get("scope"); scope {
	case "", "all":
		env, err = s.st.Snapshot(r.URL.Query().Get("store"), (*p)[:0])
	case "window":
		// The union-of-the-live-ring envelope: what cluster peers gather
		// to serve windowed estimates without shipping bucket state.
		env, err = s.st.WindowSnapshot(r.URL.Query().Get("store"), (*p)[:0])
	case "buckets":
		// The ring export (a StreamRing record stream): what a cluster
		// series gather scatters for. Preserves bucket boundaries so
		// same-epoch buckets union across nodes, at N envelopes of cost.
		// The buckets are copied under the entry lock and encoded
		// outside it.
		name := r.URL.Query().Get("store")
		var rs store.RingSnapshot
		if rs, err = s.st.RingSnapshot(name); err == nil {
			env = store.AppendRingStream((*p)[:0], name, rs)
		}
	default:
		s.fail(w, http.StatusBadRequest, fmt.Errorf("unknown snapshot scope %q", scope))
		return
	}
	if err != nil {
		s.failStore(w, err)
		return
	}
	*p = env
	s.met.snapshotBytes.Add(uint64(len(env)))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", fmt.Sprint(len(env)))
	_, _ = w.Write(env)
}

func (s *Server) handleSnapshotPut(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("store")
	buf, done := s.readBody(w, r)
	if !done {
		return
	}
	defer s.putBuf(buf)
	if err := s.st.Restore(name, buf.Bytes()); err != nil {
		s.failStore(w, err)
		return
	}
	s.reply(w, http.StatusOK, map[string]any{"store": name, "restored": true})
}

func (s *Server) handleStores(w http.ResponseWriter, _ *http.Request) {
	s.reply(w, http.StatusOK, map[string]any{
		"stores": s.st.Names(),
		"kind":   s.st.Kind().String(),
	})
}

// --- plumbing -------------------------------------------------------

func (s *Server) getBuf() *bytes.Buffer {
	buf := s.bufs.Get().(*bytes.Buffer)
	buf.Reset()
	return buf
}

func (s *Server) putBuf(buf *bytes.Buffer) { s.bufs.Put(buf) }

// readBody reads the (size-capped) request body into a pooled buffer.
// On failure it writes the error response itself and reports done =
// false; the caller returns the buffer with putBuf only when done.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) (*bytes.Buffer, bool) {
	buf := s.getBuf()
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes)); err != nil {
		s.putBuf(buf)
		s.fail(w, readStatus(err), fmt.Errorf("reading body: %w", err))
		return nil, false
	}
	return buf, true
}

// readStatus maps a request-body read failure to a status (shared
// with the cluster router; see internal/httpx).
func readStatus(err error) int { return httpx.ReadStatus(err) }

// storeStatus maps store/knw errors to status codes: unknown stores
// are 404, kind/settings mismatches (foreign envelopes) are 409,
// anything else — bad names, corrupt payloads — is 400.
func storeStatus(err error) int {
	switch {
	case errors.Is(err, store.ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, knw.ErrIncompatible):
		return http.StatusConflict
	default:
		return http.StatusBadRequest
	}
}

func (s *Server) failStore(w http.ResponseWriter, err error) {
	s.fail(w, storeStatus(err), err)
}

func (s *Server) fail(w http.ResponseWriter, status int, err error) {
	httpx.Fail(w, status, err)
}

func (s *Server) reply(w http.ResponseWriter, status int, v any) {
	httpx.Reply(w, status, v)
}
