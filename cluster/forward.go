package cluster

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"time"

	"repro/internal/frame"
	"repro/internal/httpx"
	"repro/internal/trace"
	"repro/store"
)

// session is one cluster-ingest request's routing state for a single
// target store: locally owned keys batched for the node's own store,
// plus one pending buffer per peer, flushed to the peer's single-node
// ingest API whenever it reaches store.BatchKeys (so a forwarded frame
// fits one empty delta slot on the receiver) and once more when the
// request body is exhausted.
//
// Keys travel pre-hashed. Whatever codec the client used, the router
// hashes each key through the local store's pinned hash
// (store.HashKey) — or accepts the client's hash from a binary frame —
// places mix64(hash) on the ring, and forwards uint64s to peers as
// binary frames (internal/frame). One hash per key for the whole
// cluster hop, no JSON re-encoding, and every replica ingests the
// exact same uint64 — so the three ingest codecs replicate
// byte-identically. Placement from the sketch hash is safe for the
// same reason forwarding it is: all peers are required to share the
// store seed (see the package comment), so they agree on both.
//
// A key's R owners are R distinct members, so as long as fewer than R
// peers fail the request, every key has landed on at least one owner
// and the ingest is reported as a (possibly partial) success; only ≥ R
// failed peers can have lost a key entirely, and that is the one case
// routed ingest reports as an error.
type session struct {
	rt    *Router
	v     *ringView // the membership snapshot this request routes on
	store string

	received int      // keys consumed from the request body
	localBuf []uint64 // pending key hashes owned by self
	local    int      // keys applied to the local store
	pending  [][]uint64
	sent     []int  // per-member keys delivered
	lost     []int  // per-member keys abandoned after retries
	failed   []bool // member declared unreachable this request

	owners  []int  // scratch for ringView.owners (union indexes)
	scratch []int  // scratch for the per-ring owner walk
	body    []byte // scratch for frame encoding

	// act is the request's sampled span (nil when unsampled); hdr is
	// its rendered X-KNW-Trace value, computed once per session and
	// attached to every forward so peer spans join the trace.
	act *trace.Active
	hdr string
}

func (rt *Router) newSession(store string, act *trace.Active) *session {
	v := rt.view()
	n := len(v.members)
	return &session{
		rt:      rt,
		v:       v,
		store:   store,
		pending: make([][]uint64, n),
		sent:    make([]int, n),
		lost:    make([]int, n),
		failed:  make([]bool, n),
		act:     act,
		hdr:     act.HeaderValue(),
	}
}

// route consumes one batch of string keys: each is hashed once through
// the local store's pinned hash, then routed like a pre-hashed key.
func (s *session) route(keys []string) {
	for _, key := range keys {
		s.routeOne(s.rt.local.HashKey(key))
	}
	s.received += len(keys)
}

// routeHashed consumes one batch of pre-hashed keys (the binary frame
// path — the client already ran the shared hash).
func (s *session) routeHashed(keys []uint64) {
	for _, h := range keys {
		s.routeOne(h)
	}
	s.received += len(keys)
}

// routeOne appends one key hash to the buffers of its owners — the
// committed ring's R owners plus, mid-rebalance, the pending ring's
// (the cutover's union routing) — flushing any buffer that
// reaches the threshold. Ring placement is mix64(h): the sketch hash
// is already universe-folded (possibly far narrower than 64 bits), and
// ring position sorts by high bits, so the avalanche re-spread is what
// keeps placement uniform.
func (s *session) routeOne(h uint64) {
	s.owners, s.scratch = s.v.owners(mix64(h), s.owners, s.scratch)
	for _, m := range s.owners {
		if m == s.v.self {
			s.localBuf = append(s.localBuf, h)
			if len(s.localBuf) >= store.BatchKeys {
				s.flushLocal()
			}
			continue
		}
		s.pending[m] = append(s.pending[m], h)
		if len(s.pending[m]) >= store.BatchKeys {
			s.flushPeer(m)
		}
	}
}

// finish flushes every remaining buffer and counts the session's keys.
func (s *session) finish() {
	s.flushLocal()
	for m := range s.pending {
		if len(s.pending[m]) > 0 {
			s.flushPeer(m)
		}
	}
	rt := s.rt
	rt.met.routedKeys.Add(uint64(s.received))
	rt.met.localKeys.Add(uint64(s.local))
	s.act.SetStore(s.store)
	s.act.AddKeys(s.received)
}

func (s *session) flushLocal() {
	if len(s.localBuf) == 0 {
		return
	}
	if err := s.rt.local.IngestHashed(s.store, s.localBuf); err != nil {
		// The handler validated the store name before routing, so the
		// only way the local store can reject a batch is a programming
		// error; count it against self like any other replica loss.
		s.lost[s.v.self] += len(s.localBuf)
		s.failed[s.v.self] = true
		s.act.SetError(err)
		s.rt.log.Error("local ingest failed", "keys", len(s.localBuf), "err", err,
			"trace", s.act.TraceHex())
	} else {
		s.local += len(s.localBuf)
		s.sent[s.v.self] += len(s.localBuf)
	}
	s.localBuf = s.localBuf[:0]
}

// flushPeer delivers member m's pending batch; send does the work.
func (s *session) flushPeer(m int) {
	keys := s.pending[m]
	s.pending[m] = keys[:0]
	if len(keys) == 0 {
		return
	}
	s.send(m, keys)
}

// createAll mirrors the single-node create-on-empty-body contract
// cluster-wide: an ingest that carried no keys still creates the store
// on every member, so a later estimate reports 0 instead of 404 no
// matter which node it asks.
func (s *session) createAll() {
	for m := range s.v.members {
		if m == s.v.self {
			if err := s.rt.local.IngestHashed(s.store, nil); err != nil {
				s.failed[m] = true
			}
			continue
		}
		s.send(m, nil)
	}
}

// send delivers one batch (empty = store creation) to member m over
// the peer's plain /v1/ingest API (which never re-forwards), retrying
// with exponential backoff. The body is a binary frame of the key
// hashes: pre-hashed uint64s are byte-identical on every replica by
// construction — no text escaping to fumble — and the peer's zero-
// alloc frame path ingests them without touching key bytes. A peer
// that exhausts its attempts is marked failed for the rest of the
// request; its keys survive on the batch's other owners.
func (s *session) send(m int, keys []uint64) {
	rt := s.rt
	peer := s.v.members[m]
	if s.failed[m] {
		// Already unreachable this request: don't stall the stream
		// re-timing-out per batch.
		s.lost[m] += len(keys)
		rt.met.forwardErrors.With(peer).Inc()
		return
	}
	s.body = frame.AppendHeader(s.body[:0])
	s.body = frame.AppendDoc(s.body, s.store, keys)
	backoff := rt.cfg.Backoff
	var lastErr error
	for attempt := 0; attempt < rt.cfg.Attempts; attempt++ {
		if attempt > 0 {
			rt.met.forwardRetries.With(peer).Inc()
			time.Sleep(backoff)
			backoff *= 2
		}
		t0 := time.Now()
		err, permanent := rt.postBatch(peer, s.store, s.body, s.hdr)
		if err == nil {
			d := time.Since(t0)
			rt.met.forwardSeconds.With(peer).Observe(d.Seconds())
			rt.met.stageForward.Observe(d.Seconds())
			rt.met.forwardKeys.With(peer).Add(uint64(len(keys)))
			s.act.Stage("peer_forward", d)
			s.sent[m] += len(keys)
			return
		}
		lastErr = err
		if permanent {
			break
		}
	}
	s.failed[m] = true
	s.lost[m] += len(keys)
	rt.met.forwardErrors.With(peer).Inc()
	s.act.SetError(lastErr)
	rt.log.Warn("forward failed", "peer", peer, "keys", len(keys), "err", lastErr,
		"trace", s.act.TraceHex())
}

// postBatch sends one frame to a peer's single-node ingest, carrying
// the trace header when the request is sampled. The second return
// marks permanent failures (4xx: the peer is up but rejects the
// request — retrying cannot help).
func (rt *Router) postBatch(peer, storeName string, body []byte, hdr string) (err error, permanent bool) {
	u := peer + "/v1/ingest?store=" + url.QueryEscape(storeName)
	req, err := http.NewRequest(http.MethodPost, u, bytes.NewReader(body))
	if err != nil {
		return err, false
	}
	req.Header.Set("Content-Type", httpx.FrameContentType)
	if hdr != "" {
		req.Header.Set(trace.Header, hdr)
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return err, false
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, false
	}
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
	err = fmt.Errorf("peer answered HTTP %d: %s", resp.StatusCode, msg)
	return err, resp.StatusCode >= 400 && resp.StatusCode < 500
}

// result summarizes a finished session for the HTTP response.
type ingestResult struct {
	Store       string         `json:"store"`
	Received    int            `json:"received"`
	Replication int            `json:"replication"`
	Local       int            `json:"local"`
	Forwarded   map[string]int `json:"forwarded,omitempty"`
	Lost        map[string]int `json:"lost,omitempty"`
	Partial     bool           `json:"partial"`
}

func (s *session) result() (ingestResult, []string) {
	out := ingestResult{
		Store:       s.store,
		Received:    s.received,
		Replication: s.v.replication,
		Local:       s.local,
	}
	var failed []string
	for m := range s.sent {
		peer := s.v.members[m]
		if m != s.v.self && s.sent[m] > 0 {
			if out.Forwarded == nil {
				out.Forwarded = make(map[string]int)
			}
			out.Forwarded[peer] = s.sent[m]
		}
		if s.lost[m] > 0 {
			if out.Lost == nil {
				out.Lost = make(map[string]int)
			}
			out.Lost[peer] = s.lost[m]
		}
		if s.failed[m] {
			failed = append(failed, peer)
		}
	}
	sort.Strings(failed)
	out.Partial = len(failed) > 0
	return out, failed
}
