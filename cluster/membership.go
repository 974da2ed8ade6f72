package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/httpx"
	"repro/internal/metrics"
)

// Dynamic membership: the static peer list becomes a sequence of
// epoch-numbered ring descriptors (descriptor.go), and a membership
// change is a cutover in three phases the coordinator (whichever node
// served the join/leave) drives over POST /v1/cluster/ring:
//
//  1. Prepare. The coordinator proposes epoch E+1 and broadcasts the
//     descriptor. Every node that adopts it keeps TWO rings — the
//     committed one and the pending one — and from that moment routes
//     every ingested key to the UNION of its old and new owner sets.
//     Union routing is free under sketch semantics (a key counted on
//     extra replicas still counts once in any merged estimate), and it
//     is what keeps every key owned throughout the transition: old
//     owners still receive it, new owners start receiving it.
//  2. Handoff. Once every member acked the prepare, each old member
//     streams its envelopes to the new owners (handoff.go), which merge
//     them arrive-side, so the new owners' sketches already cover
//     history when the coordinator commits E+1.
//  3. Commit. Each node atomically swaps the pending ring in as the
//     committed one; readers pick up the new epoch on their next
//     request via one atomic pointer load.
//
// Estimates never dip below the (ε,δ) bound mid-rebalance because no
// step ever removes information: union routing only widens write
// fan-out, handoff only merges envelopes in, and gathers read every
// member of the union view. The one lossy moment — a departed member's
// replica envelopes leaving the gossip view — happens at commit, after
// that member's history was handed off.
//
// Concurrent proposals resolve deterministically: a higher epoch
// always supersedes, and two proposals at the same epoch tie-break on
// canonical descriptor bytes (descriptor.less), so every node that
// sees both keeps the same winner and the losing coordinator gets a
// 409 to retry at a higher epoch.

// RingEpochHeader carries the serving node's committed ring epoch on
// cluster responses, so clients (and the churn harness) can attribute
// answers to membership states.
const RingEpochHeader = "X-KNW-Ring-Epoch"

// RebalancingHeader is set (to the pending epoch) on cluster responses
// served while a membership transition is in flight — the rebalance
// counterpart of X-KNW-Partial/X-KNW-Staleness.
const RebalancingHeader = "X-KNW-Rebalancing"

// errStaleEpoch and errEpochConflict map to HTTP 409: the caller's
// descriptor lost a race and should re-read the ring and retry.
// errNotPending (also 409) answers a handoff or commit for an epoch
// this node does not hold pending.
var (
	errStaleEpoch    = errors.New("cluster: descriptor epoch is stale")
	errEpochConflict = errors.New("cluster: conflicting descriptor for epoch")
	errNotPending    = errors.New("cluster: no pending descriptor for epoch")
)

// ringView is one immutable snapshot of the routing state: the
// committed ring, plus — during a transition — the pending ring, with
// both member lists folded into one sorted union so every per-request
// buffer indexes a single member space. Handlers load it once per
// request (Router.view) and use it throughout, so a cutover mid-request
// cannot tear a session's owner bookkeeping.
type ringView struct {
	epoch        uint64
	pendingEpoch uint64 // 0 when no transition is in flight
	members      []string
	self         int // index of selfURL in members; -1 after this node left
	selfURL      string
	replication  int // committed descriptor's replication (reported + loss check)

	cur      *ring
	curIdx   []int // cur member index → union index
	curRepl  int
	next     *ring // nil when stable
	nextIdx  []int
	nextRepl int
	// from is the ring the transition starts from (the coordinator's
	// committed ring), which handoff computes its targets over.
	from     *ring
	fromRepl int
}

// transition is a membership change in flight: the proposed descriptor
// and the committed one the coordinator proposed it from, each with its
// ring. A node that booted on its own ring (knwd -join) holds another
// committed descriptor than the coordinator's; routing keeps its own,
// handoff reads from.
type transition struct {
	next, from         *RingDescriptor
	nextRing, fromRing *ring
}

// buildView assembles the snapshot for one committed ring and the
// transition in flight (nil when stable).
func buildView(selfURL string, cur *RingDescriptor, curRing *ring, pending *transition) *ringView {
	members := cur.Members
	if pending != nil {
		members = append(append([]string(nil), cur.Members...), pending.next.Members...)
		sort.Strings(members)
		n := 0
		for i, m := range members {
			if i == 0 || m != members[n-1] {
				members[n] = m
				n++
			}
		}
		members = members[:n]
	}
	v := &ringView{
		epoch:       cur.Epoch,
		members:     members,
		self:        -1,
		selfURL:     selfURL,
		replication: cur.Replication,
		cur:         curRing,
		curRepl:     cur.Replication,
	}
	if i := sort.SearchStrings(members, selfURL); i < len(members) && members[i] == selfURL {
		v.self = i
	}
	v.curIdx = unionIndex(curRing.members, members)
	if pending != nil {
		v.pendingEpoch = pending.next.Epoch
		v.next = pending.nextRing
		v.nextRepl = pending.next.Replication
		v.nextIdx = unionIndex(pending.nextRing.members, members)
		v.from = pending.fromRing
		v.fromRepl = pending.from.Replication
	}
	return v
}

// unionIndex maps each of sub's (sorted) members to its index in the
// sorted union list.
func unionIndex(sub, union []string) []int {
	idx := make([]int, len(sub))
	for i, m := range sub {
		idx[i] = sort.SearchStrings(union, m)
	}
	return idx
}

// owners appends the union-index owner set for hash h to buf[:0]: the
// committed ring's owners, plus — during a transition — the pending
// ring's, deduplicated. scratch is the per-ring owner scratch slice;
// both slices are returned for reuse.
func (v *ringView) owners(h uint64, buf, scratch []int) ([]int, []int) {
	buf = buf[:0]
	scratch = v.cur.owners(h, v.curRepl, scratch)
	for _, m := range scratch {
		buf = append(buf, v.curIdx[m])
	}
	if v.next != nil {
		scratch = v.next.owners(h, v.nextRepl, scratch)
	outer:
		for _, m := range scratch {
			u := v.nextIdx[m]
			for _, have := range buf {
				if have == u {
					continue outer
				}
			}
			buf = append(buf, u)
		}
	}
	return buf, scratch
}

// rebalancing reports whether a transition is in flight.
func (v *ringView) rebalancing() bool { return v.pendingEpoch != 0 }

// view returns the current routing snapshot. Handlers call it once per
// request and thread the result through, so one request sees one
// consistent membership state.
func (rt *Router) view() *ringView { return rt.live.Load() }

// Epoch returns the committed ring epoch.
func (rt *Router) Epoch() uint64 { return rt.view().epoch }

// Descriptor returns a copy of the committed ring descriptor.
func (rt *Router) Descriptor() RingDescriptor {
	rt.memMu.Lock()
	defer rt.memMu.Unlock()
	d := *rt.cur
	d.Members = append([]string(nil), d.Members...)
	return d
}

// initMembership installs epoch 1 from the static config (the boot
// descriptor every node derives identically from its -peers flag).
func (rt *Router) initMembership(r *ring) {
	rt.cur = &RingDescriptor{
		Epoch:       1,
		Members:     append([]string(nil), r.members...),
		Vnodes:      rt.vnodes,
		Replication: rt.cfg.Replication,
	}
	rt.curRing = r
	rt.live.Store(buildView(rt.cfg.Self, rt.cur, rt.curRing, nil))
}

// rebuildViewLocked refreshes the atomic view from the descriptor
// state. Callers hold memMu.
func (rt *Router) rebuildViewLocked() {
	rt.live.Store(buildView(rt.cfg.Self, rt.cur, rt.curRing, rt.pending))
}

// adopt is the prepare phase on one node: validate the proposed
// descriptor against the committed/pending state, install it as
// pending together with from, the committed descriptor it was proposed
// from, and switch routing to the union view. Idempotent for
// descriptors already held; stale or tie-break-losing proposals return
// errStaleEpoch/errEpochConflict (HTTP 409).
func (rt *Router) adopt(d *RingDescriptor, from RingDescriptor) error {
	if err := d.Validate(); err != nil {
		return err
	}
	if err := from.Validate(); err != nil {
		return err
	}
	r, err := newRing(d.Members, d.Vnodes)
	if err != nil {
		return err
	}
	fromRing, err := newRing(from.Members, from.Vnodes)
	if err != nil {
		return err
	}
	rt.memMu.Lock()
	defer rt.memMu.Unlock()
	switch {
	case d.Epoch < rt.cur.Epoch:
		return fmt.Errorf("%w: proposed %d, committed %d", errStaleEpoch, d.Epoch, rt.cur.Epoch)
	case d.Epoch == rt.cur.Epoch:
		if d.Equal(rt.cur) {
			return nil // the committed descriptor re-announced
		}
		return fmt.Errorf("%w %d", errEpochConflict, d.Epoch)
	}
	if p := rt.pending; p != nil {
		switch {
		case d.Epoch < p.next.Epoch:
			return fmt.Errorf("%w: proposed %d, pending %d", errStaleEpoch, d.Epoch, p.next.Epoch)
		case d.Epoch == p.next.Epoch:
			if d.Equal(p.next) {
				return nil // already adopted
			}
			if p.next.less(d) {
				return fmt.Errorf("%w %d (tie-break)", errEpochConflict, d.Epoch)
			}
			// The incoming proposal wins the tie-break: fall through and
			// replace ours.
		}
	}
	if from.Epoch >= d.Epoch {
		return fmt.Errorf("cluster: proposed epoch %d does not follow committed epoch %d", d.Epoch, from.Epoch)
	}
	rt.pending = &transition{next: d, from: &from, nextRing: r, fromRing: fromRing}
	rt.rebuildViewLocked()
	rt.log.Info("ring epoch adopted", "epoch", d.Epoch,
		"members", len(d.Members), "replication", d.Replication)
	return nil
}

// CommitEpoch is the cutover on one node: the pending descriptor for
// epoch becomes the committed one, the union view collapses to the new
// ring, and replicas of departed members leave the gossip view.
// Idempotent for epochs already committed.
func (rt *Router) CommitEpoch(epoch uint64) error {
	rt.memMu.Lock()
	if rt.cur.Epoch >= epoch {
		rt.memMu.Unlock()
		return nil
	}
	if rt.pending == nil || rt.pending.next.Epoch != epoch {
		have := uint64(0)
		if rt.pending != nil {
			have = rt.pending.next.Epoch
		}
		rt.memMu.Unlock()
		return fmt.Errorf("%w %d (pending %d, committed %d)", errNotPending, epoch, have, rt.cur.Epoch)
	}
	old := rt.cur
	rt.cur, rt.curRing = rt.pending.next, rt.pending.nextRing
	rt.pending = nil
	rt.rebuildViewLocked()
	departed := make([]string, 0, 1)
	for _, m := range old.Members {
		if !rt.cur.hasMember(m) && m != rt.cfg.Self {
			departed = append(departed, m)
		}
	}
	rt.memMu.Unlock()
	for _, peer := range departed {
		if rt.gossip != nil {
			rt.gossip.dropPeer(peer)
		}
	}
	rt.log.Info("ring epoch committed", "epoch", epoch,
		"members", len(rt.view().cur.members), "departed", len(departed))
	return nil
}

// ChangeResult is the coordinator's summary of one membership change.
type ChangeResult struct {
	Epoch       uint64   `json:"epoch"`
	Members     []string `json:"members"`
	Replication int      `json:"replication"`
	Changed     bool     `json:"changed"`
	// Skipped lists members whose prepare, handoff or commit call
	// failed or outlasted the cutover deadline (dead nodes being
	// removed, typically). With replication ≥ 2 their keys survive on
	// the other replicas.
	Skipped []string `json:"skipped,omitempty"`
}

// Join adds url to the cluster and drives the three-phase cutover to the
// new ring epoch, returning once the epoch is committed. Idempotent:
// joining a current member reports the committed state unchanged.
func (rt *Router) Join(url string) (ChangeResult, error) {
	if err := validateMemberURL(url); err != nil {
		return ChangeResult{}, err
	}
	rt.changeMu.Lock()
	defer rt.changeMu.Unlock()
	base := rt.Descriptor()
	if base.hasMember(url) && rt.view().pendingEpoch == 0 {
		return ChangeResult{Epoch: base.Epoch, Members: base.Members,
			Replication: base.Replication}, nil
	}
	return rt.changeMembership(withMember(base.Members, url))
}

// Leave removes url from the cluster: the departing node (if alive)
// hands its slices off in the handoff phase, and the commit drops it
// from routing and the gossip view. Removing an unreachable node is
// allowed — its calls fail and it is skipped, which is the
// crash-recovery path (safe at replication ≥ 2). Idempotent for
// non-members.
func (rt *Router) Leave(url string) (ChangeResult, error) {
	if err := validateMemberURL(url); err != nil {
		return ChangeResult{}, err
	}
	rt.changeMu.Lock()
	defer rt.changeMu.Unlock()
	base := rt.Descriptor()
	if !base.hasMember(url) && rt.view().pendingEpoch == 0 {
		return ChangeResult{Epoch: base.Epoch, Members: base.Members,
			Replication: base.Replication}, nil
	}
	members := withoutMember(base.Members, url)
	if len(members) == 0 {
		return ChangeResult{}, fmt.Errorf("cluster: cannot remove the last member %q", url)
	}
	return rt.changeMembership(members)
}

// Drain hands this node's data off and removes it from the ring — the
// SIGTERM path (cmd/knwd -drain). The node keeps serving throughout:
// it must answer snapshot and ingest traffic while its handoff runs.
func (rt *Router) Drain() (ChangeResult, error) {
	return rt.Leave(rt.cfg.Self)
}

func validateMemberURL(url string) error {
	if len(url) < 8 || (url[:7] != "http://" && (len(url) < 9 || url[:8] != "https://")) {
		return fmt.Errorf("cluster: member url %q must be an http(s) base URL", url)
	}
	d := RingDescriptor{Epoch: 1, Members: []string{url}, Vnodes: 1, Replication: 1}
	return d.Validate()
}

// changeMembership runs the coordinator protocol for one target member
// list. Callers hold changeMu.
func (rt *Router) changeMembership(members []string) (ChangeResult, error) {
	rt.memMu.Lock()
	epoch := rt.cur.Epoch + 1
	if rt.pending != nil && rt.pending.next.Epoch >= epoch {
		epoch = rt.pending.next.Epoch + 1
	}
	from := *rt.cur
	// Replication is ring policy, carried forward from the committed
	// descriptor — NOT from this coordinator's boot config. A draining
	// node proposes its own removal, and a joiner that booted alone has
	// replication 1 in its config; either would otherwise downgrade the
	// survivors' replication factor.
	repl := rt.cur.Replication
	rt.memMu.Unlock()
	if repl > len(members) {
		repl = len(members)
	}
	d := &RingDescriptor{Epoch: epoch, Members: members, Vnodes: rt.vnodes, Replication: repl}
	if err := d.Validate(); err != nil {
		return ChangeResult{}, err
	}
	if err := rt.adopt(d, from); err != nil {
		return ChangeResult{}, err
	}
	out := ChangeResult{Epoch: epoch, Members: d.Members, Replication: repl, Changed: true}

	// Prepare: every member of the new ring must hold the descriptor
	// before any handoff starts (they are about to own data). Members
	// only in the old ring get it best-effort — the unreachable-node
	// removal path must not block on the node being removed.
	body := encodePrepare(d, &from)
	union := rt.view().members
	for _, peer := range union {
		if peer == rt.cfg.Self {
			continue
		}
		_, err := rt.post(context.Background(), rt.client, peer+"/v1/cluster/ring", body, rt.cfg.Attempts, time.Time{})
		if err == nil {
			continue
		}
		if d.hasMember(peer) {
			return out, fmt.Errorf("cluster: prepare epoch %d on %s: %w", epoch, peer, err)
		}
		rt.log.Warn("prepare skipped for departing member", "peer", peer, "epoch", epoch, "err", err)
		out.Skipped = append(out.Skipped, peer)
	}

	// Handoff: every member now routes to the union, so what each old
	// member pushes includes the keys routed on the old ring before a
	// member adopted. The calls run concurrently within the cutover
	// deadline, this node's own share in-process; a member whose call
	// fails or times out is skipped. The phase is not bound to the
	// caller's request: a proposed change runs on to its commit.
	ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.HandoffTimeout)
	defer cancel()
	deadline := rt.now().Add(rt.cfg.HandoffTimeout)
	phase := *rt.client
	phase.Timeout = 0 // ctx bounds the call, which waits on the member's pushes
	epochQ := "&epoch=" + strconv.FormatUint(epoch, 10)
	errs := make([]error, len(from.Members))
	var wg sync.WaitGroup
	for i, peer := range from.Members {
		if containsStr(out.Skipped, peer) {
			continue // missed the prepare, so it holds nothing pending
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if peer == rt.cfg.Self {
				_, errs[i] = rt.handoff(ctx, epoch)
			} else {
				_, errs[i] = rt.post(ctx, &phase, peer+"/v1/cluster/ring?phase=handoff"+epochQ, nil, rt.cfg.Attempts, deadline)
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			rt.log.Warn("handoff not confirmed; member skipped", "peer", from.Members[i], "epoch", epoch, "err", err)
			out.Skipped = append(out.Skipped, from.Members[i])
		}
	}

	// Commit: locally first (the coordinator must answer the new epoch),
	// then everywhere else, retried; a member that misses the commit
	// catches up from the next prepare or its own join.
	if err := rt.CommitEpoch(epoch); err != nil {
		return out, err
	}
	for _, peer := range union {
		if peer == rt.cfg.Self {
			continue
		}
		_, err := rt.post(context.Background(), rt.client, peer+"/v1/cluster/ring?phase=commit"+epochQ, nil, rt.cfg.Attempts, time.Time{})
		if err != nil {
			rt.log.Warn("commit broadcast failed", "peer", peer, "epoch", epoch, "err", err)
			if !containsStr(out.Skipped, peer) {
				out.Skipped = append(out.Skipped, peer)
			}
		}
	}
	return out, nil
}

func containsStr(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

// post POSTs body to url until the peer answers 200 or a 4xx (a
// conflict or a bad request, which a retry cannot fix), or until the
// tries run out: after attempts tries (0: no limit), once ctx ends, or
// once the deadline passes (zero: none). Retries wait the backoff
// schedule, Config.Backoff doubling. The control posts and the handoff
// pushes share it; it returns the tries made.
func (rt *Router) post(ctx context.Context, c *http.Client, url string, body []byte, attempts int, deadline time.Time) (int, error) {
	backoff := rt.cfg.Backoff
	for tries := 1; ; tries++ {
		err, permanent := postOnce(ctx, c, url, body)
		if err == nil || permanent || tries == attempts || ctx.Err() != nil ||
			(!deadline.IsZero() && !rt.now().Before(deadline)) {
			return tries, err
		}
		rt.sleep(ctx, backoff)
		backoff *= 2
	}
}

// postOnce is one try of post; permanent marks a 4xx answer.
func postOnce(ctx context.Context, c *http.Client, url string, body []byte) (err error, permanent bool) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err, true
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := c.Do(req)
	if err != nil {
		return err, false
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, false
	}
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
	return fmt.Errorf("peer answered HTTP %d: %s", resp.StatusCode, msg),
		resp.StatusCode >= 400 && resp.StatusCode < 500
}

// PeerHealth classifies every other member by gossip staleness:
// "alive" within 3 intervals, "suspect" beyond that, "dead" beyond 10
// (the operator's cue to POST /v1/cluster/leave), "unknown" when
// gossip is disabled.
func (rt *Router) PeerHealth() map[string]string {
	v := rt.view()
	out := make(map[string]string, len(v.members))
	for _, m := range v.members {
		if m == v.selfURL {
			continue
		}
		if rt.gossip == nil {
			out[m] = "unknown"
			continue
		}
		switch s := rt.gossip.peerStaleness(m); {
		case s > 10*rt.gossip.interval:
			out[m] = "dead"
		case s > 3*rt.gossip.interval:
			out[m] = "suspect"
		default:
			out[m] = "alive"
		}
	}
	return out
}

// ringHeaders stamps the membership headers on a cluster response.
func (rt *Router) ringHeaders(w http.ResponseWriter) {
	v := rt.view()
	w.Header().Set(RingEpochHeader, strconv.FormatUint(v.epoch, 10))
	if v.rebalancing() {
		w.Header().Set(RebalancingHeader, strconv.FormatUint(v.pendingEpoch, 10))
	}
}

// memberChange is the POST /v1/cluster/join and /leave body.
type memberChange struct {
	URL string `json:"url"`
}

// HandleJoin is POST /v1/cluster/join {"url": "http://host:port"}: add
// a member and cut over, answering once the new epoch is committed.
func (rt *Router) HandleJoin(w http.ResponseWriter, r *http.Request) {
	rt.handleChange(w, r, rt.Join)
}

// HandleLeave is POST /v1/cluster/leave {"url": "..."}: remove a
// member (alive — it drains first — or dead) and cut over.
func (rt *Router) HandleLeave(w http.ResponseWriter, r *http.Request) {
	rt.handleChange(w, r, rt.Leave)
}

func (rt *Router) handleChange(w http.ResponseWriter, r *http.Request, op func(string) (ChangeResult, error)) {
	var req memberChange
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		httpx.Fail(w, httpx.ReadStatus(err), err)
		return
	}
	res, err := op(req.URL)
	rt.ringHeaders(w)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, errStaleEpoch) || errors.Is(err, errEpochConflict) {
			status = http.StatusConflict
		}
		httpx.Fail(w, status, err)
		return
	}
	httpx.Reply(w, http.StatusOK, res)
}

// HandleRing serves the membership control plane:
//
//	GET  /v1/cluster/ring                         → descriptor state (JSON)
//	POST /v1/cluster/ring                         → prepare (KNWM pair body)
//	POST /v1/cluster/ring?phase=handoff&epoch=N   → handoff: push to the new owners
//	POST /v1/cluster/ring?phase=commit&epoch=N    → commit
//
// The handoff call answers once every push has landed (200, with the
// targets) or one has failed (502).
func (rt *Router) HandleRing(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodGet {
		rt.memMu.Lock()
		out := map[string]any{
			"epoch":       rt.cur.Epoch,
			"members":     rt.cur.Members,
			"vnodes":      rt.cur.Vnodes,
			"replication": rt.cur.Replication,
		}
		if rt.pending != nil {
			out["pending_epoch"] = rt.pending.next.Epoch
			out["pending_members"] = rt.pending.next.Members
		}
		rt.memMu.Unlock()
		rt.ringHeaders(w)
		httpx.Reply(w, http.StatusOK, out)
		return
	}
	switch phase := r.URL.Query().Get("phase"); phase {
	case "":
	case "handoff", "commit":
		epoch, err := strconv.ParseUint(r.URL.Query().Get("epoch"), 10, 64)
		if err != nil {
			httpx.Fail(w, http.StatusBadRequest, fmt.Errorf("bad %s epoch: %w", phase, err))
			return
		}
		out := map[string]any{}
		if phase == "commit" {
			err = rt.CommitEpoch(epoch)
		} else {
			out["pending"] = epoch
			out["targets"], err = rt.handoff(r.Context(), epoch)
		}
		if err != nil {
			status := http.StatusBadGateway // a handoff push did not land
			if errors.Is(err, errNotPending) {
				status = http.StatusConflict
			}
			httpx.Fail(w, status, err)
			return
		}
		rt.ringHeaders(w)
		out["epoch"] = rt.Epoch()
		httpx.Reply(w, http.StatusOK, out)
		return
	default:
		httpx.Fail(w, http.StatusBadRequest, fmt.Errorf("unknown ring phase %q", phase))
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		httpx.Fail(w, httpx.ReadStatus(err), err)
		return
	}
	d, from, err := decodePrepare(body)
	if err != nil {
		httpx.Fail(w, http.StatusBadRequest, err)
		return
	}
	if err := rt.adopt(d, *from); err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, errStaleEpoch) || errors.Is(err, errEpochConflict) {
			status = http.StatusConflict
		}
		httpx.Fail(w, status, err)
		return
	}
	rt.ringHeaders(w)
	httpx.Reply(w, http.StatusOK, map[string]any{
		"epoch":   rt.Epoch(),
		"pending": d.Epoch,
	})
}

// ringEpochGauges registers the membership gauges. Called after
// initMembership so the atomic view exists before the first scrape.
func (rt *Router) ringEpochGauges(reg *metrics.Registry) {
	reg.NewGaugeFunc("knwd_ring_epoch",
		"Committed ring membership epoch.",
		func() float64 { return float64(rt.view().epoch) })
	reg.NewGaugeFunc("knwd_ring_members",
		"Members in the committed ring.",
		func() float64 { return float64(len(rt.view().cur.members)) })
	reg.NewGaugeFunc("knwd_ring_rebalancing",
		"1 while a membership transition (union routing + handoff) is in flight.",
		func() float64 {
			if rt.view().rebalancing() {
				return 1
			}
			return 0
		})
}
