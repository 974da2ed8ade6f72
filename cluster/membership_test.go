package cluster

// Internal membership tests: the ring-descriptor codec, the
// adopt/commit epoch state machine, handoff target selection, and the
// cutover edge cases (push retry after a dropped peer, a dead and a
// hung member in the handoff phase, R=1 leave of the sole replica
// holder). These run inside the package so they can inject
// Router.now/sleepFn and inspect the descriptor state directly; the
// service-level churn scenarios live in membership_e2e_test.go.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	knw "repro"
	"repro/internal/binenc"
	"repro/store"
)

// memberEps is the sketch ε of the membership tests' stores.
const memberEps = 0.05

func newMemberStore(t *testing.T) *store.Store {
	t.Helper()
	st, err := store.New(store.Config{
		Kind:    knw.KindF0,
		Options: []knw.Option{knw.WithEpsilon(memberEps), knw.WithSeed(1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// newMemberRouter builds one Router for unit tests: fast retry
// schedule, and a no-op sleep so retries to unreachable peers never
// back off for real seconds.
func newMemberRouter(t *testing.T, self string, peers []string, repl int) *Router {
	t.Helper()
	rt, err := New(Config{
		Self:           self,
		Peers:          peers,
		Replication:    repl,
		Backoff:        time.Millisecond,
		Timeout:        2 * time.Second,
		HandoffTimeout: 5 * time.Second,
	}, newMemberStore(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	rt.sleepFn = func(time.Duration) {}
	t.Cleanup(rt.Close)
	return rt
}

// serveMembership mounts the Router's membership endpoints on a bare
// mux (the internal package cannot import service without a cycle) and
// serves them on the pre-bound listener.
func serveMembership(t *testing.T, rt *Router, ln net.Listener) {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/cluster/ring", rt.HandleRing)
	mux.HandleFunc("/v1/cluster/join", rt.HandleJoin)
	mux.HandleFunc("/v1/cluster/leave", rt.HandleLeave)
	mux.HandleFunc("/v1/cluster/handoff", rt.HandleHandoff)
	hs := &httptest.Server{Listener: ln, Config: &http.Server{Handler: mux}}
	hs.Start()
	t.Cleanup(hs.Close)
}

// deadURL returns a loopback URL nothing listens on (bound, read, and
// closed), so dials fail fast with connection refused.
func deadURL(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	url := "http://" + ln.Addr().String()
	ln.Close()
	return url
}

func mkDescriptor(epoch uint64, members ...string) *RingDescriptor {
	list := []string(nil)
	for _, m := range members {
		list = withMember(list, m)
	}
	return &RingDescriptor{Epoch: epoch, Members: list, Vnodes: 16, Replication: 1}
}

func pendingOf(rt *Router) *RingDescriptor {
	rt.memMu.Lock()
	defer rt.memMu.Unlock()
	if rt.pending == nil {
		return nil
	}
	return rt.pending.next
}

// TestRingDescriptorRoundTrip: Encode/Decode is the identity on
// canonical descriptors.
func TestRingDescriptorRoundTrip(t *testing.T) {
	cases := []*RingDescriptor{
		{Epoch: 1, Members: []string{"http://a:1"}, Vnodes: 1, Replication: 1},
		{Epoch: 42, Members: []string{"http://a:1", "http://b:2", "http://c:3"}, Vnodes: 64, Replication: 2},
		{Epoch: 1 << 40, Members: []string{"https://node-0.knwd.svc:7070", "https://node-1.knwd.svc:7070"}, Vnodes: 4096, Replication: 2},
	}
	for i, d := range cases {
		enc := d.Encode(nil)
		got, err := DecodeRingDescriptor(enc)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if !got.Equal(d) {
			t.Fatalf("case %d: round trip changed the descriptor: %+v vs %+v", i, got, d)
		}
		if !bytes.Equal(got.Encode(nil), enc) {
			t.Fatalf("case %d: re-encoding is not byte-stable", i)
		}
	}
}

// TestRingDescriptorValidate: every malformed shape is rejected.
func TestRingDescriptorValidate(t *testing.T) {
	ok := func() *RingDescriptor {
		return &RingDescriptor{Epoch: 3, Members: []string{"http://a:1", "http://b:2"}, Vnodes: 64, Replication: 2}
	}
	if err := ok().Validate(); err != nil {
		t.Fatalf("canonical descriptor rejected: %v", err)
	}
	cases := map[string]func(*RingDescriptor){
		"epoch zero":          func(d *RingDescriptor) { d.Epoch = 0 },
		"no members":          func(d *RingDescriptor) { d.Members = nil },
		"vnodes zero":         func(d *RingDescriptor) { d.Vnodes = 0 },
		"vnodes over cap":     func(d *RingDescriptor) { d.Vnodes = maxRingVnodes + 1 },
		"replication zero":    func(d *RingDescriptor) { d.Replication = 0 },
		"replication over N":  func(d *RingDescriptor) { d.Replication = 3 },
		"empty member":        func(d *RingDescriptor) { d.Members[0] = "" },
		"member with comma":   func(d *RingDescriptor) { d.Members[0] = "http://a:1,b" },
		"member with space":   func(d *RingDescriptor) { d.Members[0] = "http://a b:1" },
		"member with control": func(d *RingDescriptor) { d.Members[0] = "http://a\x01:1" },
		"member with DEL":     func(d *RingDescriptor) { d.Members[0] = "http://a\x7f:1" },
		"unsorted members":    func(d *RingDescriptor) { d.Members = []string{"http://b:2", "http://a:1"} },
		"duplicate members":   func(d *RingDescriptor) { d.Members = []string{"http://a:1", "http://a:1"} },
	}
	for name, mutate := range cases {
		d := ok()
		mutate(d)
		if err := d.Validate(); err == nil {
			t.Errorf("%s: accepted %+v", name, d)
		}
	}
}

// TestDecodeRingDescriptorRejects: the decoder enforces canonical form
// and exact framing, not just parseability.
func TestDecodeRingDescriptorRejects(t *testing.T) {
	good := mkDescriptor(2, "http://a:1", "http://b:2").Encode(nil)
	if _, err := DecodeRingDescriptor(good); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeRingDescriptor(append(append([]byte(nil), good...), 0)); err == nil {
		t.Error("trailing byte accepted")
	}
	if _, err := DecodeRingDescriptor(good[:len(good)-1]); err == nil {
		t.Error("truncated descriptor accepted")
	}
	if _, err := DecodeRingDescriptor(nil); err == nil {
		t.Error("empty payload accepted")
	}

	var w binenc.Writer
	w.Uvarint(ringMagic + 1)
	if _, err := DecodeRingDescriptor(w.Buf); err == nil {
		t.Error("bad magic accepted")
	}

	w = binenc.Writer{}
	w.Uvarint(ringMagic)
	w.Uvarint(ringVersion + 1)
	if _, err := DecodeRingDescriptor(w.Buf); err == nil {
		t.Error("future version accepted")
	}

	// A syntactically valid stream whose members are unsorted must be
	// bounced: non-canonical descriptors would break the byte-order
	// tie-break.
	w = binenc.Writer{}
	w.Uvarint(ringMagic)
	w.Uvarint(ringVersion)
	w.Uvarint(2) // epoch
	w.Uvarint(16)
	w.Uvarint(1)
	w.Uvarint(2)
	w.Bytes([]byte("http://b:2"))
	w.Bytes([]byte("http://a:1"))
	if _, err := DecodeRingDescriptor(w.Buf); err == nil {
		t.Error("unsorted member list accepted")
	}
}

// FuzzRingDescriptor: decoding arbitrary bytes must never panic, and
// anything the decoder accepts must re-encode to a canonical fixed
// point (encode∘decode is idempotent and Validate-clean).
func FuzzRingDescriptor(f *testing.F) {
	f.Add(mkDescriptor(1, "http://a:1").Encode(nil))
	f.Add(mkDescriptor(9, "http://a:1", "http://b:2", "http://c:3").Encode(nil))
	f.Add([]byte{})
	f.Add([]byte{0xcd, 0xae, 0xb9, 0xda, 0x04})
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := DecodeRingDescriptor(data)
		if err != nil {
			return
		}
		if verr := d.Validate(); verr != nil {
			t.Fatalf("decoder accepted a descriptor Validate rejects: %v", verr)
		}
		enc := d.Encode(nil)
		d2, err := DecodeRingDescriptor(enc)
		if err != nil {
			t.Fatalf("re-encoded descriptor does not decode: %v", err)
		}
		if !d2.Equal(d) || !bytes.Equal(d2.Encode(nil), enc) {
			t.Fatal("encode∘decode is not a fixed point")
		}
	})
}

// TestAdoptDescriptorRules drives the prepare-phase state machine:
// stale and conflicting proposals bounce, re-announcements are
// idempotent, higher epochs supersede.
func TestAdoptDescriptorRules(t *testing.T) {
	self := "http://127.0.0.1:1"
	peer := "http://127.0.0.1:2"
	rt := newMemberRouter(t, self, []string{self, peer}, 1)

	// Re-announcing the committed descriptor is a no-op.
	cur := rt.Descriptor()
	if err := rt.adopt(&cur, rt.Descriptor()); err != nil {
		t.Fatalf("re-announce of committed descriptor: %v", err)
	}
	// A different descriptor at the committed epoch is a conflict.
	if err := rt.adopt(mkDescriptor(1, self), rt.Descriptor()); !errors.Is(err, errEpochConflict) {
		t.Fatalf("conflicting epoch-1 proposal: got %v, want errEpochConflict", err)
	}

	d2 := mkDescriptor(2, self, peer, "http://127.0.0.1:3")
	if err := rt.adopt(d2, rt.Descriptor()); err != nil {
		t.Fatalf("adopt epoch 2: %v", err)
	}
	if v := rt.view(); v.pendingEpoch != 2 || !v.rebalancing() {
		t.Fatalf("view after adopt: pending %d, rebalancing %v", v.pendingEpoch, v.rebalancing())
	}
	// Idempotent for the descriptor already pending.
	if err := rt.adopt(d2, rt.Descriptor()); err != nil {
		t.Fatalf("re-adopt pending: %v", err)
	}
	// A higher epoch supersedes the pending one.
	d3 := mkDescriptor(3, self, peer)
	if err := rt.adopt(d3, rt.Descriptor()); err != nil {
		t.Fatalf("adopt epoch 3 over pending 2: %v", err)
	}
	if got := pendingOf(rt); !got.Equal(d3) {
		t.Fatalf("pending = %+v, want epoch-3 descriptor", got)
	}
	// Now epoch 2 is stale against the pending epoch.
	if err := rt.adopt(d2, rt.Descriptor()); !errors.Is(err, errStaleEpoch) {
		t.Fatalf("epoch 2 under pending 3: got %v, want errStaleEpoch", err)
	}

	if err := rt.CommitEpoch(3); err != nil {
		t.Fatal(err)
	}
	// And stale against the committed epoch after the cutover.
	if err := rt.adopt(d2, rt.Descriptor()); !errors.Is(err, errStaleEpoch) {
		t.Fatalf("epoch 2 under committed 3: got %v, want errStaleEpoch", err)
	}
}

// TestSimultaneousJoinLeaveTieBreak: a join and a leave proposed
// concurrently for the same epoch resolve to the byte-smaller
// canonical descriptor on every node, regardless of arrival order —
// the deterministic tie-break that keeps split-brain transitions
// impossible without a consensus service.
func TestSimultaneousJoinLeaveTieBreak(t *testing.T) {
	self := "http://127.0.0.1:1"
	peer := "http://127.0.0.1:2"
	join := mkDescriptor(2, self, peer, "http://127.0.0.1:3") // a join's proposal
	leave := mkDescriptor(2, self)                            // a leave's proposal
	winner, loser := join, leave
	if leave.less(join) {
		winner, loser = leave, join
	}

	// Arrival order 1: loser first, winner replaces it.
	rt := newMemberRouter(t, self, []string{self, peer}, 1)
	if err := rt.adopt(loser, rt.Descriptor()); err != nil {
		t.Fatalf("adopt first proposal: %v", err)
	}
	if err := rt.adopt(winner, rt.Descriptor()); err != nil {
		t.Fatalf("tie-break winner rejected: %v", err)
	}
	if got := pendingOf(rt); !got.Equal(winner) {
		t.Fatalf("pending after winner arrives = %+v", got)
	}
	if err := rt.adopt(loser, rt.Descriptor()); !errors.Is(err, errEpochConflict) {
		t.Fatalf("loser re-proposed: got %v, want errEpochConflict", err)
	}

	// Arrival order 2: winner first, loser bounces immediately.
	rt2 := newMemberRouter(t, self, []string{self, peer}, 1)
	if err := rt2.adopt(winner, rt2.Descriptor()); err != nil {
		t.Fatalf("adopt winner: %v", err)
	}
	if err := rt2.adopt(loser, rt2.Descriptor()); !errors.Is(err, errEpochConflict) {
		t.Fatalf("loser after winner: got %v, want errEpochConflict", err)
	}
	if got := pendingOf(rt2); !got.Equal(winner) {
		t.Fatalf("pending after loser bounced = %+v", got)
	}
}

// TestCommitEpochRules: commits need a matching pending descriptor,
// collapse the union view, and are idempotent at or below the
// committed epoch.
func TestCommitEpochRules(t *testing.T) {
	self := "http://127.0.0.1:1"
	rt := newMemberRouter(t, self, []string{self}, 1)

	if err := rt.CommitEpoch(2); err == nil {
		t.Fatal("commit with no pending descriptor accepted")
	}
	d2 := mkDescriptor(2, self, "http://127.0.0.1:2")
	if err := rt.adopt(d2, rt.Descriptor()); err != nil {
		t.Fatal(err)
	}
	if err := rt.CommitEpoch(3); err == nil {
		t.Fatal("commit for a different epoch than pending accepted")
	}
	if err := rt.CommitEpoch(2); err != nil {
		t.Fatal(err)
	}
	v := rt.view()
	if v.epoch != 2 || v.rebalancing() || len(v.cur.members) != 2 {
		t.Fatalf("view after commit: epoch %d, rebalancing %v, members %v",
			v.epoch, v.rebalancing(), v.cur.members)
	}
	// Idempotent: re-commit and ancient epochs are no-ops.
	if err := rt.CommitEpoch(2); err != nil {
		t.Fatalf("re-commit: %v", err)
	}
	if err := rt.CommitEpoch(1); err != nil {
		t.Fatalf("stale commit: %v", err)
	}
	if rt.Epoch() != 2 {
		t.Fatalf("epoch moved to %d on idempotent commits", rt.Epoch())
	}
}

// TestViewImmutableDuringChange: a request that captured its ringView
// before a membership change (an in-flight gather during a join) keeps
// routing against that exact snapshot — epoch, members, and owner sets
// all frozen — while new requests see the union view.
func TestViewImmutableDuringChange(t *testing.T) {
	self := "http://127.0.0.1:1"
	peer := "http://127.0.0.1:2"
	rt := newMemberRouter(t, self, []string{self, peer}, 1)

	v := rt.view() // the in-flight request's snapshot
	var ownersBefore []int
	buf, scratch := v.owners(0xdeadbeef, nil, nil)
	ownersBefore = append(ownersBefore, buf...)

	if err := rt.adopt(mkDescriptor(2, self, peer, "http://127.0.0.1:3"), rt.Descriptor()); err != nil {
		t.Fatal(err)
	}
	if err := rt.CommitEpoch(2); err != nil {
		t.Fatal(err)
	}

	if v.epoch != 1 || v.rebalancing() || len(v.members) != 2 {
		t.Fatalf("captured view mutated: epoch %d, rebalancing %v, members %v",
			v.epoch, v.rebalancing(), v.members)
	}
	buf, _ = v.owners(0xdeadbeef, buf, scratch)
	if len(buf) != len(ownersBefore) || buf[0] != ownersBefore[0] {
		t.Fatalf("captured view's owner set changed: %v vs %v", buf, ownersBefore)
	}
	if nv := rt.view(); nv.epoch != 2 || len(nv.members) != 3 {
		t.Fatalf("new view not cut over: epoch %d, members %v", nv.epoch, nv.members)
	}
}

// TestHandoffTargets: target selection ships only to peers that gain
// ownership — never self, never nodes that already owned the data.
func TestHandoffTargets(t *testing.T) {
	a, b, c, d := "http://a:1", "http://b:1", "http://c:1", "http://d:1"
	mkDesc := func(epoch uint64, members []string) (*RingDescriptor, *ring) {
		r, err := newRing(members, 16)
		if err != nil {
			t.Fatal(err)
		}
		return &RingDescriptor{Epoch: epoch, Members: r.members, Vnodes: 16, Replication: 1}, r
	}
	// bootView is the view of a node whose own committed ring is boot
	// while the coordinator proposes next from its committed ring from.
	bootView := func(self string, boot, from, next []string) *ringView {
		bootD, bootRing := mkDesc(1, boot)
		fromD, fromRing := mkDesc(1, from)
		nextD, nextRing := mkDesc(2, next)
		return buildView(self, bootD, bootRing,
			&transition{next: nextD, from: fromD, nextRing: nextRing, fromRing: fromRing})
	}
	mkView := func(self string, cur, next []string) *ringView {
		if next == nil {
			curD, curRing := mkDesc(1, cur)
			return buildView(self, curD, curRing, nil)
		}
		return bootView(self, cur, cur, next)
	}

	if got := handoffTargets(mkView(a, []string{a, b, c}, nil)); got != nil {
		t.Fatalf("stable view has targets %v", got)
	}
	// A join: the only peer that can newly own anything is the joiner.
	for _, self := range []string{a, b, c} {
		for _, tgt := range handoffTargets(mkView(self, []string{a, b, c}, []string{a, b, c, d})) {
			if tgt != d {
				t.Fatalf("join targets from %s include %s, want only %s", self, tgt, d)
			}
			if tgt == self {
				t.Fatalf("node %s targets itself", self)
			}
		}
	}
	// The joiner holds nothing anyone newly owns... and is not even in
	// the committed ring, so it pushes nowhere.
	if got := handoffTargets(mkView(d, []string{a, b, c}, []string{a, b, c, d})); len(got) != 0 {
		t.Fatalf("joining node has targets %v", got)
	}
	// A joiner that booted on its own one-member ring (knwd -join) owned
	// nothing in the ring the coordinator proposed from, whatever its
	// boot ring says, so it pushes nowhere.
	if got := handoffTargets(bootView(d, []string{d}, []string{a, b, c}, []string{a, b, c, d})); len(got) != 0 {
		t.Fatalf("joiner on its boot ring has targets %v", got)
	}
	// A leave: the departing node must ship to whoever inherits its
	// intervals (at vnodes=16 over 2 survivors, someone always does).
	got := handoffTargets(mkView(a, []string{a, b, c}, []string{b, c}))
	if len(got) == 0 {
		t.Fatal("departing node computed no handoff targets")
	}
	for _, tgt := range got {
		if tgt == a {
			t.Fatal("departing node targets itself")
		}
	}
}

// TestJoinLeaveIdempotent: membership no-ops answer the committed
// state without starting a transition.
func TestJoinLeaveIdempotent(t *testing.T) {
	self := "http://127.0.0.1:1"
	rt := newMemberRouter(t, self, []string{self}, 1)

	res, err := rt.Join(self)
	if err != nil || res.Changed || res.Epoch != 1 {
		t.Fatalf("joining an existing member: res %+v, err %v", res, err)
	}
	res, err = rt.Leave("http://127.0.0.1:9")
	if err != nil || res.Changed || res.Epoch != 1 {
		t.Fatalf("leaving a non-member: res %+v, err %v", res, err)
	}
	if _, err := rt.Leave(self); err == nil {
		t.Fatal("removing the last member accepted")
	}
	if _, err := rt.Join("not-a-url"); err == nil {
		t.Fatal("junk member URL accepted")
	}
}

// TestHandoffRetryAfterDroppedPeer: in the handoff phase, a push
// target that drops the first attempts is retried on the backoff
// schedule (observed via the injected sleep) until the transfer lands.
func TestHandoffRetryAfterDroppedPeer(t *testing.T) {
	var hits atomic.Int32
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= 2 {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	t.Cleanup(flaky.Close)

	self := "http://127.0.0.1:1"
	st := newMemberStore(t)
	rt, err := New(Config{
		Self: self, Peers: []string{self}, Replication: 1,
		Backoff: 10 * time.Millisecond, Timeout: 2 * time.Second,
	}, st, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	var sleeps []time.Duration
	rt.sleepFn = func(d time.Duration) { sleeps = append(sleeps, d) }
	if err := st.Ingest("t/m", []string{"k1", "k2", "k3"}); err != nil {
		t.Fatal(err)
	}

	if err := rt.adopt(mkDescriptor(2, self, flaky.URL), rt.Descriptor()); err != nil {
		t.Fatal(err)
	}
	targets, err := rt.handoff(context.Background(), 2)
	if err != nil {
		t.Fatalf("handoff phase: %v", err)
	}
	if len(targets) != 1 || targets[0] != flaky.URL {
		t.Fatalf("handoff targets %v, want [%s]", targets, flaky.URL)
	}
	if got := hits.Load(); got != 3 {
		t.Fatalf("peer saw %d pushes, want 3 (2 dropped + 1 landed)", got)
	}
	if len(sleeps) != 2 || sleeps[0] != 10*time.Millisecond || sleeps[1] != 20*time.Millisecond {
		t.Fatalf("retry backoff schedule = %v, want [10ms 20ms]", sleeps)
	}
}

// TestHandoffPhaseRejects: the ring endpoint answers a handoff call for
// an epoch that is not pending 409, a malformed epoch 400, and an
// unknown phase 400 instead of reading its body as a prepare.
func TestHandoffPhaseRejects(t *testing.T) {
	self := "http://127.0.0.1:1"
	rt := newMemberRouter(t, self, []string{self}, 1)
	for query, want := range map[string]int{
		"phase=handoff&epoch=2": http.StatusConflict,
		"phase=handoff&epoch=x": http.StatusBadRequest,
		"phase=bogus&epoch=2":   http.StatusBadRequest,
	} {
		rec := httptest.NewRecorder()
		body := bytes.NewReader(encodePrepare(mkDescriptor(2, self, "http://127.0.0.1:2"), mkDescriptor(1, self)))
		rt.HandleRing(rec, httptest.NewRequest(http.MethodPost, "/v1/cluster/ring?"+query, body))
		if rec.Code != want {
			t.Errorf("%s: HTTP %d, want %d (%s)", query, rec.Code, want, rec.Body)
		}
	}
	if p := pendingOf(rt); p != nil {
		t.Fatalf("a rejected phase call installed pending epoch %d", p.Epoch)
	}
}

// TestCutoverDeadlineSkipsDeadPeer: a member that cannot confirm its
// handoff is skipped and the cutover commits anyway. A refused (dead)
// member is skipped after the control-post attempts, on the fake clock
// and without waiting out the deadline; a member that accepts the
// handoff call but never answers is skipped once HandoffTimeout passes.
func TestCutoverDeadlineSkipsDeadPeer(t *testing.T) {
	newCoordinator := func(t *testing.T, peer string, handoffTimeout time.Duration) *Router {
		lnSelf, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		self := "http://" + lnSelf.Addr().String()
		rt, err := New(Config{
			Self: self, Peers: []string{self, peer}, Replication: 1,
			Backoff: 20 * time.Millisecond, Timeout: time.Second,
			HandoffTimeout: handoffTimeout,
		}, newMemberStore(t), nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(rt.Close)
		serveMembership(t, rt, lnSelf)
		return rt
	}
	leave := func(t *testing.T, rt *Router, peer string) ChangeResult {
		res, err := rt.Leave(peer)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Changed || res.Epoch != 2 || len(res.Members) != 1 {
			t.Fatalf("leave of %s: %+v", peer, res)
		}
		if len(res.Skipped) != 1 || res.Skipped[0] != peer {
			t.Fatalf("skipped %v, want [%s]", res.Skipped, peer)
		}
		if rt.Epoch() != 2 || rt.view().rebalancing() {
			t.Fatalf("cutover incomplete: epoch %d, rebalancing %v", rt.Epoch(), rt.view().rebalancing())
		}
		return res
	}

	t.Run("refused", func(t *testing.T) {
		dead := deadURL(t)
		rt := newCoordinator(t, dead, time.Second)
		// Fake clock: now() returns the injected time, every sleep
		// advances it, so retries to the dead member cost no wall time.
		var clockMu sync.Mutex
		clock := time.Unix(1000, 0)
		rt.now = func() time.Time {
			clockMu.Lock()
			defer clockMu.Unlock()
			return clock
		}
		rt.sleepFn = func(d time.Duration) {
			clockMu.Lock()
			clock = clock.Add(d)
			clockMu.Unlock()
		}
		leave(t, rt, dead)
		if slept := rt.now().Sub(time.Unix(1000, 0)); slept >= time.Second {
			t.Fatalf("virtual sleep %v waited out the 1s handoff timeout", slept)
		}
	})

	t.Run("hung", func(t *testing.T) {
		// The member acks prepare and commit but holds the handoff call
		// open until the coordinator gives up on it.
		var calls atomic.Int32
		hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Query().Get("phase") == "handoff" {
				calls.Add(1)
				<-r.Context().Done()
				return
			}
			io.Copy(io.Discard, r.Body)
		}))
		t.Cleanup(hung.Close)
		const timeout = 300 * time.Millisecond
		rt := newCoordinator(t, hung.URL, timeout)
		start := time.Now()
		leave(t, rt, hung.URL)
		if wall := time.Since(start); wall < timeout || wall > 10*time.Second {
			t.Fatalf("leave took %v, want the %v handoff timeout", wall, timeout)
		}
		if calls.Load() != 1 {
			t.Fatalf("hung member saw %d handoff calls, want 1", calls.Load())
		}
	})
}

// TestLeaveSoleReplicaHandsOff: at R=1 the departing node is the only
// holder of its slices — leaving must move them, not drop them. Two
// real routers over loopback HTTP: all keys live on A, A drains, B
// must answer the full count afterward — all-time, and for windowed
// stores the live window too (the record's window field).
func TestLeaveSoleReplicaHandsOff(t *testing.T) {
	for _, tc := range []struct {
		name   string
		window store.Window
	}{
		{"unwindowed", store.Window{}},
		{"windowed", store.Window{Buckets: 4, Interval: time.Hour}},
	} {
		t.Run(tc.name, func(t *testing.T) { testLeaveSoleReplica(t, tc.window) })
	}
}

func testLeaveSoleReplica(t *testing.T, window store.Window) {
	urls, stores, routers := serveMembers(t, 2, func(int) *store.Store {
		st, err := store.New(store.Config{
			Kind:    knw.KindF0,
			Options: []knw.Option{knw.WithEpsilon(memberEps), knw.WithSeed(1)},
			Window:  window,
		})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}, func(int, *Config) {})

	// Every key goes straight into A's local store: A is the sole
	// holder of all 5000, B has nothing.
	const truth = 5000
	keys := make([]string, truth)
	for i := range keys {
		keys[i] = fmt.Sprintf("sole-%d", i)
	}
	if err := stores[0].Ingest("acme/users", keys); err != nil {
		t.Fatal(err)
	}

	res, err := routers[0].Drain()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Changed || res.Epoch != 2 || len(res.Members) != 1 || res.Members[0] != urls[1] {
		t.Fatalf("drain result: %+v", res)
	}
	if len(res.Skipped) != 0 {
		t.Fatalf("healthy drain skipped peers: %+v", res.Skipped)
	}

	// Both sides cut over, and the departed node knows it is out.
	if routers[1].Epoch() != 2 {
		t.Fatalf("survivor epoch = %d, want 2", routers[1].Epoch())
	}
	if v := routers[0].view(); v.self != -1 {
		t.Fatalf("departed node still thinks it is member %d", v.self)
	}

	// The data moved: B's local sketch now covers all 5000 keys. The
	// handoff shipped A's envelope, so B's estimate carries the same
	// (ε,δ) guarantee the sketch always had — no loss step in between.
	est, err := stores[1].Estimate("acme/users")
	if err != nil {
		t.Fatalf("survivor store after drain: %v", err)
	}
	if rel := abs64(est.AllTime-truth) / truth; rel > 0.10 {
		t.Fatalf("survivor estimate %.0f vs truth %d: rel err %.3f (handoff lost data)",
			est.AllTime, truth, rel)
	}
	if window.Buckets == 0 {
		return
	}
	if !est.Windowed {
		t.Fatalf("survivor estimate is not windowed: %+v", est)
	}
	if rel := abs64(est.Window-truth) / truth; rel > memberEps {
		t.Fatalf("survivor window estimate %.0f vs truth %d: rel err %.3f > ε (window record lost)",
			est.Window, truth, rel)
	}
}

// TestDrainKeepsRingReplication is the regression test for a silent
// replication downgrade: changeMembership used to stamp the new
// descriptor with the COORDINATOR's configured replication. A node
// that boots alone (replication 1 in its config, like knwd -join)
// coordinates its own removal on drain — and used to hand the
// survivors an R=1 ring. Replication is ring policy: it must carry
// forward from the committed descriptor.
//
// It is also the regression test for the -join over-push: the joiner
// used to compute its handoff targets from its one-member boot ring,
// see itself as the owner of every interval, and push its whole store
// set to every member. It owned nothing in the coordinator's committed
// ring, which the prepare body now carries, so it pushes nowhere.
func TestDrainKeepsRingReplication(t *testing.T) {
	urls, stores, routers := serveMembers(t, 3, func(int) *store.Store { return newMemberStore(t) },
		func(i int, c *Config) {
			if i == 2 { // the joiner boots alone, exactly like knwd -join
				c.Peers = c.Peers[2:]
				return
			}
			c.Peers, c.Replication = c.Peers[:2], 2
		})
	if err := stores[2].Ingest("joiner/own", []string{"a", "b", "c"}); err != nil {
		t.Fatal(err)
	}

	// The joiner holds the join's transition (as its prepare installs
	// it) and computes its targets over the carried committed ring.
	from := routers[0].Descriptor()
	next := &RingDescriptor{Epoch: 2, Members: withMember(from.Members, urls[2]),
		Vnodes: from.Vnodes, Replication: from.Replication}
	if err := routers[2].adopt(next, from); err != nil {
		t.Fatal(err)
	}
	if got := handoffTargets(routers[2].view()); len(got) != 0 {
		t.Fatalf("joiner handoff targets %v, want none", got)
	}

	res, err := routers[0].Join(urls[2])
	if err != nil {
		t.Fatal(err)
	}
	if res.Epoch != 2 || res.Replication != 2 {
		t.Fatalf("join result: %+v, want epoch 2 replication 2", res)
	}
	for i := 0; i < 2; i++ {
		if _, err := stores[i].Estimate("joiner/own"); !errors.Is(err, store.ErrNotFound) {
			t.Fatalf("member %d holds the joiner's store after the join (err %v): the joiner pushed", i, err)
		}
	}

	// The joiner drains itself back out. Its config says replication 1,
	// but the ring it leaves behind must stay R=2.
	res, err = routers[2].Drain()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Changed || res.Epoch != 3 || res.Replication != 2 {
		t.Fatalf("drain result: %+v, want epoch 3 replication 2", res)
	}
	for _, i := range []int{0, 1} {
		if d := routers[i].Descriptor(); d.Replication != 2 {
			t.Fatalf("survivor %d descriptor: %+v, want replication 2", i, d)
		}
	}
}

func abs64(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// serveMembers starts n routers on loopback listeners, each over the
// store newStore builds for it; cfg adjusts member i's router config.
func serveMembers(t *testing.T, n int, newStore func(i int) *store.Store, cfg func(i int, c *Config)) ([]string, []*store.Store, []*Router) {
	t.Helper()
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	stores := make([]*store.Store, n)
	routers := make([]*Router, n)
	for i := range routers {
		stores[i] = newStore(i)
		c := Config{
			Self: urls[i], Peers: urls, Replication: 1,
			Backoff: 2 * time.Millisecond, Timeout: 2 * time.Second,
			HandoffTimeout: 5 * time.Second,
		}
		cfg(i, &c)
		rt, err := New(c, stores[i], nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(rt.Close)
		routers[i] = rt
		serveMembership(t, rt, lns[i])
	}
	return urls, stores, routers
}

// TestHandoffKeepsBucketEpochs is the regression test for handoff
// moving windowed keys to the handoff's epoch: a handoff used to ship
// the ring's union and merge it into the receiver's current bucket, so
// keys from the sender's oldest bucket outlived their window on the
// receiver, and a cluster series counted them twice. The ring now
// merges bucket by bucket by epoch.
func TestHandoffKeepsBucketEpochs(t *testing.T) {
	var mu sync.Mutex
	base := time.Unix(0, 0).Add(1_000_000 * time.Minute)
	now := base
	setClock := func(intervals int) {
		mu.Lock()
		now = base.Add(time.Duration(intervals) * time.Minute)
		mu.Unlock()
	}
	_, stores, routers := serveMembers(t, 2, func(int) *store.Store {
		st, err := store.New(store.Config{
			Kind:    knw.KindF0,
			Options: []knw.Option{knw.WithEpsilon(memberEps), knw.WithSeed(1)},
			Window:  store.Window{Buckets: 4, Interval: time.Minute},
			Now: func() time.Time {
				mu.Lock()
				defer mu.Unlock()
				return now
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}, func(int, *Config) {})

	// 5000 keys land in the sender's bucket of the base epoch, which is
	// the oldest live bucket three intervals later, at the handoff.
	const truth = 5000
	keys := make([]string, truth)
	for i := range keys {
		keys[i] = fmt.Sprintf("old-%d", i)
	}
	if err := stores[0].Ingest("acme/users", keys); err != nil {
		t.Fatal(err)
	}
	stores[0].Flush()
	setClock(3)
	if _, err := routers[0].Drain(); err != nil {
		t.Fatal(err)
	}

	series, err := stores[1].Series("acme/users", 0)
	if err != nil {
		t.Fatal(err)
	}
	oldest, newest := series.Buckets[0], series.Buckets[len(series.Buckets)-1]
	if oldest.Epoch != base.UnixNano()/int64(time.Minute) || abs64(oldest.Estimate-truth)/truth > memberEps {
		t.Errorf("receiver's oldest bucket: epoch %d estimate %.0f, want the base epoch with ~%d keys",
			oldest.Epoch, oldest.Estimate, truth)
	}
	if newest.Estimate != 0 {
		t.Errorf("receiver's newest bucket holds %.0f handed-off keys, want 0", newest.Estimate)
	}

	// One interval on, the keys have left both windows.
	setClock(4)
	for i, st := range stores {
		est, err := st.Estimate("acme/users")
		if err != nil {
			t.Fatal(err)
		}
		if est.Window != 0 {
			t.Errorf("node %d window after the keys' span = %.0f, want 0", i, est.Window)
		}
	}
}
