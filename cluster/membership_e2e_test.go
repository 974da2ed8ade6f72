package cluster_test

// The membership soak: scale a live cluster 3→5→3 under continuous
// ingest and reads, and prove the merged estimates never leave the
// (ε,δ) envelope at any membership step — including the removal of a
// node that was hard-killed without draining (the crash path R=2
// exists for). This is the PR's acceptance scenario; it runs only in
// full test mode (CI's cluster-churn job), not under -short.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	knw "repro"
	"repro/cluster"
	"repro/service"
	"repro/store"
)

// startMemberNode boots one knwd service on a pre-bound listener with
// the churn-friendly cluster timings (fast retries, a short cutover
// deadline so dead-node removal does not stall the test). wrap, when
// given, wraps the service handler.
func startMemberNode(t *testing.T, ln net.Listener, self string, peers []string, repl int, wrap ...func(http.Handler) http.Handler) *node {
	t.Helper()
	srv, err := service.New(service.Config{
		Store: store.Config{
			Kind:    knw.KindF0,
			Options: []knw.Option{knw.WithEpsilon(testEps), knw.WithSeed(1)},
		},
		Cluster: &cluster.Config{
			Self:           self,
			Peers:          peers,
			Replication:    repl,
			Backoff:        5 * time.Millisecond,
			Timeout:        5 * time.Second,
			HandoffTimeout: 3 * time.Second,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	for _, w := range wrap {
		h = w(h)
	}
	hs := &httptest.Server{
		Listener: ln,
		Config:   &http.Server{Handler: h},
	}
	hs.Start()
	nd := &node{srv: srv, hs: hs, url: self}
	t.Cleanup(hs.Close)
	return nd
}

// postMembership drives POST /v1/cluster/join|leave through via and
// returns the decoded change result.
func postMembership(t *testing.T, via, action, member string) cluster.ChangeResult {
	t.Helper()
	body, _ := json.Marshal(map[string]string{"url": member})
	resp, err := http.Post(via+"/v1/cluster/"+action, "application/json",
		strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s %s: HTTP %d: %s", action, member, resp.StatusCode, out)
	}
	var res cluster.ChangeResult
	if err := json.Unmarshal(out, &res); err != nil {
		t.Fatalf("decoding %s result: %v (%s)", action, err, out)
	}
	return res
}

// ringEpochOf reads a node's committed epoch off GET /v1/cluster/ring.
func ringEpochOf(t *testing.T, base string) uint64 {
	t.Helper()
	resp, err := http.Get(base + "/v1/cluster/ring")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Epoch uint64 `json:"epoch"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.Epoch
}

// metricValue scrapes one node's /metrics for an unlabeled series.
func metricValue(t *testing.T, base, name string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	m := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` ([0-9eE.+-]+)$`).FindSubmatch(body)
	if m == nil {
		return 0
	}
	v, err := strconv.ParseFloat(string(m[1]), 64)
	if err != nil {
		t.Fatalf("parsing %s: %v", name, err)
	}
	return v
}

// TestMembershipSoak is the scale-up/scale-down churn scenario:
//
//	epoch 1: 3 nodes, R=2, ingest begins and never stops
//	epoch 2: standby A joins through node 0 (handoff + cutover)
//	epoch 3: standby B joins — 5 nodes serving
//	epoch 4: A leaves gracefully (drains its slices first)
//	epoch 5: B is HARD-KILLED, then removed — the crash path; its
//	         keys survive because R=2 kept a second replica
//
// After every epoch the ingest gate closes (so exact truth is known)
// and every surviving node's merged estimate must sit within ε of
// truth — the paper's bound, holding through five membership states.
func TestMembershipSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("membership soak skipped in -short mode")
	}
	const storeName = "churn/users"

	// Bind every address up front: 3 stable nodes + 2 standbys.
	lns := make([]net.Listener, 5)
	urls := make([]string, 5)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	stable := urls[:3]
	nodes := make([]*node, 5)
	for i := 0; i < 3; i++ {
		nodes[i] = startMemberNode(t, lns[i], urls[i], stable, 2)
	}
	// Standbys boot alone (epoch 1 containing only themselves), exactly
	// like knwd -join does before announcing; the coordinator's prepare
	// at a higher epoch supersedes their boot descriptor.
	for i := 3; i < 5; i++ {
		nodes[i] = startMemberNode(t, lns[i], urls[i], []string{urls[i]}, 1)
	}

	// The ingester: unique keys through node 0 in 500-key batches, with
	// interleaved reads, until told to stop. The gate mutex is the
	// quiesce point — while a check holds it, every acked key is in
	// truth and nothing is in flight.
	var (
		gate  sync.Mutex
		truth int
		stop  = make(chan struct{})
		done  = make(chan struct{})
	)
	go func() {
		defer close(done)
		for batch := 0; ; batch++ {
			select {
			case <-stop:
				return
			default:
			}
			gate.Lock()
			status, out := ingestLines(t, nodes[0].url, storeName, genKeys("churn", truth, truth+500))
			if status != http.StatusOK {
				t.Errorf("ingest batch %d: HTTP %d: %s", batch, status, out)
				gate.Unlock()
				return
			}
			truth += 500
			gate.Unlock()
			if batch%4 == 0 {
				// A read mid-churn must answer 200 from any stable node.
				if _, _, status := clusterEstimate(t, nodes[batch%3].url, storeName); status != http.StatusOK {
					t.Errorf("mid-churn estimate: HTTP %d", status)
					return
				}
			}
		}
	}()

	// check closes the gate and judges every listed node's merged
	// estimate against the exact acked truth.
	check := func(label string, wantEpoch uint64, from []*node) {
		t.Helper()
		gate.Lock()
		defer gate.Unlock()
		if got := ringEpochOf(t, nodes[0].url); got != wantEpoch {
			t.Fatalf("%s: node 0 epoch %d, want %d", label, got, wantEpoch)
		}
		for i, nd := range from {
			est, _, status := clusterEstimate(t, nd.url, storeName)
			if status != http.StatusOK {
				t.Fatalf("%s: node %d estimate: HTTP %d", label, i, status)
			}
			rel := math.Abs(est.AllTime-float64(truth)) / float64(truth)
			if rel > testEps {
				t.Fatalf("%s: node %d estimate %.0f vs truth %d: rel err %.3f > ε=%v",
					label, i, est.AllTime, truth, rel, testEps)
			}
		}
	}

	// Let the baseline cluster absorb real volume first.
	for {
		gate.Lock()
		n := truth
		gate.Unlock()
		if n >= 30_000 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	check("baseline 3 nodes", 1, nodes[:3])

	// Scale up: both standbys join through node 0 while ingest runs.
	for i, standby := range []string{urls[3], urls[4]} {
		res := postMembership(t, nodes[0].url, "join", standby)
		if !res.Changed || res.Epoch != uint64(2+i) || len(res.Members) != 4+i {
			t.Fatalf("join %s: %+v", standby, res)
		}
		if len(res.Skipped) != 0 {
			t.Fatalf("healthy join skipped peers: %+v", res.Skipped)
		}
		check(fmt.Sprintf("after join %d", i+1), uint64(2+i), nodes[:4+i])
	}

	// The joiners really take traffic: each new node's local store must
	// hold a nontrivial share once the ring includes it and ingest ran.
	for {
		gate.Lock()
		n := truth
		gate.Unlock()
		if n >= 45_000 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	for i := 3; i < 5; i++ {
		local, err := nodes[i].srv.Store().Estimate(storeName)
		if err != nil {
			t.Fatalf("joined node %d has no local store: %v", i, err)
		}
		if local.AllTime == 0 {
			t.Fatalf("joined node %d never received a key", i)
		}
	}

	// Scale down, graceful: standby A drains through the leave path.
	res := postMembership(t, nodes[0].url, "leave", urls[3])
	if !res.Changed || res.Epoch != 4 || len(res.Members) != 4 {
		t.Fatalf("graceful leave: %+v", res)
	}
	check("after graceful leave", 4, []*node{nodes[0], nodes[1], nodes[2], nodes[4]})

	// Scale down, crash: standby B dies mid-flight with no drain. R=2
	// means every key it held has a live replica, so removing the
	// corpse must cost nothing but the cutover deadline.
	nodes[4].hs.Close()
	res = postMembership(t, nodes[0].url, "leave", urls[4])
	if !res.Changed || res.Epoch != 5 || len(res.Members) != 3 {
		t.Fatalf("crash leave: %+v", res)
	}
	if !containsURL(res.Skipped, urls[4]) {
		t.Fatalf("dead node's handoff not reported skipped: %+v", res)
	}
	check("after crash leave", 5, nodes[:3])

	close(stop)
	<-done

	// Final state: back to 3 members at epoch 5, gauges agree, and the
	// handoff phase demonstrably moved envelopes during the churn.
	if got := metricValue(t, nodes[0].url, "knwd_ring_epoch"); got != 5 {
		t.Fatalf("knwd_ring_epoch = %v, want 5", got)
	}
	if got := metricValue(t, nodes[0].url, "knwd_ring_members"); got != 3 {
		t.Fatalf("knwd_ring_members = %v, want 3", got)
	}
	if got := metricValue(t, nodes[0].url, "knwd_ring_rebalancing"); got != 0 {
		t.Fatalf("knwd_ring_rebalancing = %v after cutover", got)
	}
	var shipped float64
	for _, nd := range nodes[:3] {
		shipped += metricValue(t, nd.url, "knwd_handoff_stores_total")
	}
	if shipped == 0 {
		t.Fatal("no node shipped a handoff envelope during the churn")
	}
}

// TestDrainHandoffCarriesLateRoutedKeys is the regression test for a
// drain at R=1 losing keys that a member routed on the old ring before
// it adopted the transition. The departing node's pushes used to start
// at its own adopt, before the other members held the prepare, so keys
// forwarded to it after its pushes had landed were on no survivor at
// the commit. Handoff now runs only after every prepare is acked, so
// those keys ride the push.
func TestDrainHandoffCarriesLateRoutedKeys(t *testing.T) {
	const storeName = "drain/users"
	lns := make([]net.Listener, 3)
	urls := make([]string, 3)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	a, b, c := urls[0], urls[1], urls[2]

	// B and C report the handoff pushes that land on them: one each.
	landed := make(chan struct{}, 2)
	observe := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			h.ServeHTTP(w, r)
			if r.URL.Path == "/v1/cluster/handoff" {
				select {
				case landed <- struct{}{}:
				default: // a retried push; the wait needs one report per node
				}
			}
		})
	}
	// C holds A's prepare: it waits (up to 1 s) for A's pushes to land
	// on B and C, then routes fresh keys on its old ring, about a third
	// of them to A only, and only then adopts.
	const late = 300
	var once sync.Once
	holdPrepare := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && r.URL.Path == "/v1/cluster/ring" && r.URL.Query().Get("phase") == "" {
				once.Do(func() {
					timeout := time.After(time.Second)
				wait:
					for n := 0; n < 2; n++ {
						select {
						case <-landed:
						case <-timeout:
							break wait
						}
					}
					body := strings.Join(genKeys("late", 0, late), "\n") + "\n"
					resp, err := http.Post(c+"/v1/cluster/ingest?store="+storeName, "text/plain", strings.NewReader(body))
					if err != nil {
						t.Errorf("late ingest through C: %v", err)
						return
					}
					out, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						t.Errorf("late ingest through C: HTTP %d: %s", resp.StatusCode, out)
					}
				})
			}
			h.ServeHTTP(w, r)
		})
	}
	startMemberNode(t, lns[0], a, urls, 1)
	startMemberNode(t, lns[1], b, urls, 1, observe)
	startMemberNode(t, lns[2], c, urls, 1, observe, holdPrepare)

	const early = 300
	if status, out := ingestLines(t, a, storeName, genKeys("early", 0, early)); status != http.StatusOK {
		t.Fatalf("ingest through A: HTTP %d: %s", status, out)
	}
	res := postMembership(t, a, "leave", a)
	if !res.Changed || res.Epoch != 2 || len(res.Members) != 2 || len(res.Skipped) != 0 {
		t.Fatalf("drain of A: %+v", res)
	}

	// B gathers over B and C, the only members left.
	est, partial, status := clusterEstimate(t, b, storeName)
	if status != http.StatusOK || partial != "" {
		t.Fatalf("estimate via B: HTTP %d, partial %q", status, partial)
	}
	const truth = early + late
	if rel := math.Abs(est.AllTime-truth) / truth; rel > testEps {
		t.Fatalf("estimate via B %.0f vs truth %d: rel err %.3f > ε=%v (the drain lost keys)",
			est.AllTime, truth, rel, testEps)
	}
}

func containsURL(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}
