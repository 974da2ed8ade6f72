package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	knw "repro"
	"repro/internal/metrics"
	"repro/store"
)

// gnode is one in-process gossip member: a store, its router, and the
// gossip + estimate routes on a real loopback listener. partitioned
// simulates a network partition: while set, every request is refused
// with a 503.
type gnode struct {
	st          *store.Store
	rt          *Router
	reg         *metrics.Registry
	url         string
	partitioned atomic.Bool
}

// startGossipNodes brings up n nodes with gossip enabled, all driven
// manually through GossipRound (no background loop).
func startGossipNodes(t *testing.T, n int, interval time.Duration) []*gnode {
	t.Helper()
	lns := make([]net.Listener, n)
	peers := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		peers[i] = "http://" + ln.Addr().String()
	}
	nodes := make([]*gnode, n)
	for i := range nodes {
		st, err := store.New(store.Config{
			Kind:    knw.KindF0,
			Options: []knw.Option{knw.WithEpsilon(testGossipEps), knw.WithSeed(1)},
		})
		if err != nil {
			t.Fatal(err)
		}
		reg := metrics.NewRegistry()
		rt, err := New(Config{
			Self:           peers[i],
			Peers:          peers,
			Replication:    1,
			GossipInterval: interval,
			Timeout:        5 * time.Second,
		}, st, reg)
		if err != nil {
			t.Fatal(err)
		}
		nd := &gnode{st: st, rt: rt, reg: reg, url: peers[i]}
		mux := http.NewServeMux()
		mux.HandleFunc("/v1/gossip/digest", rt.HandleGossipDigest)
		mux.HandleFunc("/v1/gossip/pull", rt.HandleGossipPull)
		mux.HandleFunc("/v1/cluster/estimate", rt.HandleEstimate)
		// Minimal /v1/snapshot so mode=gather can scatter (the real
		// route lives in service, which this package cannot import).
		mux.HandleFunc("/v1/snapshot", func(w http.ResponseWriter, r *http.Request) {
			env, err := st.Snapshot(r.URL.Query().Get("store"), nil)
			if err != nil {
				http.Error(w, err.Error(), http.StatusNotFound)
				return
			}
			w.Write(env)
		})
		hs := &httptest.Server{
			Listener: lns[i],
			Config: &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if nd.partitioned.Load() {
					http.Error(w, "partitioned", http.StatusServiceUnavailable)
					return
				}
				mux.ServeHTTP(w, r)
			})},
		}
		hs.Start()
		t.Cleanup(hs.Close)
		nodes[i] = nd
	}
	return nodes
}

const testGossipEps = 0.05

func roundAll(nodes []*gnode) {
	for _, nd := range nodes {
		nd.rt.GossipRound()
	}
}

func assertWithin(t *testing.T, what string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want)/want > tol {
		t.Fatalf("%s = %.1f, want %.1f ± %.0f%%", what, got, want, tol*100)
	}
}

// TestGossipConvergenceAndDeltaBytes: after one round every node's
// merged view covers keys it never ingested, and once converged the
// steady-state rounds ship a sliver of the first full transfer.
func TestGossipConvergenceAndDeltaBytes(t *testing.T) {
	nodes := startGossipNodes(t, 3, time.Second)
	name := "acme/users"
	const perNode = 10_000
	for i, nd := range nodes {
		if err := nd.st.Ingest(name, genKeysRange(fmt.Sprintf("n%d", i), 0, perNode)); err != nil {
			t.Fatal(err)
		}
	}

	// One round each: every node pulls every peer directly, so the
	// merged view converges in a single sweep.
	roundAll(nodes)
	truth := float64(len(nodes) * perNode)
	for i, nd := range nodes {
		est, err := nd.rt.LocalEstimate(name)
		if err != nil {
			t.Fatalf("node %d local estimate: %v", i, err)
		}
		if !est.LocalFound || est.Replicas != 2 {
			t.Fatalf("node %d view: %+v", i, est)
		}
		assertWithin(t, fmt.Sprintf("node %d merged view", i), est.AllTime, truth, testGossipEps)
	}
	fullRx := nodes[0].rt.gossip.met.rxFullBytes.Value()
	if fullRx == 0 {
		t.Fatal("first contact shipped no full envelopes")
	}

	// Steady state: peers re-observe known keys (the normal life of a
	// distinct counter). Sections do not change, so the next sweep
	// moves versions but ships near-empty deltas.
	for i, nd := range nodes {
		if err := nd.st.Ingest(name, genKeysRange(fmt.Sprintf("n%d", i), 0, 500)); err != nil {
			t.Fatal(err)
		}
	}
	roundAll(nodes)
	g := nodes[0].rt.gossip
	if g.met.rxFullBytes.Value() != fullRx {
		t.Fatalf("steady-state round re-shipped full envelopes: %d → %d bytes",
			fullRx, g.met.rxFullBytes.Value())
	}
	deltaRx := g.met.rxDeltaBytes.Value()
	if deltaRx == 0 {
		t.Fatal("steady-state round shipped nothing (versions did not move?)")
	}
	if deltaRx*5 > fullRx {
		t.Fatalf("steady-state delta traffic %dB is not ≥5x below the full transfer %dB", deltaRx, fullRx)
	}

	// Fresh keys still converge through deltas.
	if err := nodes[1].st.Ingest(name, genKeysRange("fresh", 0, 2_000)); err != nil {
		t.Fatal(err)
	}
	roundAll(nodes)
	est, err := nodes[2].rt.LocalEstimate(name)
	if err != nil {
		t.Fatal(err)
	}
	assertWithin(t, "view after fresh keys", est.AllTime, truth+2_000, testGossipEps)
}

// TestGossipStalenessBound: under a fake clock, staleness is exactly
// "age of the oldest peer sync" — it resets on a completed round and
// grows with wall time, so a loop at interval I keeps it ≤ 2·I (one
// interval of scheduling lag plus one of round age).
func TestGossipStalenessBound(t *testing.T) {
	nodes := startGossipNodes(t, 3, time.Second)
	g := nodes[0].rt.gossip
	now := time.Unix(1_700_000_000, 0)
	g.now = func() time.Time { return now }
	g.start = now.UnixNano()

	// Never synced: staleness grows from the gossiper's birth.
	now = now.Add(3 * time.Second)
	if got := nodes[0].rt.Staleness(); got != 3*time.Second {
		t.Fatalf("pre-sync staleness = %v, want 3s", got)
	}

	nodes[0].rt.GossipRound()
	if got := nodes[0].rt.Staleness(); got != 0 {
		t.Fatalf("staleness after a full round = %v, want 0", got)
	}
	now = now.Add(1500 * time.Millisecond)
	if got := nodes[0].rt.Staleness(); got != 1500*time.Millisecond {
		t.Fatalf("staleness 1.5s after the round = %v", got)
	}

	// A partitioned peer pins staleness to its last good sync even
	// while the others keep answering.
	nodes[2].partitioned.Store(true)
	now = now.Add(2 * time.Second)
	nodes[0].rt.GossipRound()
	if got := nodes[0].rt.Staleness(); got != 3500*time.Millisecond {
		t.Fatalf("staleness with one dead peer = %v, want 3.5s", got)
	}
	nodes[2].partitioned.Store(false)
	nodes[0].rt.GossipRound()
	if got := nodes[0].rt.Staleness(); got != 0 {
		t.Fatalf("staleness after heal = %v, want 0", got)
	}
}

// TestGossipPartitionHeal: a node that misses rounds while its peer
// keeps ingesting loses nothing — the next successful sync carries the
// whole backlog (as a delta against the last common version).
func TestGossipPartitionHeal(t *testing.T) {
	nodes := startGossipNodes(t, 2, time.Second)
	name := "acme/users"
	if err := nodes[1].st.Ingest(name, genKeysRange("base", 0, 20_000)); err != nil {
		t.Fatal(err)
	}
	roundAll(nodes)
	est, err := nodes[0].rt.LocalEstimate(name)
	if err != nil {
		t.Fatal(err)
	}
	assertWithin(t, "pre-partition view", est.AllTime, 20_000, testGossipEps)

	// Partition node 1 away; it keeps ingesting (mostly re-observed
	// keys plus a genuinely new range, like real traffic).
	nodes[1].partitioned.Store(true)
	failures := nodes[0].rt.gossip.met.peerFailures.With(nodes[1].url).Value()
	if err := nodes[1].st.Ingest(name, genKeysRange("base", 0, 5_000)); err != nil {
		t.Fatal(err)
	}
	if err := nodes[1].st.Ingest(name, genKeysRange("during", 0, 3_000)); err != nil {
		t.Fatal(err)
	}
	nodes[0].rt.GossipRound()
	if got := nodes[0].rt.gossip.met.peerFailures.With(nodes[1].url).Value(); got != failures+1 {
		t.Fatalf("partitioned sync not counted as failure: %d → %d", failures, got)
	}
	// The stale view still answers.
	est, err = nodes[0].rt.LocalEstimate(name)
	if err != nil {
		t.Fatal(err)
	}
	assertWithin(t, "mid-partition view", est.AllTime, 20_000, testGossipEps)

	// Heal: one round recovers every key ingested during the partition.
	nodes[1].partitioned.Store(false)
	nodes[0].rt.GossipRound()
	est, err = nodes[0].rt.LocalEstimate(name)
	if err != nil {
		t.Fatal(err)
	}
	assertWithin(t, "post-heal view", est.AllTime, 23_000, testGossipEps)
}

// TestEstimateModes: the mode switch on /v1/cluster/estimate — local
// is the default with gossip on, carries the staleness header, and
// unknown modes 400.
func TestEstimateModes(t *testing.T) {
	nodes := startGossipNodes(t, 2, time.Second)
	name := "acme/users"
	if err := nodes[1].st.Ingest(name, genKeysRange("k", 0, 5_000)); err != nil {
		t.Fatal(err)
	}
	roundAll(nodes)

	get := func(query string) (map[string]any, http.Header, int) {
		t.Helper()
		resp, err := http.Get(nodes[0].url + "/v1/cluster/estimate?store=" + name + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		var doc map[string]any
		if len(body) > 0 {
			if err := json.Unmarshal(body, &doc); err != nil {
				t.Fatalf("decoding %q response: %v (%s)", query, err, body)
			}
		}
		return doc, resp.Header, resp.StatusCode
	}

	// Default with gossip on = local: O(1) merged view + staleness.
	doc, hdr, status := get("")
	if status != http.StatusOK || doc["mode"] != "local" {
		t.Fatalf("default mode: HTTP %d, %v", status, doc)
	}
	if hdr.Get(StalenessHeader) == "" {
		t.Fatal("local estimate missing the staleness header")
	}
	assertWithin(t, "local estimate", doc["all_time"].(float64), 5_000, testGossipEps)

	doc, _, status = get("&mode=gather")
	if status != http.StatusOK || doc["mode"] == "local" {
		t.Fatalf("gather mode: HTTP %d, %v", status, doc)
	}
	assertWithin(t, "gather estimate", doc["all_time"].(float64), 5_000, testGossipEps)

	if _, _, status = get("&mode=bogus"); status != http.StatusBadRequest {
		t.Fatalf("bogus mode: HTTP %d, want 400", status)
	}

	// Unknown stores 404 in local mode too.
	resp, err := http.Get(nodes[0].url + "/v1/cluster/estimate?store=acme/ghost&mode=local")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("ghost store: HTTP %d, want 404", resp.StatusCode)
	}
}

// TestPartialEstimateCounter: the stale-local fallback (a 200 gather
// without every peer) increments knwd_cluster_partial_estimates_total.
func TestPartialEstimateCounter(t *testing.T) {
	nodes := startGossipNodes(t, 2, time.Second)
	name := "acme/users"
	if err := nodes[0].st.Ingest(name, genKeysRange("k", 0, 1_000)); err != nil {
		t.Fatal(err)
	}
	rt := nodes[0].rt
	if got := rt.met.partialServed.Value(); got != 0 {
		t.Fatalf("partial-estimates counter starts at %d", got)
	}
	est, err := rt.MergedEstimate(name)
	if err != nil || est.Partial {
		t.Fatalf("healthy gather: %+v, %v", est, err)
	}
	if got := rt.met.partialServed.Value(); got != 0 {
		t.Fatalf("healthy gather bumped the partial counter to %d", got)
	}

	nodes[1].partitioned.Store(true)
	est, err = rt.MergedEstimate(name)
	if err != nil {
		t.Fatalf("partial gather should fall back to the local view: %v", err)
	}
	if !est.Partial {
		t.Fatalf("gather with a dead peer not flagged partial: %+v", est)
	}
	assertWithin(t, "stale-local fallback", est.AllTime, 1_000, testGossipEps)
	if got := rt.met.partialServed.Value(); got != 1 {
		t.Fatalf("partial-estimates counter = %d, want 1", got)
	}
}

// TestWindowedGatherCountsPartialOnce: a windowed gather scatters the
// all-time and the window scope separately, yet a dead peer makes one
// partial request, not two — counted once, named once, and still
// served from the local store.
func TestWindowedGatherCountsPartialOnce(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := "http://" + ln.Addr().String()
	ln.Close() // connections to it are refused
	st, err := store.New(store.Config{
		Options: []knw.Option{knw.WithEpsilon(testGossipEps), knw.WithSeed(1)},
		Window:  store.Window{Buckets: 3, Interval: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	self := "http://127.0.0.1:1"
	rt, err := New(Config{Self: self, Peers: []string{self, dead}, Replication: 1,
		Timeout: 5 * time.Second}, st, metrics.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Ingest("t/w", genKeysRange("k", 0, 1_000)); err != nil {
		t.Fatal(err)
	}
	est, err := rt.MergedEstimate("t/w")
	if err != nil {
		t.Fatalf("partial windowed gather should serve the local view: %v", err)
	}
	if !est.Windowed || !est.Partial || est.Nodes != 2 || est.NodesOK != 1 ||
		len(est.FailedPeers) != 1 || est.FailedPeers[0] != dead {
		t.Fatalf("windowed gather with a dead peer: %+v", est)
	}
	assertWithin(t, "all_time", est.AllTime, 1_000, testGossipEps)
	assertWithin(t, "window", est.Window, 1_000, testGossipEps)
	if p, s := rt.met.gatherPartial.Value(), rt.met.partialServed.Value(); p != 1 || s != 1 {
		t.Fatalf("one partial request counted %d partial gathers, %d partial serves; want 1, 1", p, s)
	}
}

// TestPerPeerStalenessMetric: knwd_gossip_peer_staleness_seconds
// exposes one scrape-time series per peer, tracking each peer's own
// last sync — a partitioned peer's series keeps growing while the
// healthy one resets every round.
func TestPerPeerStalenessMetric(t *testing.T) {
	nodes := startGossipNodes(t, 3, time.Second)
	g := nodes[0].rt.gossip
	now := time.Unix(1_700_000_000, 0)
	g.now = func() time.Time { return now }
	g.start = now.UnixNano()

	scrape := func() string {
		var b strings.Builder
		if err := nodes[0].reg.WriteText(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	series := func(peer string) string {
		return `knwd_gossip_peer_staleness_seconds{peer="` + peer + `"} `
	}
	out := scrape()
	for i, nd := range nodes {
		want := i != 0 // every peer but self gets a series
		if got := strings.Contains(out, series(nd.url)); got != want {
			t.Errorf("series for %s present=%v, want %v:\n%s", nd.url, got, want, out)
		}
	}

	nodes[2].partitioned.Store(true)
	now = now.Add(2 * time.Second)
	nodes[0].rt.GossipRound()
	out = scrape()
	if !strings.Contains(out, series(nodes[1].url)+"0\n") {
		t.Errorf("healthy peer staleness != 0 after round:\n%s", out)
	}
	if !strings.Contains(out, series(nodes[2].url)+"2\n") {
		t.Errorf("partitioned peer staleness != 2s:\n%s", out)
	}
}

func genKeysRange(prefix string, lo, hi int) []string {
	out := make([]string, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, fmt.Sprintf("%s-%d", prefix, i))
	}
	return out
}
