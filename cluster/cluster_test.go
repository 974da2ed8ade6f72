package cluster_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	knw "repro"
	"repro/cluster"
	"repro/internal/frame"
	"repro/internal/httpx"
	"repro/service"
	"repro/store"
)

// testEps is the sketch ε the e2e cluster runs with; the acceptance
// check asserts the merged estimate lands within ε of exact truth.
const testEps = 0.05

// node is one in-process cluster member: a service.Server with the
// cluster routes mounted, listening on a real loopback port.
type node struct {
	srv *service.Server
	hs  *httptest.Server
	url string
}

// startCluster brings up n knwd nodes joined into one cluster with the
// given replication factor. Listeners are bound before the servers are
// built so every node knows the full peer URL list up front — the same
// order of operations a deployment has (addresses first, daemons
// second).
func startCluster(t *testing.T, n, replication int, window store.Window, storeOpts ...func(*store.Config)) []*node {
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
	nodes := make([]*node, n)
	for i := range nodes {
		stCfg := store.Config{
			Kind:    knw.KindF0,
			Options: []knw.Option{knw.WithEpsilon(testEps), knw.WithSeed(1)},
			Window:  window,
		}
		for _, opt := range storeOpts {
			opt(&stCfg)
		}
		srv, err := service.New(service.Config{
			Store: stCfg,
			Cluster: &cluster.Config{
				Self:        peers[i],
				Peers:       peers,
				Replication: replication,
				Backoff:     5 * time.Millisecond,
				Timeout:     5 * time.Second,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		hs := &httptest.Server{
			Listener: lns[i],
			Config:   &http.Server{Handler: srv.Handler()},
		}
		hs.Start()
		nodes[i] = &node{srv: srv, hs: hs, url: peers[i]}
		t.Cleanup(hs.Close)
	}
	return nodes
}

// clusterEstimate GETs one node's scatter-gather estimate, returning
// the decoded report and the X-KNW-Partial header value.
func clusterEstimate(t *testing.T, base, name string) (cluster.Estimate, string, int) {
	t.Helper()
	resp, err := http.Get(base + "/v1/cluster/estimate?store=" + name)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	var est cluster.Estimate
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, &est); err != nil {
			t.Fatalf("decoding estimate: %v (%s)", err, body)
		}
	}
	return est, resp.Header.Get(cluster.PartialHeader), resp.StatusCode
}

// ingestLines POSTs newline keys to a node's routed ingest and returns
// the response status and body.
func ingestLines(t *testing.T, base, name string, keys []string) (int, []byte) {
	t.Helper()
	body := strings.Join(keys, "\n") + "\n"
	resp, err := http.Post(base+"/v1/cluster/ingest?store="+name, "text/plain",
		strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, out
}

func genKeys(prefix string, lo, hi int) []string {
	out := make([]string, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, fmt.Sprintf("%s-%d", prefix, i))
	}
	return out
}

// TestClusterEndToEnd is the PR's acceptance scenario: 3 nodes, R=2,
// 100k keys ingested through a single node, merged estimate within ε
// of exact truth from every node; then one node dies and estimates
// keep flowing — flagged partial, still within ε because R=2 leaves a
// live replica of every key.
func TestClusterEndToEnd(t *testing.T) {
	const (
		totalKeys   = 100_000
		replication = 2
	)
	nodes := startCluster(t, 3, replication, store.Window{})

	// All 100k keys enter through node 0 only: the router must spread
	// them over the ring by itself.
	for lo := 0; lo < totalKeys; lo += 10_000 {
		status, out := ingestLines(t, nodes[0].url, "acme/users", genKeys("user", lo, lo+10_000))
		if status != http.StatusOK {
			t.Fatalf("cluster ingest: HTTP %d: %s", status, out)
		}
	}

	// Every node answers the same scatter-gathered union, within ε.
	for i, nd := range nodes {
		est, partial, status := clusterEstimate(t, nd.url, "acme/users")
		if status != http.StatusOK {
			t.Fatalf("node %d estimate: HTTP %d", i, status)
		}
		if partial != "" || est.Partial {
			t.Fatalf("node %d: healthy cluster reported partial (%q)", i, partial)
		}
		if est.Nodes != 3 || est.NodesOK != 3 {
			t.Fatalf("node %d: nodes %d/%d, want 3/3", i, est.NodesOK, est.Nodes)
		}
		if rel := math.Abs(est.AllTime-totalKeys) / totalKeys; rel > testEps {
			t.Fatalf("node %d: merged estimate %.0f vs truth %d: rel err %.3f > ε=%v",
				i, est.AllTime, totalKeys, rel, testEps)
		}
	}

	// The keys really are sharded: each node's local store holds its
	// ring share (~R/N of the keyspace), not everything.
	for i, nd := range nodes {
		local, err := nd.srv.Store().Estimate("acme/users")
		if err != nil {
			t.Fatalf("node %d local estimate: %v", i, err)
		}
		frac := local.AllTime / totalKeys
		if frac > 0.95 {
			t.Errorf("node %d holds %.0f%% of keys locally; routing did not shard", i, frac*100)
		}
		if frac < 0.25 {
			t.Errorf("node %d holds only %.0f%% of keys; ring badly unbalanced", i, frac*100)
		}
	}

	// Kill node 2. Scatter-gather from node 0 must still serve — R=2
	// guarantees every key survives on a live node — and must say so.
	nodes[2].hs.Close()
	est, partial, status := clusterEstimate(t, nodes[0].url, "acme/users")
	if status != http.StatusOK {
		t.Fatalf("estimate with dead peer: HTTP %d", status)
	}
	if !est.Partial || !strings.Contains(partial, nodes[2].url) {
		t.Fatalf("dead peer not reported: partial=%v header=%q", est.Partial, partial)
	}
	if est.NodesOK != 2 {
		t.Fatalf("nodes_ok = %d with one dead peer, want 2", est.NodesOK)
	}
	if rel := math.Abs(est.AllTime-totalKeys) / totalKeys; rel > testEps {
		t.Fatalf("partial estimate %.0f vs truth %d: rel err %.3f > ε=%v (replication failed to cover)",
			est.AllTime, totalKeys, rel, testEps)
	}

	// Routed ingest with a dead peer: still 200 (1 failure < R), the
	// response flags the partial delivery, and the new keys are counted
	// because their surviving owners took them.
	status, out := ingestLines(t, nodes[0].url, "acme/users", genKeys("late", 0, 5_000))
	if status != http.StatusOK {
		t.Fatalf("ingest with dead peer: HTTP %d: %s", status, out)
	}
	var res struct {
		Partial bool           `json:"partial"`
		Lost    map[string]int `json:"lost"`
	}
	if err := json.Unmarshal(out, &res); err != nil {
		t.Fatal(err)
	}
	if !res.Partial || res.Lost[nodes[2].url] == 0 {
		t.Fatalf("dead-peer ingest not flagged partial: %s", out)
	}
	const newTruth = totalKeys + 5_000
	est, _, _ = clusterEstimate(t, nodes[1].url, "acme/users")
	if rel := math.Abs(est.AllTime-newTruth) / newTruth; rel > testEps {
		t.Fatalf("estimate after degraded ingest %.0f vs truth %d: rel err %.3f > ε=%v",
			est.AllTime, newTruth, rel, testEps)
	}
}

// TestClusterWindowedGather: windowed stores scatter-gather their
// window unions too (scope=window envelopes), and the merged window
// tracks only the trailing buckets.
func TestClusterWindowedGather(t *testing.T) {
	nodes := startCluster(t, 3, 2, store.Window{Buckets: 3, Interval: time.Hour})

	if status, out := ingestLines(t, nodes[1].url, "t/m", genKeys("w", 0, 8_000)); status != http.StatusOK {
		t.Fatalf("ingest: HTTP %d: %s", status, out)
	}
	est, _, status := clusterEstimate(t, nodes[0].url, "t/m")
	if status != http.StatusOK {
		t.Fatalf("estimate: HTTP %d", status)
	}
	if !est.Windowed {
		t.Fatal("cluster estimate not windowed on a windowed store")
	}
	for what, v := range map[string]float64{"all_time": est.AllTime, "window": est.Window} {
		if rel := math.Abs(v-8000) / 8000; rel > 0.15 {
			t.Fatalf("windowed gather %s = %.0f, want 8000 ± 15%%", what, v)
		}
	}
}

// TestClusterJSONIngestAndInfo: the JSON document stream routes per
// store, and /v1/cluster/info reports the static membership.
func TestClusterJSONIngestAndInfo(t *testing.T) {
	nodes := startCluster(t, 2, 1, store.Window{})

	var body bytes.Buffer
	for _, doc := range []map[string]any{
		{"store": "a/m", "keys": genKeys("x", 0, 3000)},
		{"store": "b/m", "keys": genKeys("y", 0, 1000)},
	} {
		blob, _ := json.Marshal(doc)
		body.Write(blob)
		body.WriteByte('\n')
	}
	resp, err := http.Post(nodes[0].url+"/v1/cluster/ingest", "application/json", &body)
	if err != nil {
		t.Fatal(err)
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("JSON cluster ingest: HTTP %d: %s", resp.StatusCode, out)
	}
	for name, truth := range map[string]float64{"a/m": 3000, "b/m": 1000} {
		est, _, status := clusterEstimate(t, nodes[1].url, name)
		if status != http.StatusOK {
			t.Fatalf("estimate %s: HTTP %d", name, status)
		}
		if rel := math.Abs(est.AllTime-truth) / truth; rel > 0.15 {
			t.Fatalf("%s: estimate %.0f, want %.0f ± 15%%", name, est.AllTime, truth)
		}
	}

	resp, err = http.Get(nodes[0].url + "/v1/cluster/info")
	if err != nil {
		t.Fatal(err)
	}
	out, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var info struct {
		Self        string   `json:"self"`
		Members     []string `json:"members"`
		Replication int      `json:"replication"`
	}
	if err := json.Unmarshal(out, &info); err != nil {
		t.Fatal(err)
	}
	if info.Self != nodes[0].url || len(info.Members) != 2 || info.Replication != 1 {
		t.Fatalf("info = %+v", info)
	}
}

// TestClusterHostileKeysReplicateExactly: keys containing newlines,
// CRs, or nothing at all must land byte-identically on every replica
// (forwarding uses the JSON document form, not newline framing), so
// the union estimate counts each literal key once. Regression test
// for replica asymmetry under newline re-framing.
func TestClusterHostileKeysReplicateExactly(t *testing.T) {
	nodes := startCluster(t, 3, 3, store.Window{}) // R=N: every node owns every key
	hostile := []string{"a\nb", "x\r", "", "plain", "tab\tkey", "nul\x00byte"}
	doc, _ := json.Marshal(map[string]any{"store": "h/m", "keys": hostile})
	resp, err := http.Post(nodes[0].url+"/v1/cluster/ingest", "application/json", bytes.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hostile-key ingest: HTTP %d: %s", resp.StatusCode, out)
	}
	// With R=N every node's LOCAL store saw the identical key set; the
	// sketches are seed-shared and deterministic, so their snapshots
	// must be byte-identical — the strongest replica-symmetry check.
	want, err := nodes[0].srv.Store().Snapshot("h/m", nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(nodes); i++ {
		got, err := nodes[i].srv.Store().Snapshot("h/m", nil)
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("node %d replica diverged from node 0 on hostile keys", i)
		}
	}
	est, _, status := clusterEstimate(t, nodes[1].url, "h/m")
	if status != http.StatusOK {
		t.Fatalf("estimate: HTTP %d", status)
	}
	// 6 distinct literal keys, tiny count → the sketch is exact here.
	if math.Abs(est.AllTime-6) > 1 {
		t.Fatalf("hostile keys estimate %.1f, want 6", est.AllTime)
	}
}

// TestClusterEmptyIngestCreatesEverywhere: an ingest that carries no
// keys still creates its store on every member — the single-node
// create-on-empty rule, cluster-wide — so later estimates answer 0,
// not 404, from any node. Empty newline and JSON bodies and a
// header-only frame create the ?store= target; a JSON doc with no keys
// and a zero-count frame doc create the store they name.
func TestClusterEmptyIngestCreatesEverywhere(t *testing.T) {
	nodes := startCluster(t, 2, 1, store.Window{})
	for i, body := range []struct {
		ct    string
		query bool // the body targets ?store= rather than naming the store
		data  func(name string) []byte
	}{
		{"text/plain", true, func(string) []byte { return nil }},
		{"application/json", true, func(string) []byte { return nil }},
		{httpx.FrameContentType, true, func(string) []byte { return frame.AppendHeader(nil) }},
		{"application/json", false, func(name string) []byte {
			return []byte(`{"store":"` + name + `","keys":[]}`)
		}},
		{httpx.FrameContentType, false, func(name string) []byte {
			return frame.AppendDoc(frame.AppendHeader(nil), name, nil)
		}},
	} {
		name := fmt.Sprintf("empty%d/m", i)
		u := nodes[0].url + "/v1/cluster/ingest"
		if body.query {
			u += "?store=" + name
		}
		resp, err := http.Post(u, body.ct, bytes.NewReader(body.data(name)))
		if err != nil {
			t.Fatal(err)
		}
		out, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("empty %s body %d: HTTP %d: %s", body.ct, i, resp.StatusCode, out)
		}
		for _, nd := range nodes {
			est, _, status := clusterEstimate(t, nd.url, name)
			if status != http.StatusOK || est.AllTime != 0 {
				t.Fatalf("%s after empty %s ingest: HTTP %d, estimate %.1f (want 200, 0)",
					name, body.ct, status, est.AllTime)
			}
			if _, err := nd.srv.Store().Estimate(name); err != nil {
				t.Fatalf("store %s missing on %s after empty %s ingest: %v", name, nd.url, body.ct, err)
			}
		}
	}
}

// TestIngestOversizeKeySameOnBothEndpoints: a newline body whose line
// outgrows httpx.MaxKeyBytes fails the same way through the leaf and
// the routed endpoint — one decoder, one failure rule: the keys before
// the oversize line are delivered, the answer is 400, and the progress
// count says how many keys landed.
func TestIngestOversizeKeySameOnBothEndpoints(t *testing.T) {
	nodes := startCluster(t, 2, 1, store.Window{})
	body := []byte(strings.Join(genKeys("big", 0, 10), "\n") + "\n")
	body = append(body, bytes.Repeat([]byte{'x'}, httpx.MaxKeyBytes+16)...)
	type answer struct {
		status int
		err    string
		keys   int
	}
	post := func(path, name, field string) answer {
		resp, err := http.Post(nodes[0].url+path+"?store="+name, "text/plain", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		n, _ := out[field].(float64)
		msg, _ := out["error"].(string)
		return answer{resp.StatusCode, msg, int(n)}
	}
	leaf := post("/v1/ingest", "big/leaf", "ingested")
	routed := post("/v1/cluster/ingest", "big/routed", "received")
	if leaf != routed {
		t.Fatalf("leaf answered %+v, routed answered %+v", leaf, routed)
	}
	if leaf.status != http.StatusBadRequest || leaf.keys != 10 || !strings.Contains(leaf.err, "exceeds") {
		t.Fatalf("oversize key answered %+v, want 400 after 10 keys naming the limit", leaf)
	}
	for _, name := range []string{"big/leaf", "big/routed"} {
		est, _, status := clusterEstimate(t, nodes[1].url, name)
		if status != http.StatusOK || est.AllTime != 10 {
			t.Fatalf("%s after oversize failure: HTTP %d, estimate %.1f (want 200, 10)", name, status, est.AllTime)
		}
	}
}

// TestClusterEstimateErrors: unknown stores 404 cluster-wide, invalid
// names 400.
func TestClusterEstimateErrors(t *testing.T) {
	nodes := startCluster(t, 2, 1, store.Window{})
	if _, _, status := clusterEstimate(t, nodes[0].url, "never/written"); status != http.StatusNotFound {
		t.Fatalf("unknown store: HTTP %d, want 404", status)
	}
	if _, _, status := clusterEstimate(t, nodes[0].url, ""); status != http.StatusBadRequest {
		t.Fatalf("empty store name: HTTP %d, want 400", status)
	}
}

// TestConfigValidation: New rejects self-not-in-peers and replication
// outside [1, len(peers)].
func TestConfigValidation(t *testing.T) {
	st, err := store.New(store.Config{
		Kind:    knw.KindF0,
		Options: []knw.Option{knw.WithSeed(1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	peers := []string{"http://a:1", "http://b:1"}
	cases := []cluster.Config{
		{Self: "http://c:1", Peers: peers, Replication: 1}, // self missing
		{Self: "http://a:1", Peers: peers, Replication: 3}, // R > peers
		{Self: "http://a:1", Peers: peers, Replication: -1},
		{Self: "http://a:1", Peers: nil, Replication: 1}, // no peers
	}
	for i, cfg := range cases {
		if _, err := cluster.New(cfg, st, nil); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, cfg)
		}
	}
	if _, err := cluster.New(cluster.Config{Self: "http://a:1", Peers: peers, Replication: 2}, st, nil); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

// startGossipCluster is startCluster with anti-entropy gossip enabled.
// The httptest harness never calls Server.Run (which owns the loop in
// production), so the loop is started and stopped here.
func startGossipCluster(t *testing.T, n, replication int, interval time.Duration) []*node {
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
	nodes := make([]*node, n)
	for i := range nodes {
		srv, err := service.New(service.Config{
			Store: store.Config{
				Kind:    knw.KindF0,
				Options: []knw.Option{knw.WithEpsilon(testEps), knw.WithSeed(1)},
			},
			Cluster: &cluster.Config{
				Self:           peers[i],
				Peers:          peers,
				Replication:    replication,
				GossipInterval: interval,
				Backoff:        5 * time.Millisecond,
				Timeout:        5 * time.Second,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		hs := &httptest.Server{
			Listener: lns[i],
			Config:   &http.Server{Handler: srv.Handler()},
		}
		hs.Start()
		srv.Cluster().StartGossip()
		nodes[i] = &node{srv: srv, hs: hs, url: peers[i]}
		t.Cleanup(func() { srv.Cluster().StopGossip(); hs.Close() })
	}
	return nodes
}

// TestGossipEndToEnd drives the full service stack: routed ingest on
// one node, background anti-entropy, then O(1) merged-view estimates
// from every node's plain /v1/estimate — no scatter-gather on the read
// path — plus the mode switch on /v1/cluster/estimate.
func TestGossipEndToEnd(t *testing.T) {
	const (
		totalKeys = 60_000
		interval  = 50 * time.Millisecond
	)
	nodes := startGossipCluster(t, 3, 1, interval)
	if status, out := ingestLines(t, nodes[0].url, "acme/users", genKeys("user", 0, totalKeys)); status != http.StatusOK {
		t.Fatalf("cluster ingest: HTTP %d: %s", status, out)
	}

	// Every node's /v1/estimate converges to the cluster-wide count via
	// background gossip alone.
	type localEst struct {
		AllTime          float64 `json:"all_time"`
		Mode             string  `json:"mode"`
		Replicas         int     `json:"replicas"`
		StalenessSeconds float64 `json:"staleness_seconds"`
	}
	getLocal := func(nd *node, query string) (localEst, http.Header, int) {
		t.Helper()
		resp, err := http.Get(nd.url + "/v1/estimate?store=acme/users" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		var est localEst
		if resp.StatusCode == http.StatusOK {
			if err := json.Unmarshal(body, &est); err != nil {
				t.Fatalf("decoding: %v (%s)", err, body)
			}
		}
		return est, resp.Header, resp.StatusCode
	}
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; i < len(nodes); {
		est, hdr, status := getLocal(nodes[i], "")
		if status == http.StatusOK && math.Abs(est.AllTime-totalKeys)/totalKeys <= testEps {
			if est.Mode != "local" {
				t.Fatalf("node %d /v1/estimate mode = %q, want local", i, est.Mode)
			}
			if hdr.Get("X-KNW-Staleness") == "" {
				t.Fatalf("node %d merged estimate missing the staleness header", i)
			}
			i++
			continue
		}
		if time.Now().After(deadline) {
			t.Fatalf("node %d never converged: HTTP %d, %.0f vs %d", i, status, est.AllTime, totalKeys)
		}
		time.Sleep(interval / 2)
	}

	// The staleness each node reports stays bounded by ~2x the interval
	// while the loop runs (generous slack for a loaded CI box).
	est, _, _ := getLocal(nodes[1], "")
	if est.StalenessSeconds > 20*interval.Seconds() {
		t.Fatalf("staleness %.3fs way over the gossip interval %v", est.StalenessSeconds, interval)
	}

	// view=shard bypasses the merged view: with 3 nodes and R=1 each
	// shard holds roughly a third of the keys.
	var shard struct {
		AllTime float64 `json:"all_time"`
	}
	resp, err := http.Get(nodes[0].url + "/v1/estimate?store=acme/users&view=shard")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err := json.Unmarshal(body, &shard); err != nil {
		t.Fatal(err)
	}
	if shard.AllTime > 0.6*totalKeys || shard.AllTime == 0 {
		t.Fatalf("view=shard estimate %.0f does not look like one shard of %d", shard.AllTime, totalKeys)
	}

	// /v1/cluster/estimate defaults to the merged view when gossip is
	// on; mode=gather still scatter-gathers the same answer.
	for _, q := range []string{"", "&mode=local", "&mode=gather"} {
		resp, err := http.Get(nodes[2].url + "/v1/cluster/estimate?store=acme/users" + q)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var doc map[string]any
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("mode %q: HTTP %d: %s", q, resp.StatusCode, body)
		}
		if rel := math.Abs(doc["all_time"].(float64)-totalKeys) / totalKeys; rel > testEps {
			t.Fatalf("mode %q: estimate %.0f vs %d", q, doc["all_time"].(float64), totalKeys)
		}
		wantLocal := q != "&mode=gather"
		if isLocal := doc["mode"] == "local"; isLocal != wantLocal {
			t.Fatalf("mode %q answered local=%v", q, isLocal)
		}
	}
}

// TestEstimateMergedViewNeedsGossip: without gossip, /v1/estimate stays
// the shard-local answer and view=merged is a 400.
func TestEstimateMergedViewNeedsGossip(t *testing.T) {
	nodes := startCluster(t, 2, 1, store.Window{})
	if status, out := ingestLines(t, nodes[0].url, "g/off", genKeys("k", 0, 100)); status != http.StatusOK {
		t.Fatalf("ingest: HTTP %d: %s", status, out)
	}
	resp, err := http.Get(nodes[0].url + "/v1/estimate?store=g/off&view=merged")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("view=merged without gossip: HTTP %d, want 400", resp.StatusCode)
	}
	resp, err = http.Get(nodes[0].url + "/v1/estimate?store=g/off")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var doc map[string]any
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if _, merged := doc["mode"]; merged {
		t.Fatalf("gossip-off /v1/estimate answered the merged view: %s", body)
	}
}
