// The cluster example runs the acceptance scenario for knwd's cluster
// mode, in process: three nodes joined by a consistent-hash ring with
// replication factor 2, 100k keys ingested through a single node,
// scatter-gathered estimates within ε of the exact truth from every
// node. Then the membership story: a fourth node joins the live ring
// (epoch cutover + sketch handoff) and drains back out, with the
// estimates holding ε through both transitions — and finally one node
// is killed and the cluster keeps serving (and ingesting), flagging
// responses with the X-KNW-Partial header.
//
//	go run ./examples/cluster
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"

	knw "repro"
	"repro/cluster"
	"repro/service"
	"repro/store"
)

const (
	totalKeys   = 100_000
	replication = 2
	eps         = 0.05
)

func main() {
	// Bind the listeners first so every node can be handed the complete
	// peer list — the same order of operations a real deployment has
	// (addresses assigned, then daemons started). All nodes must share
	// kind, options, and seed: mergeability is what cluster mode runs on.
	const n = 3
	lns := make([]net.Listener, n)
	peers := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		lns[i] = ln
		peers[i] = "http://" + ln.Addr().String()
	}
	nodes := make([]*service.Server, n)
	servers := make([]*httptest.Server, n)
	for i := range nodes {
		srv, err := service.New(service.Config{
			Store: store.Config{
				Kind:    knw.KindF0,
				Options: []knw.Option{knw.WithEpsilon(eps), knw.WithSeed(42)},
			},
			Cluster: &cluster.Config{
				Self:        peers[i],
				Peers:       peers,
				Replication: replication,
			},
		})
		if err != nil {
			log.Fatal(err)
		}
		nodes[i] = srv
		servers[i] = &httptest.Server{Listener: lns[i], Config: &http.Server{Handler: srv.Handler()}}
		servers[i].Start()
		defer servers[i].Close()
	}
	fmt.Printf("== cluster up: %d nodes, R=%d ==\n", n, replication)
	for i, p := range peers {
		fmt.Printf("  node %c: %s\n", 'A'+i, p)
	}

	// 1. Ingest 100k keys through node A ONLY. The ring router spreads
	// every key to its 2 owner nodes; node A keeps just its own share.
	fmt.Printf("== ingest %d keys through node A only ==\n", totalKeys)
	for lo := 0; lo < totalKeys; lo += 10_000 {
		var body strings.Builder
		for i := lo; i < lo+10_000; i++ {
			fmt.Fprintf(&body, "user-%d\n", i)
		}
		resp, err := http.Post(peers[0]+"/v1/cluster/ingest?store=acme/users",
			"text/plain", strings.NewReader(body.String()))
		if err != nil {
			log.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			log.Fatalf("cluster ingest: HTTP %d", resp.StatusCode)
		}
	}
	for i := range nodes {
		est, err := nodes[i].Store().Estimate("acme/users")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  node %c local share ≈ %6.0f keys (%.0f%% of stream)\n",
			'A'+i, est.AllTime, 100*est.AllTime/totalKeys)
	}

	// 2. Scatter-gather: every node answers the merged union, within ε.
	fmt.Println("== merged estimates (scatter-gather from each node) ==")
	for i, p := range peers {
		est, partial := clusterEstimate(p, "acme/users")
		fmt.Printf("  node %c: all_time ≈ %6.0f (true %d, rel err %.2f%%, nodes %d/%d, partial=%q)\n",
			'A'+i, est.AllTime, totalKeys,
			100*math.Abs(est.AllTime-totalKeys)/totalKeys, est.NodesOK, est.Nodes, partial)
		if math.Abs(est.AllTime-totalKeys) > eps*totalKeys {
			log.Fatalf("node %c estimate outside ε", 'A'+i)
		}
	}

	// 3. Dynamic membership: a fourth node joins the LIVE ring. It boots
	// alone (its own one-member epoch-1 ring, like knwd -join does),
	// then any existing member coordinates the cutover: prepare the
	// epoch-2 descriptor, stream sketch envelopes to the new owner
	// (O(sketch size), not O(keys) — mergeability at work), commit.
	fmt.Println("== node D joins the live cluster ==")
	lnD, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	urlD := "http://" + lnD.Addr().String()
	srvD, err := service.New(service.Config{
		Store: store.Config{
			Kind:    knw.KindF0,
			Options: []knw.Option{knw.WithEpsilon(eps), knw.WithSeed(42)},
		},
		Cluster: &cluster.Config{Self: urlD, Peers: []string{urlD}, Replication: 1},
	})
	if err != nil {
		log.Fatal(err)
	}
	serverD := &httptest.Server{Listener: lnD, Config: &http.Server{Handler: srvD.Handler()}}
	serverD.Start()
	defer serverD.Close()
	res := memberChange(peers[0], "join", urlD)
	fmt.Printf("  joined: epoch %d, %d members\n", res.Epoch, len(res.Members))
	est, _ := clusterEstimate(urlD, "acme/users")
	fmt.Printf("  node D merged ≈ %6.0f right after the cutover (rel err %.2f%%)\n",
		est.AllTime, 100*math.Abs(est.AllTime-totalKeys)/totalKeys)
	if math.Abs(est.AllTime-totalKeys) > eps*totalKeys {
		log.Fatal("estimate dipped below ε after the join")
	}
	localD, err := srvD.Store().Estimate("acme/users")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  node D local share ≈ %6.0f keys via handoff envelopes\n", localD.AllTime)

	// 4. And drains back out: leave hands D's slices to the surviving
	// owners before the epoch-3 commit drops it from routing (the same
	// path knwd -drain runs on SIGTERM).
	fmt.Println("== node D drains back out ==")
	res = memberChange(peers[0], "leave", urlD)
	fmt.Printf("  left: epoch %d, %d members\n", res.Epoch, len(res.Members))
	est, _ = clusterEstimate(peers[0], "acme/users")
	fmt.Printf("  node A merged ≈ %6.0f after the drain (rel err %.2f%%)\n",
		est.AllTime, 100*math.Abs(est.AllTime-totalKeys)/totalKeys)
	if math.Abs(est.AllTime-totalKeys) > eps*totalKeys {
		log.Fatal("estimate dipped below ε after the drain")
	}

	// 5. Kill node C. Every key was replicated on 2 of the 3 nodes, so
	// the union over A+B still covers the whole stream: estimates stay
	// within ε, and the response says which peer is missing.
	fmt.Println("== killing node C ==")
	servers[2].Close()
	est, partial := clusterEstimate(peers[0], "acme/users")
	fmt.Printf("  node A: all_time ≈ %6.0f (rel err %.2f%%), X-KNW-Partial: %q\n",
		est.AllTime, 100*math.Abs(est.AllTime-totalKeys)/totalKeys, partial)
	if partial == "" || math.Abs(est.AllTime-totalKeys) > eps*totalKeys {
		log.Fatal("degraded estimate missing partial header or outside ε")
	}

	// 6. Ingest keeps working degraded too: keys whose owner set
	// includes C land on their surviving owner, the response reports
	// what was lost where, and the estimate tracks the new truth.
	fmt.Println("== ingest 5k more keys with C dead ==")
	var body strings.Builder
	for i := 0; i < 5_000; i++ {
		fmt.Fprintf(&body, "late-%d\n", i)
	}
	resp, err := http.Post(peers[0]+"/v1/cluster/ingest?store=acme/users",
		"text/plain", strings.NewReader(body.String()))
	if err != nil {
		log.Fatal(err)
	}
	blob, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	fmt.Printf("  HTTP %d, X-KNW-Partial: %q\n  %s",
		resp.StatusCode, resp.Header.Get(cluster.PartialHeader), blob)
	est, _ = clusterEstimate(peers[1], "acme/users")
	newTruth := float64(totalKeys + 5_000)
	fmt.Printf("  node B merged ≈ %6.0f (true %.0f, rel err %.2f%%)\n",
		est.AllTime, newTruth, 100*math.Abs(est.AllTime-newTruth)/newTruth)
	if math.Abs(est.AllTime-newTruth) > eps*newTruth {
		log.Fatal("post-failure ingest lost keys beyond ε")
	}
	fmt.Println("== done: replication R=2 rode out a node failure ==")
}

// memberChange POSTs one join/leave through a member and returns the
// committed change result.
func memberChange(via, action, member string) cluster.ChangeResult {
	body, _ := json.Marshal(map[string]string{"url": member})
	resp, err := http.Post(via+"/v1/cluster/"+action, "application/json",
		strings.NewReader(string(body)))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	blob, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("%s %s: HTTP %d: %s", action, member, resp.StatusCode, blob)
	}
	var res cluster.ChangeResult
	if err := json.Unmarshal(blob, &res); err != nil {
		log.Fatal(err)
	}
	return res
}

// clusterEstimate GETs one node's scatter-gathered estimate.
func clusterEstimate(base, name string) (cluster.Estimate, string) {
	resp, err := http.Get(base + "/v1/cluster/estimate?store=" + name)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	blob, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("cluster estimate: HTTP %d: %s", resp.StatusCode, blob)
	}
	var est cluster.Estimate
	if err := json.Unmarshal(blob, &est); err != nil {
		log.Fatal(err)
	}
	return est, resp.Header.Get(cluster.PartialHeader)
}
