// The service example drives knwd's HTTP API end to end, in process:
// it stands up two nodes (as httptest servers around service.Server),
// streams per-tenant keys into one, aggregates across both through
// /v1/snapshot + /v1/merge, shows the 409 a misconfigured peer gets,
// and restarts a node from its checkpoint to show estimates survive.
//
//	go run ./examples/service
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"

	knw "repro"
	"repro/service"
	"repro/store"
)

func main() {
	ckptDir, err := os.MkdirTemp("", "knwd-example-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(ckptDir)

	// Both nodes share kind, options, and — critically — the seed:
	// that is what makes their snapshots mergeable. Node A also keeps
	// a checkpoint directory.
	cfg := func(dir string) service.Config {
		return service.Config{
			Store: store.Config{
				Kind:    knw.KindF0,
				Options: []knw.Option{knw.WithEpsilon(0.02), knw.WithSeed(42)},
			},
			CheckpointDir: dir,
		}
	}
	nodeA, err := service.New(cfg(ckptDir))
	if err != nil {
		log.Fatal(err)
	}
	nodeB, err := service.New(cfg(""))
	if err != nil {
		log.Fatal(err)
	}
	srvA := httptest.NewServer(nodeA.Handler())
	defer srvA.Close()
	srvB := httptest.NewServer(nodeB.Handler())
	defer srvB.Close()

	// 1. Per-tenant ingestion: each tenant's pods batch keys at their
	// local node. Tenant acme is split across both nodes (disjoint user
	// ranges) to set up the merge step.
	fmt.Println("== ingest ==")
	for tenant, n := range map[string]int{"acme": 30000, "globex": 12000, "initech": 4000, "umbrella": 800} {
		ingest(srvA.URL, tenant+"/users", keys(tenant, 0, n))
	}
	ingest(srvB.URL, "acme/users", keys("acme", 20000, 50000)) // overlaps [20000,30000)
	for _, st := range []string{"acme/users", "globex/users", "initech/users", "umbrella/users"} {
		fmt.Printf("  node A %-14s ≈ %.0f distinct\n", st, estimate(srvA.URL, st))
	}
	fmt.Printf("  node B %-14s ≈ %.0f distinct\n", "acme/users", estimate(srvB.URL, "acme/users"))

	// 2. Cross-node aggregation: pull A's envelope for acme/users and
	// fold it into B. The union de-duplicates the 10k overlapping keys.
	fmt.Println("== merge A → B ==")
	env := snapshot(srvA.URL, "acme/users")
	resp, err := http.Post(srvB.URL+"/v1/merge?store=acme/users", "application/octet-stream", bytes.NewReader(env))
	if err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	fmt.Printf("  merged %d envelope bytes: acme/users union ≈ %.0f (true 50000)\n",
		len(env), estimate(srvB.URL, "acme/users"))

	// 3. A peer with a different seed is rejected, not silently merged:
	// its hash functions differ, so folding its counters would corrupt
	// the estimate. The service answers 409 Conflict.
	fmt.Println("== foreign peer ==")
	foreign, _ := service.New(service.Config{Store: store.Config{
		Kind:    knw.KindF0,
		Options: []knw.Option{knw.WithEpsilon(0.02), knw.WithSeed(7)},
	}})
	_ = foreign.Store().Ingest("acme/users", []string{"x", "y"})
	fenv, _ := foreign.Store().Snapshot("acme/users", nil)
	resp, err = http.Post(srvB.URL+"/v1/merge?store=acme/users", "application/octet-stream", bytes.NewReader(fenv))
	if err != nil {
		log.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	fmt.Printf("  mismatched seed → HTTP %d: %s", resp.StatusCode, body)

	// 4. Restart: checkpoint node A, build a fresh server over the same
	// directory, and compare. The restored estimates are byte-identical
	// — the checkpoint is the same envelope format as /v1/snapshot.
	fmt.Println("== checkpoint / restart ==")
	if err := nodeA.Checkpoint(); err != nil {
		log.Fatal(err)
	}
	srvA.Close()
	nodeA2, err := service.New(cfg(ckptDir))
	if err != nil {
		log.Fatal(err)
	}
	srvA2 := httptest.NewServer(nodeA2.Handler())
	defer srvA2.Close()
	for _, st := range []string{"acme/users", "globex/users", "initech/users", "umbrella/users"} {
		fmt.Printf("  restored %-14s ≈ %.0f distinct\n", st, estimate(srvA2.URL, st))
	}
}

// keys fabricates tenant-scoped user IDs for [lo, hi).
func keys(tenant string, lo, hi int) []string {
	out := make([]string, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, fmt.Sprintf("%s-user-%d", tenant, i))
	}
	return out
}

// ingest POSTs keys in newline-delimited batches of 4096.
func ingest(base, name string, ks []string) {
	for len(ks) > 0 {
		n := min(4096, len(ks))
		body := strings.Join(ks[:n], "\n")
		ks = ks[n:]
		resp, err := http.Post(base+"/v1/ingest?store="+name, "text/plain", strings.NewReader(body))
		if err != nil {
			log.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			log.Fatalf("ingest %s: HTTP %d", name, resp.StatusCode)
		}
	}
}

// estimate GETs /v1/estimate and returns the all-time estimate.
func estimate(base, name string) float64 {
	resp, err := http.Get(base + "/v1/estimate?store=" + name)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var est store.Estimate
	if err := jsonDecode(resp.Body, &est); err != nil {
		log.Fatal(err)
	}
	return est.AllTime
}

// snapshot GETs the store's envelope bytes.
func snapshot(base, name string) []byte {
	resp, err := http.Get(base + "/v1/snapshot?store=" + name)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	env, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatal(err)
	}
	return env
}

func jsonDecode(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	return dec.Decode(v)
}
