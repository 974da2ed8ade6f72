// queryopt: cardinality estimation for query optimization — the
// paper's first listed application (Section 1, citing Selinger et al.:
// distinct-value counts drive "selecting a minimum-cost query plan",
// physical database design, and OLAP) — run end-to-end against a live
// knwd daemon that plays the role of the statistics catalog.
//
// The database streams each column's values into its own store over
// POST /v1/ingest while tables load. The optimizer costing
//
//	SELECT … FROM fact JOIN dim ON fact.k = dim.k
//
// then asks the daemon, not the tables:
//
//   - GET /v1/estimate?store=…        → per-column NDV (System R's
//     |F|·|D| / max(NDV(F.k), NDV(D.k)) join-size formula);
//   - GET /v1/query?stores=fact/k,dim/k → both NDVs plus the sketch
//     intersection |K_F ∩ K_D|. System R silently assumes key
//     containment (every key of one side joins); the intersection
//     measures the actual overlap, refining the estimate to
//     |F|·|D|·|K_F∩K_D| / (NDV(F.k)·NDV(D.k)) — which is what saves
//     the plan when only part of the key ranges ever meet.
//
// The demo loads a fact table whose keys only half-overlap the
// dimension's, compares System R vs the intersection-refined estimate
// against the exact join size, and picks the plan.
//
//	go run ./examples/queryopt
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"

	knw "repro"
	"repro/service"
	"repro/store"
)

const (
	eps       = 0.05
	factRows  = 300_000
	factKeys  = 60_000 // fact.k drawn uniformly from [0, factKeys)
	dimLo     = 30_000 // dim.k = [dimLo, dimLo+dimRows): unique PK,
	dimRows   = 60_000 // only half of it ever appears in fact
	regionLen = 12
)

func main() {
	srv, err := service.New(service.Config{Store: store.Config{
		Kind:    knw.KindF0,
		Options: []knw.Option{knw.WithEpsilon(eps), knw.WithSeed(3)},
	}})
	if err != nil {
		log.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	fmt.Println("== knwd up: the statistics catalog ==")

	// Load the tables, streaming each column into its store. Exact
	// truth is tracked locally only to score the estimates at the end —
	// a real system keeps no such state (that is the point).
	rng := rand.New(rand.NewSource(2026))
	factCount := make(map[int]int, factKeys)
	batch := make([]string, 0, 50_000)
	flush := func(name string) {
		if len(batch) > 0 {
			ingest(hs.URL, name, batch)
			batch = batch[:0]
		}
	}
	for i := 0; i < factRows; i++ {
		k := rng.Intn(factKeys)
		factCount[k]++
		batch = append(batch, fmt.Sprintf("k%d", k))
		if len(batch) == cap(batch) {
			flush("fact/k")
		}
	}
	flush("fact/k")
	for k := dimLo; k < dimLo+dimRows; k++ {
		batch = append(batch, fmt.Sprintf("k%d", k))
		if len(batch) == cap(batch) {
			flush("dim/k")
		}
	}
	flush("dim/k")
	for i := 0; i < 5_000; i++ {
		batch = append(batch, fmt.Sprintf("region-%d", rng.Intn(regionLen)))
	}
	flush("dim/region")
	fmt.Printf("loaded fact (%d rows) and dim (%d rows)\n\n", factRows, dimRows)

	// Exact values, for scoring only.
	exactNDVf := len(factCount)
	exactJoin := 0
	for k := dimLo; k < dimLo+dimRows; k++ {
		exactJoin += factCount[k] // dim.k is unique
	}

	// One query gives the optimizer everything about the join key pair.
	q := getQuery(hs.URL, "fact/k", "dim/k")
	ndvF, ndvD := q.Cardinalities[0], q.Cardinalities[1]
	fmt.Printf("catalog: NDV(fact.k) %.0f (exact %d), NDV(dim.k) %.0f (exact %d)\n",
		ndvF, exactNDVf, ndvD, dimRows)
	fmt.Printf("         |K_F ∩ K_D| %.0f (exact %d), containment %.0f%%\n\n",
		q.Intersection, dimRows/2, 100*q.Intersection/ndvD)

	// System R vs the intersection-refined estimate.
	systemR := float64(factRows) * float64(dimRows) / maxf(ndvF, ndvD)
	refined := float64(factRows) * float64(dimRows) * q.Intersection / (ndvF * ndvD)
	fmt.Printf("%-34s %12s %10s\n", "join-size estimate", "rows", "error")
	for _, row := range []struct {
		name string
		est  float64
	}{
		{"System R  |F|·|D|/max(NDV)", systemR},
		{"refined   ×|K_F∩K_D|/(NDV·NDV)", refined},
	} {
		fmt.Printf("%-34s %12.0f %9.1f%%\n", row.name, row.est,
			100*(row.est-float64(exactJoin))/float64(exactJoin))
	}
	fmt.Printf("%-34s %12d\n\n", "exact", exactJoin)
	if relErr := (refined - float64(exactJoin)) / float64(exactJoin); relErr > 0.25 || relErr < -0.25 {
		log.Fatalf("refined join estimate off by %.0f%% — outside any useful costing band", 100*relErr)
	}

	// The region predicate's selectivity from the low-NDV column, where
	// the sketch's exact small-count path answers precisely.
	ndvRegion := getEstimate(hs.URL, "dim/region")
	fmt.Printf("region predicate selectivity: 1/NDV(dim.region) = 1/%.0f = %.4f (true %.4f)\n",
		ndvRegion, 1/ndvRegion, 1.0/regionLen)

	plan := "dim ⋈ fact (build on dim)"
	if refined < float64(factRows) {
		plan = "fact ⋈ dim (probe the filtered dim)"
	}
	fmt.Printf("chosen plan: %s\n", plan)
	fmt.Println("\n=> catalog state: a few KiB per column, answering NDV, overlap, and join size in two GETs")
}

func ingest(base, name string, keys []string) {
	body := strings.NewReader(strings.Join(keys, "\n") + "\n")
	resp, err := http.Post(base+"/v1/ingest?store="+name, "text/plain", body)
	if err != nil {
		log.Fatal(err)
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("ingest %s: HTTP %d: %s", name, resp.StatusCode, out)
	}
}

type queryWire struct {
	Cardinalities []float64 `json:"cardinalities"`
	Union         float64   `json:"union"`
	Intersection  float64   `json:"intersection"`
	Jaccard       float64   `json:"jaccard"`
}

func getQuery(base, a, b string) queryWire {
	var qw queryWire
	getJSON(base+"/v1/query?stores="+a+","+b, &qw)
	return qw
}

func getEstimate(base, name string) float64 {
	var est struct {
		AllTime float64 `json:"all_time"`
	}
	getJSON(base+"/v1/estimate?store="+name, &est)
	return est.AllTime
}

func getJSON(url string, v any) {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("GET %s: HTTP %d: %s", url, resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, v); err != nil {
		log.Fatalf("GET %s: %v", url, err)
	}
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
