// netmon: network monitoring with distinct-element sketches — the
// paper's motivating application (Section 1: routers tracking distinct
// destination IPs and source-destination pairs, DDoS and port-scan
// detection, Estan et al.'s Code Red measurement) — run end-to-end
// against a live knwd daemon instead of in-process sketches.
//
// Two edge routers export their packet streams into one in-process
// knwd over plain HTTP ingest, one windowed store per router. The
// operator side then uses only the daemon's query API:
//
//   - GET /v1/series turns each store's window ring into a
//     per-interval distinct-source time-series with rate-of-change
//     fields — the cardinality-spike alarm (a spoofed-source flood
//     multiplies distinct sources while byte counters barely move).
//   - GET /v1/query runs set algebra across the two routers' stores:
//     during the flood A−B explodes while B−A stays flat, localizing
//     the attack to router A's ingress without comparing packet logs.
//
// The daemon's clock is injected so six traffic intervals replay in
// milliseconds; a real deployment runs knwd -window-buckets 8
// -window-interval 1m and issues the same two GETs.
//
//	go run ./examples/netmon
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
	"sync"
	"time"

	knw "repro"
	"repro/service"
	"repro/store"
)

const (
	interval  = time.Minute
	buckets   = 8
	eps       = 0.05
	benignIPs = 2000 // steady-state source universe shared by both routers
	floodIPs  = 15000
)

// fakeClock drives the daemon's window rotation deterministically.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time { c.mu.Lock(); defer c.mu.Unlock(); return c.t }

func (c *fakeClock) advance(d time.Duration) { c.mu.Lock(); c.t = c.t.Add(d); c.mu.Unlock() }

func main() {
	clock := &fakeClock{t: time.Unix(1_700_000_000, 0).Truncate(interval)}
	srv, err := service.New(service.Config{Store: store.Config{
		Kind:    knw.KindF0,
		Options: []knw.Option{knw.WithEpsilon(eps), knw.WithSeed(7)},
		Window:  store.Window{Buckets: buckets, Interval: interval},
		Now:     clock.now,
	}})
	if err != nil {
		log.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	fmt.Printf("== knwd up: windowed store, %d × %s ring ==\n\n", buckets, interval)

	// Six traffic intervals: five benign, then a spoofed-source DDoS
	// flood hits router A in the live interval. Benign traffic re-sees
	// the same ~2k sources (hot flows — the regime distinct counting
	// exists for); the flood is all fresh spoofed addresses.
	rng := rand.New(rand.NewSource(1))
	benign := func(draws int) []string {
		ks := make([]string, draws)
		for i := range ks {
			ks[i] = fmt.Sprintf("ip-%d", rng.Intn(benignIPs))
		}
		return ks
	}
	for t := 0; t < 6; t++ {
		aKeys := benign(6000)
		bKeys := benign(6000)
		if t == 5 { // the attack interval
			for i := 0; i < floodIPs; i++ {
				aKeys = append(aKeys, fmt.Sprintf("spoof-%d", i))
			}
		}
		ingest(hs.URL, "rtrA/src", aKeys)
		ingest(hs.URL, "rtrB/src", bKeys)
		if t < 5 {
			clock.advance(interval)
		}
	}

	// Operator query #1: the per-interval series with the spike alarm.
	// Baseline = mean of the earlier calm buckets; an interval at 3×
	// baseline trips the alarm.
	ser := getSeries(hs.URL, "rtrA/src", "6m")
	fmt.Printf("router A distinct sources per %s interval (span %s):\n", ser.Interval, ser.Span)
	var base float64
	calm := 0
	for i, b := range ser.Buckets {
		mark := ""
		if calm > 0 && b.Estimate > 3*base/float64(calm) {
			mark = "  <-- ALERT: cardinality spike (DDoS signature)"
		} else {
			base += b.Estimate
			calm++
		}
		fmt.Printf("  t+%dm %8.0f sources%s\n", i, b.Estimate, mark)
	}
	fmt.Printf("  span union %.0f, delta %+.0f, rate %+.1f sources/s\n\n",
		ser.Window, ser.Delta, ser.RatePerSec)
	live := ser.Buckets[len(ser.Buckets)-1].Estimate
	if live < 3*benignIPs {
		log.Fatalf("netmon: flood interval reads %.0f distinct sources, expected a spike well above %d", live, benignIPs)
	}

	// Operator query #2: set algebra across the two routers. The flood
	// sources live only in A's view, so A−B explodes while B−A stays
	// near zero and Jaccard collapses from ~1 to ~|B|/|A∪B|.
	q := getQuery(hs.URL, "rtrA/src", "rtrB/src")
	fmt.Printf("cross-router set query (scope=all):\n")
	fmt.Printf("  |A| %.0f  |B| %.0f  |A∪B| %.0f  |A∩B| %.0f  J %.3f\n",
		q.Cardinalities[0], q.Cardinalities[1], q.Union, q.Intersection, q.Jaccard)
	fmt.Printf("  only at router A: %.0f   only at router B: %.0f\n",
		q.Pair.DiffAB, q.Pair.DiffBA)
	if q.Pair.DiffAB < 0.8*floodIPs {
		log.Fatalf("netmon: A−B = %.0f, expected ≈ %d spoofed sources localized to A", q.Pair.DiffAB, floodIPs)
	}
	fmt.Printf("  => the source explosion is localized to router A's ingress\n")
}

// ingest POSTs newline keys and reads the estimate back as a drain
// barrier, so the injected clock cannot leave the interval before the
// write is attributed to its bucket.
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
	resp, err = http.Get(base + "/v1/estimate?store=" + name)
	if err != nil {
		log.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

type seriesWire struct {
	Interval string `json:"interval"`
	Span     string `json:"span"`
	Buckets  []struct {
		Estimate float64 `json:"estimate"`
	} `json:"buckets"`
	Window     float64 `json:"window"`
	Delta      float64 `json:"delta"`
	RatePerSec float64 `json:"rate_per_sec"`
}

func getSeries(base, name, span string) seriesWire {
	var sw seriesWire
	getJSON(base+"/v1/series?store="+name+"&span="+span, &sw)
	return sw
}

type queryWire struct {
	Cardinalities []float64 `json:"cardinalities"`
	Union         float64   `json:"union"`
	Intersection  float64   `json:"intersection"`
	Jaccard       float64   `json:"jaccard"`
	Pair          struct {
		DiffAB float64 `json:"diff_a_minus_b"`
		DiffBA float64 `json:"diff_b_minus_a"`
	} `json:"pair"`
}

func getQuery(base, a, b string) queryWire {
	var qw queryWire
	getJSON(base+"/v1/query?stores="+a+","+b, &qw)
	return qw
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
