package service

import (
	"encoding/json"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	knw "repro"
	"repro/store"
)

// Single-node /v1/query and /v1/series tests. Counts sit in the
// sketch's exact small-count regime, so the set-algebra and series
// expectations are asserted exactly; the statistical guarantees are
// covered by the library's acceptance tests.

// qkeys renders a newline-delimited ingest body of prefixed keys.
func qkeys(prefix string, lo, hi int) string {
	var b strings.Builder
	for i := lo; i < hi; i++ {
		b.WriteString(prefix)
		b.WriteString("-")
		b.WriteByte('0' + byte(i/1000%10))
		b.WriteByte('0' + byte(i/100%10))
		b.WriteByte('0' + byte(i/10%10))
		b.WriteByte('0' + byte(i%10))
		b.WriteString("\n")
	}
	return b.String()
}

// ingestKeys POSTs keys and then reads the estimate as a drain
// barrier, so fake-clock tests attribute the write to the current
// window bucket before the clock moves.
func ingestKeys(t *testing.T, base, name, body string) {
	t.Helper()
	resp, out := post(t, base+"/v1/ingest?store="+name, "text/plain", []byte(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest %s: HTTP %d: %s", name, resp.StatusCode, out)
	}
	estimateOf(t, base, name)
}

func getQuery(t *testing.T, base, params string) (queryResponse, *http.Response, []byte) {
	t.Helper()
	resp, body := get(t, base+"/v1/query?"+params)
	var qr queryResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, &qr); err != nil {
			t.Fatalf("decoding query response: %v (%s)", err, body)
		}
	}
	return qr, resp, body
}

func TestQueryEndpoint(t *testing.T) {
	_, hs := newTestServer(t, testConfig(""))
	ingestKeys(t, hs.URL, "q/a", qkeys("k", 0, 40))
	ingestKeys(t, hs.URL, "q/b", qkeys("k", 20, 60))

	for _, params := range []string{
		"stores=q/a,q/b",
		"store=q/a&store=q/b", // repeated-param spelling
		"stores=q/a&store=q/b",
	} {
		qr, resp, body := getQuery(t, hs.URL, params)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: HTTP %d: %s", params, resp.StatusCode, body)
		}
		if qr.Mode != "shard" || qr.Scope != "all" {
			t.Errorf("%s: mode/scope = %s/%s, want shard/all", params, qr.Mode, qr.Scope)
		}
		if len(qr.Cardinalities) != 2 || qr.Cardinalities[0] != 40 || qr.Cardinalities[1] != 40 {
			t.Errorf("%s: cards = %v, want [40 40]", params, qr.Cardinalities)
		}
		if qr.Union != 60 || qr.Intersection != 20 {
			t.Errorf("%s: union/inter = %v/%v, want 60/20", params, qr.Union, qr.Intersection)
		}
		if qr.Jaccard != 20.0/60 {
			t.Errorf("%s: jaccard = %v, want %v", params, qr.Jaccard, 20.0/60)
		}
		if qr.Pair == nil {
			t.Fatalf("%s: pair stats missing for a two-store query", params)
		}
		if qr.Pair.DiffAB != 20 || qr.Pair.DiffBA != 20 || qr.Pair.SymmetricDiff != 40 {
			t.Errorf("%s: diffs = %+v, want 20/20/40", params, qr.Pair)
		}
		if qr.Pair.Hamming != nil {
			t.Errorf("%s: F0 sketches reported a Hamming distance", params)
		}
		if qr.Epsilon != 0.05 || qr.Terms != 3 {
			t.Errorf("%s: epsilon/terms = %v/%d, want 0.05/3", params, qr.Epsilon, qr.Terms)
		}
		// ε·(|A| + |B| + |A∪B|) = 0.05·140.
		if math.Abs(qr.IntersectionErrBound-7) > 1e-9 {
			t.Errorf("%s: err bound = %v, want 7", params, qr.IntersectionErrBound)
		}
		if qr.Nodes != 0 || qr.StalenessSeconds != nil {
			t.Errorf("%s: single-node answer carries cluster fields: %+v", params, qr)
		}
	}
}

// An L0 server answers the Hamming distance too.
func TestQueryHammingL0(t *testing.T) {
	cfg := testConfig("")
	cfg.Store.Kind = knw.KindL0
	_, hs := newTestServer(t, cfg)
	ingestKeys(t, hs.URL, "q/a", qkeys("k", 0, 40))
	ingestKeys(t, hs.URL, "q/b", qkeys("k", 20, 60))
	qr, resp, body := getQuery(t, hs.URL, "stores=q/a,q/b")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, body)
	}
	if qr.Pair == nil || qr.Pair.Hamming == nil {
		t.Fatalf("L0 query missing Hamming: %+v", qr.Pair)
	}
	// Insertion-only streams: Hamming = symmetric difference = 40.
	if *qr.Pair.Hamming != 40 {
		t.Errorf("hamming = %v, want 40", *qr.Pair.Hamming)
	}
}

func TestQueryThreeWay(t *testing.T) {
	_, hs := newTestServer(t, testConfig(""))
	ingestKeys(t, hs.URL, "q/a", qkeys("k", 0, 40))
	ingestKeys(t, hs.URL, "q/b", qkeys("k", 20, 60))
	ingestKeys(t, hs.URL, "q/c", qkeys("k", 30, 70))
	qr, resp, body := getQuery(t, hs.URL, "stores=q/a,q/b,q/c")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, body)
	}
	// Triple overlap [30,40); union [0,70); 2^3−1 subset terms.
	if qr.Union != 70 || qr.Intersection != 10 || qr.Terms != 7 {
		t.Errorf("union/inter/terms = %v/%v/%d, want 70/10/7", qr.Union, qr.Intersection, qr.Terms)
	}
	if qr.Pair != nil {
		t.Errorf("three-way query reported pair stats")
	}
}

func TestQueryErrors(t *testing.T) {
	_, hs := newTestServer(t, testConfig(""))
	ingestKeys(t, hs.URL, "q/a", qkeys("k", 0, 10))
	ingestKeys(t, hs.URL, "q/b", qkeys("k", 0, 10))
	many := "stores=" + strings.Join(strings.Fields("a b c d e f g h i"), ",")
	cases := []struct {
		params string
		status int
	}{
		{"stores=q/a", http.StatusBadRequest},                 // one store
		{"stores=", http.StatusBadRequest},                    // none
		{many, http.StatusBadRequest},                         // 9 > MaxSetQuery
		{"stores=q/a,q/a", http.StatusBadRequest},             // duplicate
		{"stores=q/a,q/b&scope=bogus", http.StatusBadRequest}, // bad scope
		{"stores=q/a,q/b&mode=bogus", http.StatusBadRequest},  // bad mode
		{"stores=q/a,q/b&mode=local", http.StatusBadRequest},  // no gossip here
		{"stores=q/a,q/b&mode=gather", http.StatusBadRequest}, // no cluster here
		{"stores=q/a,never/written", http.StatusNotFound},     // unknown store
		{"stores=q/a,bad name!", http.StatusBadRequest},       // invalid name
	}
	for _, tc := range cases {
		if _, resp, body := getQuery(t, hs.URL, tc.params); resp.StatusCode != tc.status {
			t.Errorf("%s: HTTP %d, want %d (%s)", tc.params, resp.StatusCode, tc.status, body)
		}
	}
	// /v1/series on an unwindowed server, and on a missing store.
	if resp, _ := get(t, hs.URL+"/v1/series?store=q/a"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("series on unwindowed store: HTTP %d, want 400", resp.StatusCode)
	}
}

// testClock is a mutex-guarded fake clock: handler goroutines read it
// through store.Config.Now while the test advances it between
// requests.
type testClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *testClock) get() time.Time  { c.mu.Lock(); defer c.mu.Unlock(); return c.now }
func (c *testClock) set(v time.Time) { c.mu.Lock(); defer c.mu.Unlock(); c.now = v }

func TestSeriesEndpoint(t *testing.T) {
	base := time.Unix(1_700_000_000, 0).Truncate(time.Minute)
	clock := &testClock{now: base}
	cfg := testConfig("")
	cfg.Store.Window = store.Window{Buckets: 4, Interval: time.Minute}
	cfg.Store.Now = clock.get
	_, hs := newTestServer(t, cfg)

	// t=0: 24 keys; t=1: 12; t=2: 48 new + 12 shared with t=0.
	ingestKeys(t, hs.URL, "t/m", qkeys("a", 0, 24))
	clock.set(base.Add(time.Minute))
	ingestKeys(t, hs.URL, "t/m", qkeys("b", 0, 12))
	clock.set(base.Add(2 * time.Minute))
	ingestKeys(t, hs.URL, "t/m", qkeys("c", 0, 48)+qkeys("a", 0, 12))

	getSeries := func(params string) (seriesResponse, *http.Response, []byte) {
		t.Helper()
		resp, body := get(t, hs.URL+"/v1/series?"+params)
		var sr seriesResponse
		if resp.StatusCode == http.StatusOK {
			if err := json.Unmarshal(body, &sr); err != nil {
				t.Fatalf("decoding series: %v (%s)", err, body)
			}
		}
		return sr, resp, body
	}

	sr, resp, body := getSeries("store=t/m")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, body)
	}
	if sr.Mode != "shard" || sr.Nodes != 0 {
		t.Errorf("mode/nodes = %s/%d, want shard/0", sr.Mode, sr.Nodes)
	}
	wantEsts := []float64{0, 24, 12, 60}
	if len(sr.Buckets) != len(wantEsts) {
		t.Fatalf("got %d buckets, want %d (%s)", len(sr.Buckets), len(wantEsts), body)
	}
	for i, want := range wantEsts {
		if sr.Buckets[i].Estimate != want {
			t.Errorf("bucket %d = %v, want exactly %v", i, sr.Buckets[i].Estimate, want)
		}
	}
	// Union over the span, not the 96 a per-bucket sum would read.
	if sr.Window != 84 || sr.Delta != 48 || sr.RatePerSec != 48.0/60 {
		t.Errorf("window/delta/rate = %v/%v/%v, want 84/48/0.8", sr.Window, sr.Delta, sr.RatePerSec)
	}

	// 90s rounds up to two buckets.
	sr, resp, body = getSeries("store=t/m&span=90s")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("span=90s: HTTP %d: %s", resp.StatusCode, body)
	}
	if len(sr.Buckets) != 2 || sr.Buckets[0].Estimate != 12 || sr.Buckets[1].Estimate != 60 || sr.Window != 72 {
		t.Errorf("span=90s: buckets/window = %v/%v, want [12 60]/72", sr.Buckets, sr.Window)
	}

	for _, tc := range []struct {
		params string
		status int
	}{
		{"store=t/m&span=bogus", http.StatusBadRequest},
		{"store=t/m&mode=local", http.StatusBadRequest},
		{"store=t/m&mode=gather", http.StatusBadRequest}, // single node
		{"store=t/m&mode=bogus", http.StatusBadRequest},
		{"store=never/written", http.StatusNotFound},
	} {
		if _, resp, body := getSeries(tc.params); resp.StatusCode != tc.status {
			t.Errorf("%s: HTTP %d, want %d (%s)", tc.params, resp.StatusCode, tc.status, body)
		}
	}

	// scope=window queries see only the live ring: expire everything,
	// re-ingest one store, and the windowed view diverges from all-time.
	ingestKeys(t, hs.URL, "t/n", qkeys("a", 0, 24))
	clock.set(base.Add(20 * time.Minute))
	ingestKeys(t, hs.URL, "t/n", qkeys("z", 0, 10))
	qr, resp, body := getQuery(t, hs.URL, "stores=t/m,t/n&scope=window")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("windowed query: HTTP %d: %s", resp.StatusCode, body)
	}
	if qr.Scope != "window" || qr.Cardinalities[0] != 0 || qr.Cardinalities[1] != 10 || qr.Intersection != 0 {
		t.Errorf("windowed query = %+v, want cards [0 10], inter 0", qr)
	}
	qr, _, _ = getQuery(t, hs.URL, "stores=t/m,t/n&scope=all")
	if qr.Cardinalities[0] != 84 || qr.Intersection != 24 {
		t.Errorf("all-time query = %+v, want card 84, inter 24", qr)
	}

	// scope=buckets snapshots serve the ring export: a record stream of
	// one ring-only record.
	resp, blob := get(t, hs.URL+"/v1/snapshot?store=t/n&scope=buckets")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("buckets snapshot: HTTP %d", resp.StatusCode)
	}
	st, err := store.DecodeStream(blob, store.StreamRing)
	if err != nil {
		t.Fatalf("decoding ring export: %v", err)
	}
	if ring := st.Records[0].Ring; st.Records[0].Name != "t/n" || ring.Interval != time.Minute || len(ring.Buckets) != 4 {
		t.Errorf("ring export = %q %v/%d buckets, want t/n 1m/4", st.Records[0].Name, ring.Interval, len(ring.Buckets))
	}
}
