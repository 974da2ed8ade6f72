package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	knw "repro"
	"repro/internal/httpx"
	"repro/store"
)

// scrape fetches /metrics and returns every sample keyed by its full
// series name (labels included).
func scrape(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, body := get(t, base+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("/metrics Content-Type = %q", ct)
	}
	return parseExposition(t, string(body))
}

var sampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*(?:\{[^}]*\})?) (-?[0-9.eE+-]+|[+-]Inf|NaN)$`)

func parseExposition(t *testing.T, text string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("exposition line does not parse: %q", line)
		}
		var v float64
		if _, err := fmt.Sscanf(m[2], "%g", &v); err != nil {
			t.Fatalf("exposition value %q: %v", m[2], err)
		}
		out[m[1]] = v
	}
	return out
}

// TestMetricsCountersAdvance drives ingest (both body forms), estimate,
// and merge, and checks the corresponding counters move.
func TestMetricsCountersAdvance(t *testing.T) {
	srv, hs := newTestServer(t, testConfig(""))
	_ = srv

	before := scrape(t, hs.URL)
	if v := before[`knwd_http_requests_total{route="/v1/ingest",code="200"}`]; v != 0 {
		t.Fatalf("fresh server has nonzero ingest requests: %v", v)
	}

	resp, body := post(t, hs.URL+"/v1/ingest?store=m/a", "text/plain", []byte("k1\nk2\nk3\n"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: HTTP %d: %s", resp.StatusCode, body)
	}
	resp, body = post(t, hs.URL+"/v1/ingest", "application/json",
		[]byte(`{"store":"m/a","keys":["k4","k5"]}`))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("json ingest: HTTP %d: %s", resp.StatusCode, body)
	}
	estimateOf(t, hs.URL, "m/a")

	// Merge a snapshot of m/a into m/b.
	resp, env := get(t, hs.URL+"/v1/snapshot?store=m/a")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: HTTP %d", resp.StatusCode)
	}
	resp, body = post(t, hs.URL+"/v1/merge?store=m/b", "application/octet-stream", env)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("merge: HTTP %d: %s", resp.StatusCode, body)
	}

	after := scrape(t, hs.URL)
	wantMoved := map[string]float64{
		`knwd_http_requests_total{route="/v1/ingest",code="200"}`:   2,
		`knwd_http_requests_total{route="/v1/estimate",code="200"}`: 1,
		`knwd_http_requests_total{route="/v1/merge",code="200"}`:    1,
		`knwd_http_requests_total{route="/v1/snapshot",code="200"}`: 1,
		`knwd_ingest_keys_total`:                                    5,
		`knwd_store_ingested_keys_total`:                            5,
		`knwd_store_entries`:                                        2, // m/a + m/b (created by merge)
	}
	for name, want := range wantMoved {
		if got := after[name]; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if after[`knwd_ingest_bytes_total`] <= 0 {
		t.Error("knwd_ingest_bytes_total did not advance")
	}
	if after[`knwd_snapshot_bytes_total`] != float64(len(env)) {
		t.Errorf("knwd_snapshot_bytes_total = %v, want %d",
			after[`knwd_snapshot_bytes_total`], len(env))
	}
	lat := `knwd_http_request_seconds_count{route="/v1/ingest"}`
	if after[lat] != 2 {
		t.Errorf("%s = %v, want 2", lat, after[lat])
	}
}

// errAfterReader yields its payload in tiny reads, then fails.
type errAfterReader struct {
	data []byte
	err  error
}

func (r *errAfterReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, r.err
	}
	n := copy(p[:min(3, len(p))], r.data)
	r.data = r.data[n:]
	return n, nil
}

// TestStreamingIngestSplitReads delivers a newline body a few bytes
// per Read — keys split across read boundaries — and checks every key
// lands exactly once.
func TestStreamingIngestSplitReads(t *testing.T) {
	srv, err := New(testConfig(""))
	if err != nil {
		t.Fatal(err)
	}
	var payload bytes.Buffer
	const n = 100
	for i := 0; i < n; i++ {
		fmt.Fprintf(&payload, "key-%03d\r\n", i)
	}
	payload.WriteString("final-unterminated")
	req := httptest.NewRequest("POST", "/v1/ingest?store=split/a",
		&errAfterReader{data: payload.Bytes(), err: io.EOF})
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("HTTP %d: %s", rec.Code, rec.Body)
	}
	var out struct {
		Ingested int `json:"ingested"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Ingested != n+1 {
		t.Fatalf("ingested = %d, want %d", out.Ingested, n+1)
	}
	est, err := srv.Store().Estimate("split/a")
	if err != nil {
		t.Fatal(err)
	}
	if est.AllTime < 0.9*float64(n+1) || est.AllTime > 1.1*float64(n+1) {
		t.Fatalf("estimate = %v, want ≈ %d", est.AllTime, n+1)
	}
}

// TestStreamingIngestManyBatches pushes enough keys through one body
// to force several batch flushes and a buffer-boundary crossing.
func TestStreamingIngestManyBatches(t *testing.T) {
	srv, hs := newTestServer(t, testConfig(""))
	var payload bytes.Buffer
	const n = 3*store.BatchKeys + 17
	for i := 0; i < n; i++ {
		fmt.Fprintf(&payload, "stream-key-%07d\n", i)
	}
	resp, body := post(t, hs.URL+"/v1/ingest?store=big/a", "text/plain", payload.Bytes())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Ingested int `json:"ingested"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Ingested != n {
		t.Fatalf("ingested = %d, want %d", out.Ingested, n)
	}
	est := estimateOf(t, hs.URL, "big/a")
	if relErr := est.AllTime/float64(n) - 1; relErr < -0.2 || relErr > 0.2 {
		t.Fatalf("estimate %v too far from %d", est.AllTime, n)
	}
	if srv.met.ingestKeys.Value() != n {
		t.Fatalf("ingest keys counter = %d, want %d", srv.met.ingestKeys.Value(), n)
	}
}

// TestIngestMidStreamReadError: a body that fails partway through the
// stream must produce a JSON-bodied 400 (reporting partial progress),
// not an empty-bodied 500.
func TestIngestMidStreamReadError(t *testing.T) {
	srv, err := New(testConfig(""))
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", "/v1/ingest?store=err/a",
		&errAfterReader{data: []byte("a\nb\nc\n"), err: errors.New("connection reset by peer")})
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("HTTP %d, want 400; body: %s", rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("error Content-Type = %q, want application/json", ct)
	}
	var out struct {
		Error    string `json:"error"`
		Ingested *int   `json:"ingested"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("error body is not JSON: %q", rec.Body)
	}
	if out.Error == "" || !strings.Contains(out.Error, "connection reset") {
		t.Fatalf("error body %q does not carry the read failure", out.Error)
	}
	if out.Ingested == nil {
		t.Fatal("error body missing partial-progress ingested count")
	}
	// JSON mode: same mapping when the document stream dies mid-read.
	req = httptest.NewRequest("POST", "/v1/ingest?store=err/a",
		&errAfterReader{data: []byte(`{"keys":["x"]}{"keys":`), err: errors.New("unexpected EOF")})
	req.Header.Set("Content-Type", "application/json")
	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("JSON mid-stream: HTTP %d, want 400; body: %s", rec.Code, rec.Body)
	}
	if !json.Valid(rec.Body.Bytes()) {
		t.Fatalf("JSON mid-stream error body is not JSON: %q", rec.Body)
	}
}

// TestIngestNDJSONRoutesPerStore: one connection, three documents, two
// stores — the JSON stream routes each batch to its own store.
func TestIngestNDJSONRoutesPerStore(t *testing.T) {
	srv, hs := newTestServer(t, testConfig(""))
	body := `{"store":"t1/users","keys":["a","b"]}
{"store":"t2/users","keys":["c"]}
{"store":"t1/users","keys":["d","e","f"]}`
	resp, out := post(t, hs.URL+"/v1/ingest", "application/json", []byte(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, out)
	}
	var rep struct {
		Ingested int `json:"ingested"`
		Batches  int `json:"batches"`
	}
	if err := json.Unmarshal(out, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Ingested != 6 || rep.Batches != 3 {
		t.Fatalf("reply = %+v, want ingested 6 in 3 batches", rep)
	}
	if got := srv.Store().Names(); len(got) != 2 {
		t.Fatalf("stores = %v, want t1/users + t2/users", got)
	}
	e1, _ := srv.Store().Estimate("t1/users")
	e2, _ := srv.Store().Estimate("t2/users")
	if e1.AllTime != 5 || e2.AllTime != 1 {
		t.Fatalf("estimates = %v / %v, want 5 / 1", e1.AllTime, e2.AllTime)
	}
}

// TestIngestEmptyBodyCreatesStore: an empty body — newline or JSON —
// still creates the ?store= target (pre-create semantics), and a
// missing name stays 400.
func TestIngestEmptyBodyCreatesStore(t *testing.T) {
	srv, hs := newTestServer(t, testConfig(""))
	for _, ct := range []string{"text/plain", "application/json"} {
		name := "empty/" + ct[:4]
		resp, body := post(t, hs.URL+"/v1/ingest?store="+name, ct, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s empty body: HTTP %d: %s", ct, resp.StatusCode, body)
		}
		if _, err := srv.Store().Estimate(name); err != nil {
			t.Fatalf("%s empty body did not create store: %v", ct, err)
		}
		resp, _ = post(t, hs.URL+"/v1/ingest", ct, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s empty body without store name: HTTP %d, want 400", ct, resp.StatusCode)
		}
	}
}

// TestIngestOversizeKeyRejected: a single line longer than httpx.MaxKeyBytes
// fails with 400 instead of growing the scan buffer without bound.
func TestIngestOversizeKeyRejected(t *testing.T) {
	_, hs := newTestServer(t, testConfig(""))
	huge := bytes.Repeat([]byte{'x'}, httpx.MaxKeyBytes+16)
	resp, body := post(t, hs.URL+"/v1/ingest?store=huge/a", "text/plain", huge)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("HTTP %d, want 400; body: %s", resp.StatusCode, body)
	}
	if !bytes.Contains(body, []byte("exceeds")) {
		t.Fatalf("error body %q does not mention the size limit", body)
	}
}

// TestEstimateContentType: success and error responses both carry
// application/json.
func TestEstimateContentType(t *testing.T) {
	_, hs := newTestServer(t, testConfig(""))
	post(t, hs.URL+"/v1/ingest?store=ct/a", "text/plain", []byte("one\n"))
	resp, _ := get(t, hs.URL+"/v1/estimate?store=ct/a")
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("estimate Content-Type = %q, want application/json", ct)
	}
	resp, _ = get(t, hs.URL+"/v1/estimate?store=ct/missing")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing store: HTTP %d, want 404", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("404 Content-Type = %q, want application/json", ct)
	}
}

// TestOnListenReadyHook: Run reports the bound address through
// OnListen before serving — the contract behind knwd -ready-file.
func TestOnListenReadyHook(t *testing.T) {
	cfg := testConfig("")
	ready := make(chan net.Addr, 1)
	cfg.OnListen = func(a net.Addr) { ready <- a }
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Run(ctx, "127.0.0.1:0") }()
	var addr net.Addr
	select {
	case addr = <-ready:
	case <-time.After(5 * time.Second):
		t.Fatal("OnListen never fired")
	}
	resp, err := http.Get("http://" + addr.String() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after OnListen: HTTP %d", resp.StatusCode)
	}
	cancel()
	if err := <-done; err != nil && !errors.Is(err, http.ErrServerClosed) {
		t.Fatal(err)
	}
}

// TestMetricsLifecycleE2E walks the whole daemon lifecycle — ingest
// both body forms, estimate, snapshot, merge, checkpoint — and checks
// the scrape reflects every stage. Heavier than the unit tests, so
// gated behind -short like the other e2e suites.
func TestMetricsLifecycleE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("metrics e2e skipped in -short mode")
	}
	cfg := Config{
		Store: store.Config{
			Kind:    knw.KindF0,
			Options: []knw.Option{knw.WithEpsilon(0.05), knw.WithSeed(7)},
			Window:  store.Window{Buckets: 4, Interval: 50 * time.Millisecond},
		},
		CheckpointDir: t.TempDir(),
	}
	srv, hs := newTestServer(t, cfg)

	const keysPerTenant = 2000
	tenants := []string{"t1/users", "t2/users", "t3/users"}
	for _, tn := range tenants {
		var payload bytes.Buffer
		for i := 0; i < keysPerTenant; i++ {
			fmt.Fprintf(&payload, "%s-key-%d\n", tn, i)
		}
		resp, body := post(t, hs.URL+"/v1/ingest?store="+tn, "text/plain", payload.Bytes())
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest %s: HTTP %d: %s", tn, resp.StatusCode, body)
		}
		estimateOf(t, hs.URL, tn)
	}
	// Let at least one window interval elapse so an estimate rotates.
	time.Sleep(60 * time.Millisecond)
	estimateOf(t, hs.URL, tenants[0])

	// Merge t1 into a fresh aggregate store.
	_, env := get(t, hs.URL+"/v1/snapshot?store="+tenants[0])
	resp, body := post(t, hs.URL+"/v1/merge?store=agg/users", "application/octet-stream", env)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("merge: HTTP %d: %s", resp.StatusCode, body)
	}
	if err := srv.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	m := scrape(t, hs.URL)
	checks := []struct {
		name string
		ok   func(v float64) bool
		desc string
	}{
		{`knwd_ingest_keys_total`, func(v float64) bool { return v == 3*keysPerTenant }, "all keys counted"},
		{`knwd_store_entries`, func(v float64) bool { return v == 4 }, "3 tenants + aggregate"},
		{`knwd_http_requests_total{route="/v1/ingest",code="200"}`, func(v float64) bool { return v == 3 }, "ingest requests"},
		{`knwd_http_requests_total{route="/v1/merge",code="200"}`, func(v float64) bool { return v == 1 }, "merge requests"},
		{`knwd_http_request_seconds_count{route="/v1/estimate"}`, func(v float64) bool { return v == 4 }, "estimate latency observations"},
		{`knwd_store_window_rotations_total`, func(v float64) bool { return v >= 1 }, "a rotation happened"},
		{`knwd_store_checkpoints_total`, func(v float64) bool { return v == 1 }, "checkpoint counted"},
		{`knwd_store_checkpoint_bytes`, func(v float64) bool { return v > 0 }, "checkpoint size recorded"},
		{`knwd_store_checkpoint_seconds_count`, func(v float64) bool { return v == 1 }, "checkpoint duration observed"},
		{`knwd_store_checkpoint_age_seconds`, func(v float64) bool { return v >= 0 && v < 60 }, "age since last checkpoint"},
	}
	for _, c := range checks {
		v, present := m[c.name]
		if !present {
			t.Errorf("scrape missing %s (%s)", c.name, c.desc)
			continue
		}
		if !c.ok(v) {
			t.Errorf("%s = %v: want %s", c.name, v, c.desc)
		}
	}
}
