package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
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
	"repro/internal/httpx"
	"repro/store"
)

func testConfig(dir string) Config {
	return Config{
		Store: store.Config{
			Kind:    knw.KindF0,
			Options: []knw.Option{knw.WithEpsilon(0.05), knw.WithSeed(1)},
		},
		CheckpointDir: dir,
	}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return srv, hs
}

func post(t *testing.T, url, contentType string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func estimateOf(t *testing.T, base, name string) store.Estimate {
	t.Helper()
	resp, body := get(t, base+"/v1/estimate?store="+name)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("estimate %s: HTTP %d: %s", name, resp.StatusCode, body)
	}
	var est store.Estimate
	if err := json.Unmarshal(body, &est); err != nil {
		t.Fatal(err)
	}
	return est
}

func keyBatch(prefix string, lo, hi int) []string {
	out := make([]string, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, fmt.Sprintf("%s-%d", prefix, i))
	}
	return out
}

// TestServiceEndToEnd is the full daemon lifecycle: 4 tenants ingest
// batched keys over HTTP (both body formats), estimates land within
// the sketch's configured error bound, and a kill → restart from
// checkpoint serves byte-identical estimates and snapshots. Long-ish,
// so gated behind -short like the other heavy suites.
func TestServiceEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end service test skipped in -short mode")
	}
	dir := t.TempDir()
	srv, hs := newTestServer(t, testConfig(dir))

	// ε = 0.05 per-copy standard error, amplified by median-of-copies:
	// 4σ keeps the test deterministic in practice.
	const tol = 0.20
	tenants := map[string]int{
		"acme/users":     20000,
		"globex/users":   8000,
		"initech/users":  2500,
		"umbrella/users": 600,
	}
	for name, n := range tenants {
		for lo := 0; lo < n; lo += 1000 {
			hi := min(lo+1000, n)
			batch := keyBatch(name, lo, hi)
			if lo%2000 == 0 {
				// JSON form, store name in the body.
				body, _ := json.Marshal(httpx.IngestDoc{Store: name, Keys: batch})
				resp, out := post(t, hs.URL+"/v1/ingest", "application/json", body)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("JSON ingest: HTTP %d: %s", resp.StatusCode, out)
				}
			} else {
				// Newline form, store name in the query.
				resp, out := post(t, hs.URL+"/v1/ingest?store="+name, "text/plain",
					[]byte(strings.Join(batch, "\n")+"\n"))
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("newline ingest: HTTP %d: %s", resp.StatusCode, out)
				}
			}
		}
		// Re-ingest a prefix to prove distinct counting, not counting.
		body, _ := json.Marshal(httpx.IngestDoc{Store: name, Keys: keyBatch(name, 0, min(500, n))})
		post(t, hs.URL+"/v1/ingest", "application/json", body)
	}

	before := map[string]store.Estimate{}
	for name, n := range tenants {
		est := estimateOf(t, hs.URL, name)
		if math.Abs(est.AllTime-float64(n)) > tol*float64(n) {
			t.Fatalf("%s: estimate %.0f, want %d ± %.0f%%", name, est.AllTime, n, tol*100)
		}
		before[name] = est
	}

	// Stores listing sees all four tenants.
	resp, body := get(t, hs.URL+"/v1/stores")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "acme/users") {
		t.Fatalf("stores: HTTP %d: %s", resp.StatusCode, body)
	}

	snaps := map[string][]byte{}
	for name := range tenants {
		_, snaps[name] = get(t, hs.URL+"/v1/snapshot?store="+name)
	}

	// "Kill": final checkpoint, drop the server. "Restart": a fresh
	// Server over the same directory.
	if err := srv.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	hs.Close()
	_, hs2 := newTestServer(t, testConfig(dir))
	for name := range tenants {
		est := estimateOf(t, hs2.URL, name)
		if est != before[name] {
			t.Fatalf("%s: restored estimate %+v != pre-restart %+v", name, est, before[name])
		}
		_, snap := get(t, hs2.URL+"/v1/snapshot?store="+name)
		if !bytes.Equal(snap, snaps[name]) {
			t.Fatalf("%s: restored snapshot differs from pre-restart bytes", name)
		}
	}
}

// TestServiceWindowedEstimate drives a windowed store through bucket
// boundaries with a fake clock and checks the last-window cardinality
// lands within the sketch's error bound.
func TestServiceWindowedEstimate(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	cfg := testConfig("")
	cfg.Store.Window = store.Window{Buckets: 3, Interval: time.Minute}
	cfg.Store.Now = func() time.Time { return now }
	_, hs := newTestServer(t, cfg)

	ingest := func(lo, hi int) {
		body, _ := json.Marshal(httpx.IngestDoc{Store: "t/m", Keys: keyBatch("w", lo, hi)})
		resp, out := post(t, hs.URL+"/v1/ingest", "application/json", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest: HTTP %d: %s", resp.StatusCode, out)
		}
	}
	ingest(0, 2000)
	now = now.Add(time.Minute)
	ingest(1000, 3000) // 1000 overlap with the previous bucket

	est := estimateOf(t, hs.URL, "t/m")
	if !est.Windowed {
		t.Fatal("estimate not windowed")
	}
	const tol = 0.20
	if math.Abs(est.Window-3000) > tol*3000 {
		t.Fatalf("window estimate %.0f, want 3000 ± %.0f%%", est.Window, tol*100)
	}
	if est.WindowSpan != "3m0s" {
		t.Fatalf("window span %q, want 3m0s", est.WindowSpan)
	}

	// Expire the ring: the window drains, the total does not.
	now = now.Add(time.Hour)
	est = estimateOf(t, hs.URL, "t/m")
	if est.Window != 0 {
		t.Fatalf("window after expiry %.0f, want 0", est.Window)
	}
	if math.Abs(est.AllTime-3000) > tol*3000 {
		t.Fatalf("all-time after expiry %.0f, want 3000 ± %.0f%%", est.AllTime, tol*100)
	}
}

// TestMergeEndpoint checks cross-node aggregation over HTTP: two
// same-seed nodes exchange a snapshot envelope and the receiver
// reports the union.
func TestMergeEndpoint(t *testing.T) {
	_, hsA := newTestServer(t, testConfig(""))
	_, hsB := newTestServer(t, testConfig(""))

	bodyA, _ := json.Marshal(httpx.IngestDoc{Store: "t/m", Keys: keyBatch("k", 0, 3000)})
	post(t, hsA.URL+"/v1/ingest", "application/json", bodyA)
	bodyB, _ := json.Marshal(httpx.IngestDoc{Store: "t/m", Keys: keyBatch("k", 2000, 5000)})
	post(t, hsB.URL+"/v1/ingest", "application/json", bodyB)

	_, env := get(t, hsA.URL+"/v1/snapshot?store=t/m")
	resp, out := post(t, hsB.URL+"/v1/merge?store=t/m", "application/octet-stream", env)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("merge: HTTP %d: %s", resp.StatusCode, out)
	}
	est := estimateOf(t, hsB.URL, "t/m")
	if math.Abs(est.AllTime-5000) > 0.2*5000 {
		t.Fatalf("merged union %.0f, want 5000 ± 20%%", est.AllTime)
	}

	// PUT /v1/snapshot replaces B's other store with A's state.
	resp, out = putBytes(t, hsB.URL+"/v1/snapshot?store=copy/m", env)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot PUT: HTTP %d: %s", resp.StatusCode, out)
	}
	est = estimateOf(t, hsB.URL, "copy/m")
	if math.Abs(est.AllTime-3000) > 0.2*3000 {
		t.Fatalf("restored copy %.0f, want 3000 ± 20%%", est.AllTime)
	}
}

// TestHTTPErrorMapping is the regression suite for the status-code
// contract: mismatched envelopes are 409 (typed ErrIncompatible
// underneath), unknown stores 404, corrupt payloads 400 — and none of
// them panic the daemon.
func TestHTTPErrorMapping(t *testing.T) {
	srv, hs := newTestServer(t, testConfig(""))
	body, _ := json.Marshal(httpx.IngestDoc{Store: "t/m", Keys: keyBatch("k", 0, 50)})
	post(t, hs.URL+"/v1/ingest", "application/json", body)

	// 409: wrong kind, wrong options, wrong seed.
	wrongKind, _ := knw.New(knw.KindL0, knw.WithEpsilon(0.05), knw.WithSeed(1))
	envKind, _ := wrongKind.(*knw.L0).MarshalBinary()
	wrongSeed := knw.NewF0(knw.WithEpsilon(0.05), knw.WithSeed(9))
	envSeed, _ := wrongSeed.MarshalBinary()
	for what, env := range map[string][]byte{"kind": envKind, "seed": envSeed} {
		resp, out := post(t, hs.URL+"/v1/merge?store=t/m", "application/octet-stream", env)
		if resp.StatusCode != http.StatusConflict {
			t.Fatalf("merge %s mismatch: HTTP %d, want 409 (%s)", what, resp.StatusCode, out)
		}
		resp, out = putBytes(t, hs.URL+"/v1/snapshot?store=t/m", env)
		if resp.StatusCode != http.StatusConflict {
			t.Fatalf("restore %s mismatch: HTTP %d, want 409 (%s)", what, resp.StatusCode, out)
		}
	}
	// The typed error is what drives the mapping.
	if err := srv.Store().Merge("t/m", envSeed); !errors.Is(err, knw.ErrIncompatible) {
		t.Fatalf("store error not typed: %v", err)
	}

	// 400: corrupt envelope.
	resp, _ := post(t, hs.URL+"/v1/merge?store=t/m", "application/octet-stream", []byte("garbage"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt merge: HTTP %d, want 400", resp.StatusCode)
	}

	// 404: estimate/snapshot of a never-written store.
	resp, _ = get(t, hs.URL+"/v1/estimate?store=nope/m")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown estimate: HTTP %d, want 404", resp.StatusCode)
	}
	resp, _ = get(t, hs.URL+"/v1/snapshot?store=nope/m")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown snapshot: HTTP %d, want 404", resp.StatusCode)
	}

	// 400: bad store names.
	resp, _ = post(t, hs.URL+"/v1/ingest?store=", "text/plain", []byte("a\nb"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty name: HTTP %d, want 400", resp.StatusCode)
	}

	// The sketch behind t/m is untouched by all of the above.
	est := estimateOf(t, hs.URL, "t/m")
	if math.Abs(est.AllTime-50) > 15 {
		t.Fatalf("estimate disturbed by rejected requests: %.1f", est.AllTime)
	}
}

// TestRunGracefulShutdown exercises the real listener path: Run serves
// until the context is cancelled, then writes a final checkpoint.
func TestRunGracefulShutdown(t *testing.T) {
	dir := t.TempDir()
	srv, err := New(testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Store().Ingest("t/m", keyBatch("k", 0, 100)); err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.serve(ctx, ln) }()

	base := "http://" + ln.Addr().String()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never became healthy: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			t.Fatalf("serve returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("shutdown timed out")
	}

	// The final checkpoint restored into a fresh server keeps the data.
	srv2, err := New(testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	est, err := srv2.Store().Estimate("t/m")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.AllTime-100) > 25 {
		t.Fatalf("post-shutdown estimate %.1f, want ≈100", est.AllTime)
	}
}

func putBytes(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}
