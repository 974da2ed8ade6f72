package service

// Short-mode tests for the service's daemon plumbing: the -join
// announcer, the background checkpoint tick, the store listing, gather
// failure mapping, and the scope stripping of cluster trace gathers.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"repro/cluster"
	"repro/store"
)

// TestAnnounceJoinRetries: a node started with JoinVia keeps asking its
// seed member to admit it until the join answers 200.
func TestAnnounceJoinRetries(t *testing.T) {
	var calls atomic.Int32
	seed := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			URL string `json:"url"`
		}
		if r.URL.Path != "/v1/cluster/join" || json.NewDecoder(r.Body).Decode(&req) != nil || req.URL != "http://127.0.0.1:1" {
			t.Errorf("seed got %s %s with url %q", r.Method, r.URL.Path, req.URL)
		}
		if calls.Add(1) == 1 {
			http.Error(w, "not ready", http.StatusServiceUnavailable)
			return
		}
		io.WriteString(w, "{}")
	}))
	t.Cleanup(seed.Close)

	cfg := testConfig("")
	cfg.Cluster = &cluster.Config{Self: "http://127.0.0.1:1", Peers: []string{"http://127.0.0.1:1"}}
	cfg.JoinVia = seed.URL
	srv, _ := newTestServer(t, cfg)
	srv.announceJoin(context.Background())
	if got := calls.Load(); got != 2 {
		t.Fatalf("seed saw %d join requests, want 2 (503 then 200)", got)
	}
}

// TestCheckpointTickFullThenDelta: the first background tick writes the
// full checkpoint file, the next one a delta file against it; without a
// checkpoint directory a tick writes nothing.
func TestCheckpointTickFullThenDelta(t *testing.T) {
	none, _ := newTestServer(t, testConfig(""))
	if err := none.checkpointTick(); err != nil {
		t.Fatalf("tick without a directory: %v", err)
	}

	dir := t.TempDir()
	srv, _ := newTestServer(t, testConfig(dir))
	if err := srv.Store().Ingest("acme/users", keyBatch("u", 0, 2000)); err != nil {
		t.Fatal(err)
	}
	if err := srv.checkpointTick(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, store.CheckpointFile)); err != nil {
		t.Fatalf("first tick wrote no full file: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, store.CheckpointDeltaFile)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("first tick wrote a delta file: %v", err)
	}
	if err := srv.Store().Ingest("acme/users", keyBatch("v", 0, 50)); err != nil {
		t.Fatal(err)
	}
	if err := srv.checkpointTick(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, store.CheckpointDeltaFile)); err != nil {
		t.Fatalf("second tick wrote no delta file: %v", err)
	}
}

// TestStoresEndpoint: GET /v1/stores lists the store names and the kind.
func TestStoresEndpoint(t *testing.T) {
	srv, hs := newTestServer(t, testConfig(""))
	for _, name := range []string{"b/two", "a/one"} {
		if err := srv.Store().Ingest(name, []string{"k"}); err != nil {
			t.Fatal(err)
		}
	}
	resp, body := get(t, hs.URL+"/v1/stores")
	var out struct {
		Stores []string `json:"stores"`
		Kind   string   `json:"kind"`
	}
	if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &out) != nil {
		t.Fatalf("GET /v1/stores: HTTP %d: %s", resp.StatusCode, body)
	}
	if len(out.Stores) != 2 || out.Stores[0] != "a/one" || out.Stores[1] != "b/two" || out.Kind != "f0" {
		t.Fatalf("GET /v1/stores = %+v", out)
	}
}

// TestFailGatherStatus: each gather failure maps to its status, and the
// unreachable peers ride X-KNW-Partial whatever the status.
func TestFailGatherStatus(t *testing.T) {
	srv, _ := newTestServer(t, testConfig(""))
	for _, tc := range []struct {
		name    string
		err     error
		info    cluster.GatherInfo
		status  int
		partial string
	}{
		{"unknown everywhere", fmt.Errorf("gather: %w", store.ErrNotFound),
			cluster.GatherInfo{FailedPeers: []string{"http://b:1"}}, http.StatusNotFound, "http://b:1"},
		{"partial and empty", errors.New("no member answered"),
			cluster.GatherInfo{Partial: true, FailedPeers: []string{"http://b:1", "http://c:1"}},
			http.StatusServiceUnavailable, "http://b:1,http://c:1"},
		{"bad request", errors.New("bad span"), cluster.GatherInfo{}, http.StatusBadRequest, ""},
	} {
		rec := httptest.NewRecorder()
		srv.failGather(rec, tc.err, tc.info)
		if rec.Code != tc.status || rec.Header().Get(cluster.PartialHeader) != tc.partial {
			t.Errorf("%s: HTTP %d, partial %q; want %d, %q", tc.name,
				rec.Code, rec.Header().Get(cluster.PartialHeader), tc.status, tc.partial)
		}
	}
}

// TestLocalQueryStripsScope: a cluster trace gather asks each peer for
// its local traces with every other filter kept.
func TestLocalQueryStripsScope(t *testing.T) {
	got := localQuery(url.Values{"scope": {"cluster"}, "limit": {"5"}, "trace": {"ab"}})
	if got != "limit=5&trace=ab" {
		t.Fatalf("localQuery = %q, want limit=5&trace=ab", got)
	}
}
