package cluster_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/frame"
	"repro/internal/httpx"
	"repro/store"
)

// TestClusterCodecsReplicateIdentically is the cross-codec replication
// check: three seed-identical clusters (R=N, so every node owns every
// key) ingest the same key stream through routed ingest — one cluster
// as newline text, one as NDJSON, one as pre-hashed binary frames —
// and every node of every cluster must end with the byte-identical
// sketch snapshot. The coordinator hashes string keys into exactly the
// uint64s the binary frame carries, and routes per key with
// deterministic flush boundaries, so the store-call sequence each
// replica sees is a function of the key stream alone, regardless of
// which codec delivered it. Background epoch drains are disabled so
// every replica drains only at the final read: F0 bytes follow the
// order keys reach the sketch, and a mid-ingest drain could change
// which batches wait in a slot buffer and which are applied directly,
// so byte-identity needs the deterministic regime.
func TestClusterCodecsReplicateIdentically(t *testing.T) {
	const (
		name  = "codec/t"
		total = 2000
		step  = 400 // under store.BatchKeys: one store call per request
	)
	var want []byte // node 0 of the newline cluster sets the reference

	for _, codec := range []string{"newline", "json", "frame"} {
		nodes := startCluster(t, 3, 3, store.Window{},
			func(c *store.Config) { c.EpochInterval = -1 })
		hasher := nodes[0].srv.Store().HashKey
		for lo := 0; lo < total; lo += step {
			keys := genKeys("codec", lo, lo+step)
			var (
				ct   string
				body []byte
			)
			switch codec {
			case "newline":
				ct = "text/plain"
				body = []byte(strings.Join(keys, "\n") + "\n")
			case "json":
				ct = "application/json"
				body, _ = json.Marshal(map[string]any{"store": name, "keys": keys})
			case "frame":
				ct = httpx.FrameContentType
				hashed := make([]uint64, len(keys))
				for i, k := range keys {
					hashed[i] = hasher(k)
				}
				body = frame.AppendDoc(frame.AppendHeader(nil), name, hashed)
			}
			// Rotate the entry node per request: replication must make the
			// coordinator choice invisible.
			node := nodes[(lo/step)%len(nodes)]
			resp, err := http.Post(node.url+"/v1/cluster/ingest?store="+name, ct, bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			out, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s request %d: HTTP %d: %s", codec, lo/step, resp.StatusCode, out)
			}
		}
		for i, n := range nodes {
			got, err := n.srv.Store().Snapshot(name, nil)
			if err != nil {
				t.Fatalf("%s node %d snapshot: %v", codec, i, err)
			}
			if want == nil {
				want = got
				continue
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s node %d snapshot diverged from newline node 0", codec, i)
			}
		}
	}
}
