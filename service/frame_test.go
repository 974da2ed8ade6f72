package service

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"net/http/httptest"
	"testing"

	knw "repro"
	"repro/internal/frame"
	"repro/internal/httpx"
	"repro/store"
)

// frameBody builds a complete ingest frame from (store, keys) docs,
// hashing string keys through the server's own hash contract.
func frameBody(st *store.Store, docs ...struct {
	name string
	keys []string
}) []byte {
	buf := frame.AppendHeader(nil)
	for _, d := range docs {
		hashed := make([]uint64, len(d.keys))
		for i, k := range d.keys {
			hashed[i] = st.HashKey(k)
		}
		buf = frame.AppendDoc(buf, d.name, hashed)
	}
	return buf
}

type frameDoc = struct {
	name string
	keys []string
}

// TestIngestFrameEndToEnd drives the binary codec through the real
// HTTP stack: a two-doc frame (one named, one falling back to the
// ?store= target), response accounting, and estimates that match what
// the same keys produce through the string path.
func TestIngestFrameEndToEnd(t *testing.T) {
	srv, hs := newTestServer(t, testConfig(""))
	body := frameBody(srv.Store(),
		frameDoc{name: "acme/users", keys: keyBatch("acme", 0, 3000)},
		frameDoc{name: "", keys: keyBatch("fallback", 0, 500)},
	)
	resp, out := post(t, hs.URL+"/v1/ingest?store=deflt/users", httpx.FrameContentType, body)
	if resp.StatusCode != 200 {
		t.Fatalf("frame ingest: HTTP %d: %s", resp.StatusCode, out)
	}
	var rep struct {
		Store    string `json:"store"`
		Ingested int    `json:"ingested"`
		Batches  int    `json:"batches"`
	}
	if err := json.Unmarshal(out, &rep); err != nil {
		t.Fatalf("decoding %q: %v", out, err)
	}
	if rep.Ingested != 3500 || rep.Batches != 2 || rep.Store != "deflt/users" {
		t.Fatalf("report = %+v, want 3500 keys in 2 batches ending at deflt/users", rep)
	}
	for name, n := range map[string]float64{"acme/users": 3000, "deflt/users": 500} {
		est := estimateOf(t, hs.URL, name)
		if math.Abs(est.AllTime-n)/n > 0.20 {
			t.Fatalf("%s estimate %.0f, want ~%.0f", name, est.AllTime, n)
		}
	}
}

// TestIngestCodecsSnapshotIdentical is the byte-level equivalence
// check across all three ingest codecs: three seed-identical servers
// ingest the same key stream into the same store — one as newline
// text, one as NDJSON, one as pre-hashed binary frames — and must end
// with byte-identical sketch snapshots, because the frame's
// client-side hash is exactly the hash the server would have applied.
//
// The stream is sent as 500-key requests, under store.BatchKeys, so all
// three codecs perform the identical sequence of store ingest calls,
// and the background epoch loop is disabled so the only drain is the
// final read barrier: F0 bytes follow the order keys reach the sketch,
// and a mid-ingest drain would change which batches wait in a slot
// buffer and which are applied directly, so byte-level comparison
// requires the fully deterministic regime.
func TestIngestCodecsSnapshotIdentical(t *testing.T) {
	const (
		name  = "codec/t"
		total = 5000
		step  = 500
	)
	snaps := make(map[string][]byte, 3)

	for _, codec := range []string{"newline", "json", "frame"} {
		cfg := testConfig("")
		cfg.Store.EpochInterval = -1 // drains only at read barriers
		srv, hs := newTestServer(t, cfg)
		for lo := 0; lo < total; lo += step {
			keys := keyBatch("codec", lo, lo+step)
			var (
				ct   string
				body []byte
			)
			switch codec {
			case "newline":
				ct = "text/plain"
				for _, k := range keys {
					body = append(append(body, k...), '\n')
				}
			case "json":
				ct = "application/json"
				body, _ = json.Marshal(map[string]any{"store": name, "keys": keys})
			case "frame":
				ct = httpx.FrameContentType
				body = frameBody(srv.Store(), frameDoc{name: name, keys: keys})
			}
			if resp, out := post(t, hs.URL+"/v1/ingest?store="+name, ct, body); resp.StatusCode != 200 {
				t.Fatalf("%s: HTTP %d: %s", codec, resp.StatusCode, out)
			}
		}
		snap, err := srv.Store().Snapshot(name, nil)
		if err != nil {
			t.Fatalf("%s snapshot: %v", codec, err)
		}
		snaps[codec] = snap
	}
	for _, codec := range []string{"json", "frame"} {
		if !bytes.Equal(snaps[codec], snaps["newline"]) {
			t.Fatalf("%s snapshot diverged from newline (codec paths not equivalent)", codec)
		}
	}
}

// TestIngestFrameErrors: malformed frames answer with a JSON error and
// the right status, and partial progress before the damage is kept.
func TestIngestFrameErrors(t *testing.T) {
	srv, hs := newTestServer(t, testConfig(""))

	bad := binary.AppendUvarint(nil, 0xDEAD)
	bad = binary.AppendUvarint(bad, 1)
	resp, out := post(t, hs.URL+"/v1/ingest?store=f/x", httpx.FrameContentType, bad)
	if resp.StatusCode != 400 {
		t.Fatalf("bad magic: HTTP %d: %s", resp.StatusCode, out)
	}

	// A valid doc followed by a truncated one: the first doc's keys
	// must land even though the request fails.
	body := frameBody(srv.Store(), frameDoc{name: "f/ok", keys: keyBatch("k", 0, 100)})
	body = append(body, binary.AppendUvarint(nil, 4)...) // name len 4, then EOF
	resp, out = post(t, hs.URL+"/v1/ingest?store=f/x", httpx.FrameContentType, body)
	if resp.StatusCode != 400 {
		t.Fatalf("truncated frame: HTTP %d: %s", resp.StatusCode, out)
	}
	var rep struct {
		Ingested int `json:"ingested"`
	}
	if err := json.Unmarshal(out, &rep); err != nil {
		t.Fatalf("decoding %q: %v", out, err)
	}
	if rep.Ingested != 100 {
		t.Fatalf("partial progress = %d keys, want 100", rep.Ingested)
	}
	if est := estimateOf(t, hs.URL, "f/ok"); est.AllTime < 80 {
		t.Fatalf("f/ok estimate %.0f after partial ingest, want ~100", est.AllTime)
	}
}

// FuzzBinaryFrame drives arbitrary bodies through the frame ingest
// path with adversarially small read chunks. Invariants: no panics,
// always a JSON response, and the ingested count never exceeds the
// whole 8-byte keys the body could possibly contain.
//
// Run with: go test -fuzz=FuzzBinaryFrame ./service
func FuzzBinaryFrame(f *testing.F) {
	valid := frame.AppendHeader(nil)
	valid = frame.AppendDoc(valid, "t/m", []uint64{1, 2, 3})
	valid = frame.AppendDoc(valid, "", []uint64{4})
	f.Add(valid, uint8(1))
	f.Add(frame.AppendHeader(nil), uint8(3))
	f.Add([]byte{}, uint8(1))
	f.Add(valid[:len(valid)-3], uint8(5)) // truncated mid-key
	f.Add(append(frame.AppendHeader(nil), 0xff, 0xff, 0xff, 0xff, 0xff), uint8(2))
	huge := binary.AppendUvarint(frame.AppendHeader(nil), 1<<20) // oversize name claim
	f.Add(huge, uint8(7))

	f.Fuzz(func(t *testing.T, body []byte, chunk uint8) {
		srv, err := New(Config{Store: store.Config{
			Kind: knw.KindF0,
			Options: []knw.Option{
				knw.WithEpsilon(0.3), knw.WithCopies(1), knw.WithK(32),
				knw.WithUniverseBits(16), knw.WithSeed(1),
			},
		}})
		if err != nil {
			t.Fatal(err)
		}
		req := httptest.NewRequest("POST", "/v1/ingest?store=fuzz/t", &chunkReader{
			data: body,
			n:    int(chunk)%31 + 1,
		})
		req.Header.Set("Content-Type", httpx.FrameContentType)
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, req) // must not panic

		var resp struct {
			Ingested *int `json:"ingested"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("non-JSON response (HTTP %d): %q", rec.Code, rec.Body.Bytes())
		}
		if resp.Ingested == nil {
			t.Fatalf("response missing ingested count (HTTP %d): %q", rec.Code, rec.Body.Bytes())
		}
		if limit := len(body) / frame.KeyBytes; *resp.Ingested > limit {
			t.Fatalf("ingested %d > %d possible keys in %d body bytes (HTTP %d)",
				*resp.Ingested, limit, len(body), rec.Code)
		}
	})
}
