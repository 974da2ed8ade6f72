package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http/httptest"
	"slices"
	"testing"

	knw "repro"
	"repro/cluster"
	"repro/internal/frame"
	"repro/internal/httpx"
	"repro/store"
)

// FuzzIngestStream drives arbitrary bodies through the one ingest
// decoder on both endpoints: POST /v1/ingest on a single-node server
// and POST /v1/cluster/ingest on a one-node cluster, as a newline,
// JSON or binary-frame body (codec % 3), delivered in adversarially
// small read chunks so every refill boundary is exercised.
// Invariants: neither handler panics; both answer a JSON body with the
// same status; the leaf's ingested count equals the router's received
// count and never exceeds the keys present in the input; and both
// leave the same stores behind.
//
// Run with: go test -fuzz=FuzzIngestStream ./service
func FuzzIngestStream(f *testing.F) {
	f.Add([]byte("alice\nbob\ncarol\n"), uint8(1), uint8(0))
	f.Add([]byte("alice\r\nbob\r\n\r\n\ntrailing-unterminated"), uint8(3), uint8(0))
	f.Add([]byte(`{"store":"t/m","keys":["a","b","c"]}`), uint8(5), uint8(1))
	f.Add([]byte(`{"keys":["a"]}`+"\n"+`{"store":"u/m","keys":["b","c"]}`), uint8(2), uint8(1))
	f.Add([]byte(`{"store":"t/m","keys":["a"]}garbage`), uint8(7), uint8(1))
	f.Add([]byte{}, uint8(1), uint8(0))
	f.Add([]byte("\n\n\n"), uint8(1), uint8(1))
	f.Add(bytes.Repeat([]byte{0xff, '\n'}, 300), uint8(13), uint8(0))
	f.Add([]byte(`{"store":"z/m","keys":[]}`+"\n"+`{"keys":["a"]}`), uint8(4), uint8(1))
	valid := frame.AppendHeader(nil)
	valid = frame.AppendDoc(valid, "t/m", []uint64{1, 2, 3})
	valid = frame.AppendDoc(valid, "", []uint64{4})
	valid = frame.AppendDoc(valid, "z/m", nil)
	f.Add(valid, uint8(3), uint8(2))
	f.Add(frame.AppendHeader(nil), uint8(1), uint8(2))
	f.Add(valid[:len(valid)-6], uint8(5), uint8(2)) // truncated mid-key

	f.Fuzz(func(t *testing.T, body []byte, chunk, codec uint8) {
		ct := [...]string{"text/plain", "application/json", httpx.FrameContentType}[codec%3]
		leaf := fuzzServer(t, nil)
		self := "http://fuzz.invalid"
		routed := fuzzServer(t, &cluster.Config{Self: self, Peers: []string{self}})

		ingested, leafCode := fuzzPost(t, leaf, "/v1/ingest", "ingested", ct, body, chunk)
		received, routedCode := fuzzPost(t, routed, "/v1/cluster/ingest", "received", ct, body, chunk)
		if leafCode != routedCode {
			t.Fatalf("%s: leaf HTTP %d, routed HTTP %d", ct, leafCode, routedCode)
		}
		if ingested != received {
			t.Fatalf("%s: leaf ingested %d, router received %d (HTTP %d)", ct, ingested, received, leafCode)
		}
		var limit int
		switch codec % 3 {
		case 0:
			limit = countLineKeys(body)
		case 1:
			limit = countJSONKeys(body)
		default:
			limit = len(body) / frame.KeyBytes
		}
		if ingested > limit {
			t.Fatalf("%s: ingested %d > %d keys sent (HTTP %d)", ct, ingested, limit, leafCode)
		}
		if a, b := leaf.Store().Names(), routed.Store().Names(); !slices.Equal(a, b) {
			t.Fatalf("%s: leaf created %v, router created %v", ct, a, b)
		}
	})
}

// fuzzServer builds a small-sketch server, a one-node cluster member
// when cc is set.
func fuzzServer(t *testing.T, cc *cluster.Config) *Server {
	srv, err := New(Config{
		Store: store.Config{
			Kind: knw.KindF0,
			Options: []knw.Option{
				knw.WithEpsilon(0.3), knw.WithCopies(1), knw.WithK(32),
				knw.WithUniverseBits(16), knw.WithSeed(1),
			},
		},
		Cluster: cc,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Store().Close)
	return srv
}

// fuzzPost sends body in chunk-sized reads and returns the response's
// key count field and status; the response must be JSON carrying it.
func fuzzPost(t *testing.T, srv *Server, path, field, ct string, body []byte, chunk uint8) (int, int) {
	req := httptest.NewRequest("POST", path+"?store=fuzz/t", &chunkReader{
		data: body,
		n:    int(chunk)%31 + 1,
	})
	req.Header.Set("Content-Type", ct)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req) // must not panic

	var resp map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("%s: non-JSON response (HTTP %d): %q", path, rec.Code, rec.Body.Bytes())
	}
	n, ok := resp[field].(float64)
	if !ok {
		t.Fatalf("%s: response missing %q (HTTP %d): %q", path, field, rec.Code, rec.Body.Bytes())
	}
	return int(n), rec.Code
}

// chunkReader delivers its data at most n bytes per Read — the
// split-read torture the streaming scanner must survive.
type chunkReader struct {
	data []byte
	n    int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := min(r.n, min(len(p), len(r.data)))
	copy(p, r.data[:n])
	r.data = r.data[n:]
	return n, nil
}

// countLineKeys counts the non-empty newline-delimited keys in body,
// mirroring the scanner's semantics (CR trimmed, final unterminated
// line counts).
func countLineKeys(body []byte) int {
	n := 0
	for _, line := range bytes.Split(body, []byte("\n")) {
		if len(bytes.TrimSuffix(line, []byte("\r"))) > 0 {
			n++
		}
	}
	return n
}

// countJSONKeys upper-bounds the keys a JSON body can deliver: the sum
// over every decodable document. The handler stops at the first bad
// document, so its count can only be lower.
func countJSONKeys(body []byte) int {
	dec := json.NewDecoder(bytes.NewReader(body))
	n := 0
	for {
		var req httpx.IngestDoc
		err := dec.Decode(&req)
		if errors.Is(err, io.EOF) || err != nil {
			return n
		}
		n += len(req.Keys)
	}
}
