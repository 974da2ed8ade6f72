package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/httpx"
	"repro/internal/trace"
	"repro/store"
)

// Streaming ingest: POST /v1/ingest bodies are consumed incrementally
// — a pooled fixed-size read buffer scanned for newline-delimited keys
// (or a json.Decoder loop for JSON bodies), flushed to the store in
// batches of store.BatchKeys, so each batch fits one empty delta slot
// — instead of buffering the whole body.
// A single connection can therefore push an arbitrarily long key
// stream at batched-AddBatch speed with O(batch) memory, and the JSON
// form accepts a *sequence* of {"store","keys"} documents (NDJSON or
// concatenated), each routed to its own store: one connection, many
// tenants.
//
// Flushes are incremental, so ingest is not atomic: a body that fails
// mid-stream (client abort, oversize key, corrupt JSON document) has
// already landed every previously flushed batch. That is the right
// trade for a cardinality sketch — re-sending the same keys is
// idempotent for distinct counting — and the error response reports
// how many keys were ingested before the failure.
const (
	// ingestChunkBytes is the pooled read-buffer size.
	ingestChunkBytes = 64 << 10
	// maxKeyBytes caps one newline-delimited key (shared with the
	// cluster router's scanner; see internal/httpx).
	maxKeyBytes = httpx.MaxKeyBytes
)

// ingestScanner is the pooled per-request scan state.
type ingestScanner struct {
	buf  []byte
	keys []string
}

var ingestScanners = sync.Pool{New: func() any {
	return &ingestScanner{
		buf:  make([]byte, ingestChunkBytes),
		keys: make([]string, 0, store.BatchKeys),
	}
}}

func (sc *ingestScanner) release() {
	if len(sc.buf) > 4*ingestChunkBytes {
		// A huge key grew the buffer; don't let one outlier request
		// pin megabytes in the pool forever.
		sc.buf = make([]byte, ingestChunkBytes)
	}
	clear(sc.keys) // drop string references so flushed keys can be collected
	sc.keys = sc.keys[:0]
	ingestScanners.Put(sc)
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("store")
	ct := r.Header.Get("Content-Type")
	switch {
	case httpx.IsFrame(ct):
		s.ingestFrame(w, r, name)
	case isJSON(ct):
		s.ingestJSON(w, r, name)
	default:
		s.ingestLines(w, r, name)
	}
}

func isJSON(contentType string) bool { return httpx.IsJSON(contentType) }

// ingestLines streams a newline-delimited body into the named store.
func (s *Server) ingestLines(w http.ResponseWriter, r *http.Request, name string) {
	// Validate up front: with incremental flushing a bad name should
	// fail before any of the body is consumed.
	if err := store.ValidateName(name); err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	sc := ingestScanners.Get().(*ingestScanner)
	defer sc.release()

	start := time.Now()
	var ingestDur time.Duration
	total := 0
	flush := func() error {
		if len(sc.keys) == 0 {
			return nil
		}
		t0 := time.Now()
		if err := s.st.Ingest(name, sc.keys); err != nil {
			return err
		}
		ingestDur += time.Since(t0)
		total += len(sc.keys)
		s.met.ingestKeys.Add(uint64(len(sc.keys)))
		clear(sc.keys)
		sc.keys = sc.keys[:0]
		return nil
	}

	fill := 0 // length of the partial line parked at buf[:fill]
	for {
		if fill == len(sc.buf) {
			if len(sc.buf) >= maxKeyBytes {
				s.failIngest(w, http.StatusBadRequest,
					fmt.Errorf("ingest: key exceeds %d bytes", maxKeyBytes), total)
				return
			}
			grown := make([]byte, min(2*len(sc.buf), maxKeyBytes))
			copy(grown, sc.buf[:fill])
			sc.buf = grown
		}
		n, err := body.Read(sc.buf[fill:])
		s.met.ingestBytes.Add(uint64(n))
		data := sc.buf[:fill+n]
		for {
			nl := bytes.IndexByte(data, '\n')
			if nl < 0 {
				break
			}
			if key := trimCR(data[:nl]); len(key) > 0 {
				sc.keys = append(sc.keys, string(key))
				if len(sc.keys) == store.BatchKeys {
					if ferr := flush(); ferr != nil {
						s.failIngest(w, storeStatus(ferr), ferr, total)
						return
					}
				}
			}
			data = data[nl+1:]
		}
		fill = copy(sc.buf, data)
		switch {
		case err == nil:
		case errors.Is(err, io.EOF):
			if key := trimCR(sc.buf[:fill]); len(key) > 0 {
				sc.keys = append(sc.keys, string(key)) // unterminated final line
			}
			if total == 0 && len(sc.keys) == 0 {
				// Empty body: still create the store (the pre-streaming
				// behavior, and what the JSON form does with empty keys).
				if ferr := s.st.Ingest(name, nil); ferr != nil {
					s.failIngest(w, storeStatus(ferr), ferr, total)
					return
				}
			}
			if ferr := flush(); ferr != nil {
				s.failIngest(w, storeStatus(ferr), ferr, total)
				return
			}
			s.noteIngest(trace.FromContext(r.Context()), name, total, start, ingestDur)
			s.reply(w, http.StatusOK, map[string]any{"store": name, "ingested": total})
			return
		default:
			// Mid-stream read failure (client abort, oversize body):
			// a JSON-bodied 400/413 like every other bad-request path,
			// never a bare 500.
			s.failIngest(w, readStatus(err), fmt.Errorf("reading body: %w", err), total)
			return
		}
	}
}

// ingestJSON consumes a stream of {"store","keys"} documents (a single
// object, NDJSON, or concatenated JSON), routing each document's keys
// to its own store in batches of store.BatchKeys. Documents without a
// store name fall back to the ?store= query parameter.
func (s *Server) ingestJSON(w http.ResponseWriter, r *http.Request, name string) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	// Count consumed body bytes on every exit path, error or not, so
	// bytes/keys dashboards stay consistent with the newline path.
	defer func() { s.met.ingestBytes.Add(uint64(dec.InputOffset())) }()
	start := time.Now()
	var ingestDur time.Duration
	total, docs := 0, 0
	last := name
	for {
		var req ingestRequest
		err := dec.Decode(&req)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			s.failIngest(w, readStatus(err), fmt.Errorf("decoding JSON body: %w", err), total)
			return
		}
		target := name
		if req.Store != "" {
			target = req.Store
		}
		// Split at store.BatchKeys like the other codecs, so the store
		// sees the same calls whichever codec carried the keys. An empty
		// document still makes one call, which creates its store.
		keys := req.Keys
		for {
			batch := keys[:min(len(keys), store.BatchKeys)]
			keys = keys[len(batch):]
			t0 := time.Now()
			if err := s.st.Ingest(target, batch); err != nil {
				s.failIngest(w, storeStatus(err), err, total)
				return
			}
			ingestDur += time.Since(t0)
			total += len(batch)
			s.met.ingestKeys.Add(uint64(len(batch)))
			if len(keys) == 0 {
				break
			}
		}
		docs++
		last = target
	}
	if docs == 0 {
		// Zero documents: still create the ?store= target, matching the
		// empty newline body (and 400 on a missing/invalid name).
		if err := s.st.Ingest(name, nil); err != nil {
			s.failIngest(w, storeStatus(err), err, total)
			return
		}
	}
	s.noteIngest(trace.FromContext(r.Context()), last, total, start, ingestDur)
	s.reply(w, http.StatusOK, map[string]any{"store": last, "ingested": total, "batches": docs})
}

// noteIngest attributes a finished ingest request's wall time to the
// two HTTP-layer stages — store_ingest (time inside Store.Ingest /
// IngestHashed) and body_scan (everything else: network reads, newline
// scanning, JSON or frame decoding) — and annotates the sampled span,
// if any. Called only on success paths; failed requests keep their
// latency in knwd_http_request_seconds alone.
func (s *Server) noteIngest(act *trace.Active, store string, keys int, start time.Time, ingest time.Duration) {
	scan := time.Since(start) - ingest
	if scan < 0 {
		scan = 0
	}
	s.met.stageBodyScan.Observe(scan.Seconds())
	s.met.stageStoreIngest.Observe(ingest.Seconds())
	if act != nil {
		act.SetStore(store)
		act.AddKeys(keys)
		act.Stage("body_scan", scan)
		act.Stage("store_ingest", ingest)
	}
}

// failIngest is fail plus the partial-progress count: callers that
// stream batches may have ingested keys before the failure, and a
// retrying client needs to know the request was not a no-op (re-sends
// are idempotent for distinct counting, so the safe recovery is to
// re-send the whole body).
func (s *Server) failIngest(w http.ResponseWriter, status int, err error, ingested int) {
	s.reply(w, status, map[string]any{"error": err.Error(), "ingested": ingested})
}

func trimCR(line []byte) []byte {
	if n := len(line); n > 0 && line[n-1] == '\r' {
		return line[:n-1]
	}
	return line
}
