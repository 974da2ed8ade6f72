package service

import (
	"errors"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/frame"
	"repro/internal/trace"
	"repro/store"
)

// Binary-frame ingest: Content-Type application/x-knw-frame bodies
// carry pre-hashed uint64 keys in the internal/frame format, decoded
// incrementally and fed straight into Store.IngestHashed — no string
// materialization, no per-key allocation, no JSON. This is the fast
// path knwload -codec binary and the cluster forwarder use; the
// streaming contract (incremental flushes, partial progress on error,
// create-on-empty) matches the newline and JSON forms exactly.

// frameScanner is the pooled per-request decode state: the frame scan
// buffer and the flush batch.
type frameScanner struct {
	buf  []byte
	keys [store.BatchKeys]uint64
}

var frameScanners = sync.Pool{New: func() any {
	return &frameScanner{buf: make([]byte, ingestChunkBytes)}
}}

func (fs *frameScanner) release() {
	if len(fs.buf) > 4*ingestChunkBytes {
		fs.buf = make([]byte, ingestChunkBytes)
	}
	frameScanners.Put(fs)
}

// countingReader feeds the ingest byte counter on every read, so the
// bytes/keys dashboards cover all three codecs alike.
type countingReader struct {
	r io.Reader
	n *uint64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	*c.n += uint64(n)
	return n, err
}

// storeError tags a store rejection so the error→status mapping uses
// the store codes (404/409/400) instead of the body-read ones.
type storeError struct{ err error }

func (e *storeError) Error() string { return e.err.Error() }
func (e *storeError) Unwrap() error { return e.err }

// ingestFrame streams a binary frame body into the store. Docs with an
// empty name target the ?store= query parameter; a header-only frame
// creates the query target, and a zero-count doc creates its named
// store — the same create-on-empty contract as the other codecs.
func (s *Server) ingestFrame(w http.ResponseWriter, r *http.Request, name string) {
	fs := frameScanners.Get().(*frameScanner)
	defer fs.release()
	var bodyBytes uint64
	defer func() { s.met.ingestBytes.Add(bodyBytes) }()
	fr := frame.NewReader(
		&countingReader{r: http.MaxBytesReader(w, r.Body, maxBodyBytes), n: &bodyBytes},
		fs.buf)
	if err := fr.ReadHeader(); err != nil {
		s.failIngest(w, readStatus(err), err, 0)
		return
	}
	start := time.Now()
	var ingestDur time.Duration
	total, docs := 0, 0
	last := name
	for {
		nameView, _, err := fr.NextDoc()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			s.failIngest(w, readStatus(err), err, total)
			return
		}
		target := name
		if len(nameView) > 0 {
			target = string(nameView)
		}
		ingested, dur, err := s.ingestFrameDoc(fr, fs, target)
		total += ingested
		ingestDur += dur
		if err != nil {
			status := readStatus(err)
			var serr *storeError
			if errors.As(err, &serr) {
				status = storeStatus(serr.err)
			}
			s.failIngest(w, status, err, total)
			return
		}
		docs++
		last = target
	}
	if docs == 0 {
		// Header-only frame: still create the ?store= target, matching
		// the empty newline body and zero-document JSON stream.
		if err := s.st.IngestHashed(name, nil); err != nil {
			s.failIngest(w, storeStatus(err), err, total)
			return
		}
	}
	s.noteIngest(trace.FromContext(r.Context()), last, total, start, ingestDur)
	s.reply(w, http.StatusOK, map[string]any{"store": last, "ingested": total, "batches": docs})
}

// ingestFrameDoc drains one doc's keys into target in batches of
// store.BatchKeys. Each batch is filled completely before it is
// ingested (Keys returns whatever the scan buffer holds, which tracks
// network read boundaries): full batches keep the per-call overhead
// amortized, and they make the store's ingest call sequence a function
// of the frame alone — which is what lets replicas fed the same frames
// converge on byte-identical sketch state (DESIGN.md §18 has the exact
// conditions). A zero-count doc still creates its store.
func (s *Server) ingestFrameDoc(fr *frame.Reader, fs *frameScanner, target string) (int, time.Duration, error) {
	ingested := 0
	var dur time.Duration
	for {
		batch := fs.keys[:]
		fill := 0
		var rerr error
		for fill < len(batch) {
			n, err := fr.Keys(batch[fill:])
			fill += n
			if err != nil {
				rerr = err
				break
			}
			if n == 0 {
				break // doc exhausted
			}
		}
		if fill > 0 {
			t0 := time.Now()
			if serr := s.st.IngestHashed(target, batch[:fill]); serr != nil {
				return ingested, dur, &storeError{err: serr}
			}
			dur += time.Since(t0)
			ingested += fill
			s.met.ingestKeys.Add(uint64(fill))
		}
		if rerr != nil {
			return ingested, dur, rerr
		}
		if fill < len(batch) {
			break
		}
	}
	if ingested == 0 {
		// Zero-count doc: create the named store, like a JSON document
		// with empty keys.
		if serr := s.st.IngestHashed(target, nil); serr != nil {
			return ingested, dur, &storeError{err: serr}
		}
	}
	return ingested, dur, nil
}
