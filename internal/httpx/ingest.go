package httpx

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/frame"
	"repro/store"
)

// Streaming ingest decoding, shared by POST /v1/ingest (whose sink is
// the store) and POST /v1/cluster/ingest (whose sink routes keys to
// their ring owners). The body is consumed incrementally and handed to
// the sink in batches of at most store.BatchKeys, so one connection can
// push an arbitrarily long key stream with O(batch) memory:
//
//   - Newline bodies (any Content-Type but JSON or frame): one key per
//     line into the ?store= target. CR is trimmed, blank lines are
//     skipped, an unterminated last line counts, and a line longer
//     than MaxKeyBytes fails the body.
//   - JSON bodies: a stream of {"store","keys"} docs (one object,
//     NDJSON or concatenated). A doc without a store name targets
//     ?store=; each doc is split into store.BatchKeys batches.
//   - Frame bodies (FrameContentType, internal/frame): pre-hashed keys,
//     each doc's keys filled into full store.BatchKeys batches, so the
//     sink's call sequence is a function of the frame alone.
//
// Create-on-empty: an empty newline body, a JSON stream of zero docs
// or a header-only frame hands the sink an empty batch for the ?store=
// target, and a doc with zero keys hands it an empty batch for its own
// target. An empty batch asks the sink to create the store.
//
// Failure: ingest is not atomic. A body that fails mid-stream first
// hands the sink every key decoded before the failure (a JSON doc
// decodes whole or not at all), then reports the error with the count
// of keys the sink accepted. Re-sending keys is idempotent for distinct
// counting, so a client recovers by re-sending the whole body.

// IngestSink receives decoded ingest batches. An empty batch asks the
// sink to create the store without adding keys. The batch slices are
// reused once the call returns.
type IngestSink interface {
	Strings(store string, keys []string) error
	Hashed(store string, keys []uint64) error
}

// IngestProgress is how far a body got.
type IngestProgress struct {
	// Keys counts the keys the sink accepted.
	Keys int
	// Docs counts the JSON or frame docs delivered in full (0 for
	// newline bodies).
	Docs int
	// Bytes counts the body bytes read.
	Bytes int64
	// Store is the target of the last delivered doc: ?store= for
	// newline bodies and for doc streams until a doc lands.
	Store string
}

// SinkError wraps an error the sink returned, so callers map it with
// their own status rules rather than ReadStatus's.
type SinkError struct{ Err error }

func (e *SinkError) Error() string { return e.Err.Error() }
func (e *SinkError) Unwrap() error { return e.Err }

// IngestDoc is one JSON ingest document.
type IngestDoc struct {
	Store string   `json:"store"`
	Keys  []string `json:"keys"`
}

// ingestChunkBytes is the pooled read-buffer size.
const ingestChunkBytes = 64 << 10

// ingestScanner is the pooled per-request decode state.
type ingestScanner struct {
	buf    []byte
	strs   []string
	hashed [store.BatchKeys]uint64
}

var ingestScanners = sync.Pool{New: func() any {
	return &ingestScanner{
		buf:  make([]byte, ingestChunkBytes),
		strs: make([]string, 0, store.BatchKeys),
	}
}}

func (sc *ingestScanner) release() {
	if len(sc.buf) > 4*ingestChunkBytes {
		// A huge key grew the buffer; don't let one outlier request
		// pin megabytes in the pool forever.
		sc.buf = make([]byte, ingestChunkBytes)
	}
	clear(sc.strs) // drop string references so delivered keys can be collected
	sc.strs = sc.strs[:0]
	ingestScanners.Put(sc)
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// DecodeIngest decodes an ingest body of the given Content-Type into
// sink; name is the ?store= target. Errors the sink returns come back
// wrapped in *SinkError; every other error is a body or name failure
// for ReadStatus. The progress is valid on every return.
func DecodeIngest(body io.Reader, contentType, name string, sink IngestSink) (IngestProgress, error) {
	sc := ingestScanners.Get().(*ingestScanner)
	defer sc.release()
	cr := &countingReader{r: body}
	d := decoder{sc: sc, sink: sink, p: IngestProgress{Store: name}}
	var err error
	switch {
	case IsFrame(contentType):
		err = d.frames(cr, name)
	case IsJSON(contentType):
		err = d.jsonDocs(cr, name)
	default:
		err = d.lines(cr, name)
	}
	d.p.Bytes = cr.n
	return d.p, err
}

type decoder struct {
	sc   *ingestScanner
	sink IngestSink
	p    IngestProgress
}

func (d *decoder) strings(target string, keys []string) error {
	if err := d.sink.Strings(target, keys); err != nil {
		return &SinkError{Err: err}
	}
	d.p.Keys += len(keys)
	return nil
}

func (d *decoder) hashed(target string, keys []uint64) error {
	if err := d.sink.Hashed(target, keys); err != nil {
		return &SinkError{Err: err}
	}
	d.p.Keys += len(keys)
	return nil
}

// lines decodes a newline-delimited body into name.
func (d *decoder) lines(body io.Reader, name string) error {
	// Validate up front: with incremental delivery a bad name should
	// fail before any of the body is consumed.
	if err := store.ValidateName(name); err != nil {
		return err
	}
	sc := d.sc
	flush := func() error {
		if len(sc.strs) == 0 {
			return nil
		}
		err := d.strings(name, sc.strs)
		clear(sc.strs)
		sc.strs = sc.strs[:0]
		return err
	}
	// fail delivers the keys decoded before a failure, then reports it.
	fail := func(err error) error {
		if ferr := flush(); ferr != nil {
			return ferr
		}
		return err
	}
	fill := 0 // length of the partial line parked at buf[:fill]
	for {
		if fill == len(sc.buf) {
			if len(sc.buf) >= MaxKeyBytes {
				return fail(fmt.Errorf("ingest: key exceeds %d bytes", MaxKeyBytes))
			}
			grown := make([]byte, min(2*len(sc.buf), MaxKeyBytes))
			copy(grown, sc.buf[:fill])
			sc.buf = grown
		}
		n, err := body.Read(sc.buf[fill:])
		data := sc.buf[:fill+n]
		for {
			nl := bytes.IndexByte(data, '\n')
			if nl < 0 {
				break
			}
			if key := trimCR(data[:nl]); len(key) > 0 {
				sc.strs = append(sc.strs, string(key))
				if len(sc.strs) == store.BatchKeys {
					if ferr := flush(); ferr != nil {
						return ferr
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
				sc.strs = append(sc.strs, string(key)) // unterminated final line
			}
			if d.p.Keys == 0 && len(sc.strs) == 0 {
				return d.strings(name, nil) // empty body: create the store
			}
			return flush()
		default:
			return fail(fmt.Errorf("reading body: %w", err))
		}
	}
}

// jsonDocs decodes a stream of {"store","keys"} docs.
func (d *decoder) jsonDocs(body io.Reader, name string) error {
	dec := json.NewDecoder(body)
	for {
		var doc IngestDoc
		err := dec.Decode(&doc)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return fmt.Errorf("decoding JSON body: %w", err)
		}
		target := name
		if doc.Store != "" {
			target = doc.Store
		}
		if err := store.ValidateName(target); err != nil {
			return err
		}
		// An empty doc still makes one call, which creates its store.
		keys := doc.Keys
		for {
			batch := keys[:min(len(keys), store.BatchKeys)]
			keys = keys[len(batch):]
			if err := d.strings(target, batch); err != nil {
				return err
			}
			if len(keys) == 0 {
				break
			}
		}
		d.p.Docs++
		d.p.Store = target
	}
	if d.p.Docs > 0 {
		return nil
	}
	if err := store.ValidateName(name); err != nil {
		return err
	}
	return d.strings(name, nil) // zero docs: create the ?store= target
}

// frames decodes a binary frame body.
func (d *decoder) frames(body io.Reader, name string) error {
	fr := frame.NewReader(body, d.sc.buf)
	if err := fr.ReadHeader(); err != nil {
		return err
	}
	for {
		nameView, _, err := fr.NextDoc()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return err
		}
		target := name
		if len(nameView) > 0 {
			target = string(nameView)
		}
		if err := store.ValidateName(target); err != nil {
			return err
		}
		if err := d.frameDoc(fr, target); err != nil {
			return err
		}
		d.p.Docs++
		d.p.Store = target
	}
	if d.p.Docs > 0 {
		return nil
	}
	if err := store.ValidateName(name); err != nil {
		return err
	}
	return d.hashed(name, nil) // header-only frame: create the ?store= target
}

// frameDoc drains one doc's keys into target. Each batch is filled
// completely before delivery (Keys returns whatever the scan buffer
// holds, which tracks network read boundaries): full batches keep the
// per-call overhead amortized, and they make the sink's call sequence
// a function of the frame alone — which is what lets replicas fed the
// same frames converge on byte-identical sketch state (DESIGN.md §18
// has the exact conditions). A zero-count doc still creates its store.
func (d *decoder) frameDoc(fr *frame.Reader, target string) error {
	start := d.p.Keys
	for {
		batch := d.sc.hashed[:]
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
			if err := d.hashed(target, batch[:fill]); err != nil {
				return err
			}
		}
		if rerr != nil {
			return rerr
		}
		if fill < len(batch) {
			break
		}
	}
	if d.p.Keys == start {
		return d.hashed(target, nil) // zero-count doc: create its store
	}
	return nil
}

func trimCR(line []byte) []byte {
	if n := len(line); n > 0 && line[n-1] == '\r' {
		return line[:n-1]
	}
	return line
}
