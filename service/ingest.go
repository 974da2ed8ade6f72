package service

import (
	"errors"
	"net/http"
	"time"

	"repro/internal/httpx"
	"repro/internal/trace"
)

// POST /v1/ingest streams its body through httpx.DecodeIngest — the
// one decoder for newline, JSON and binary-frame bodies, shared with
// the cluster router's POST /v1/cluster/ingest — into the store, one
// batch of at most store.BatchKeys keys at a time, so each batch fits
// one empty delta slot. httpx/ingest.go documents the body formats,
// the create-on-empty rule and the failure rule; the response reports
// the keys ingested, also on failure.

// storeSink hands decoded batches to the store, timing the store's
// share of the request for the store_ingest stage.
type storeSink struct {
	s   *Server
	dur time.Duration
}

func (k *storeSink) Strings(name string, keys []string) error {
	t0 := time.Now()
	if err := k.s.st.Ingest(name, keys); err != nil {
		return err
	}
	k.done(t0, len(keys))
	return nil
}

func (k *storeSink) Hashed(name string, keys []uint64) error {
	t0 := time.Now()
	if err := k.s.st.IngestHashed(name, keys); err != nil {
		return err
	}
	k.done(t0, len(keys))
	return nil
}

func (k *storeSink) done(t0 time.Time, keys int) {
	k.dur += time.Since(t0)
	k.s.met.ingestKeys.Add(uint64(keys))
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	ct := r.Header.Get("Content-Type")
	sink := storeSink{s: s}
	start := time.Now()
	p, err := httpx.DecodeIngest(http.MaxBytesReader(w, r.Body, maxBodyBytes),
		ct, r.URL.Query().Get("store"), &sink)
	s.met.ingestBytes.Add(uint64(p.Bytes))
	if err != nil {
		status := readStatus(err)
		var serr *httpx.SinkError
		if errors.As(err, &serr) {
			status = storeStatus(serr.Err)
		}
		s.failIngest(w, status, err, p.Keys)
		return
	}
	s.noteIngest(trace.FromContext(r.Context()), p.Store, p.Keys, start, sink.dur)
	out := map[string]any{"store": p.Store, "ingested": p.Keys}
	if httpx.IsJSON(ct) || httpx.IsFrame(ct) {
		out["batches"] = p.Docs
	}
	s.reply(w, http.StatusOK, out)
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

// failIngest is fail plus the partial-progress count: a body that
// failed mid-stream may have ingested keys before the failure, and a
// retrying client needs to know the request was not a no-op (re-sends
// are idempotent for distinct counting, so the safe recovery is to
// re-send the whole body).
func (s *Server) failIngest(w http.ResponseWriter, status int, err error, ingested int) {
	s.reply(w, status, map[string]any{"error": err.Error(), "ingested": ingested})
}
