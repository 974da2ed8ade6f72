package service

import (
	"net/http"
	"runtime"
	"strconv"
	"time"

	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/version"
)

// serviceMetrics are the HTTP-layer instruments. Store-layer
// instruments (entries, rotations, checkpoints) live in store/ and
// share the same registry, so one GET /metrics scrape covers the whole
// daemon.
type serviceMetrics struct {
	requests      *metrics.CounterVec   // route, code
	latency       *metrics.HistogramVec // route
	ingestKeys    *metrics.Counter      // keys accepted over HTTP
	ingestBytes   *metrics.Counter      // raw ingest body bytes read
	snapshotBytes *metrics.Counter      // envelope bytes served by GET /v1/snapshot

	// stages is the daemon-wide knwd_stage_seconds pipeline histogram:
	// the service observes the request-facing stages (body_scan,
	// store_ingest), while the store and cluster layers observe theirs
	// (slot_claim; hash and append, each a delta-slot buffer write or a
	// direct sketch apply; epoch_merge, a drain applying buffered keys;
	// peer_forward, gossip_*) into the same family. Handles for the hot
	// stages are cached so the ingest path never takes the vec's
	// series-lookup lock.
	stages           *metrics.HistogramVec // stage
	stageBodyScan    *metrics.Histogram
	stageStoreIngest *metrics.Histogram
}

// stageBuckets spread 1µs..~4s: stage shares range from sub-batch
// sketch appends to whole slow requests.
var stageBuckets = metrics.ExponentialBuckets(1e-6, 4, 12)

func newServiceMetrics(reg *metrics.Registry) serviceMetrics {
	m := serviceMetrics{
		requests: reg.NewCounterVec("knwd_http_requests_total",
			"HTTP requests by route and status code.", "route", "code"),
		latency: reg.NewHistogramVec("knwd_http_request_seconds",
			"HTTP request handling latency.", metrics.DefBuckets, "route"),
		ingestKeys: reg.NewCounter("knwd_ingest_keys_total",
			"Keys accepted through POST /v1/ingest."),
		ingestBytes: reg.NewCounter("knwd_ingest_bytes_total",
			"Request body bytes read by POST /v1/ingest."),
		snapshotBytes: reg.NewCounter("knwd_snapshot_bytes_total",
			"Envelope bytes served by GET /v1/snapshot."),
		stages: reg.NewHistogramVec("knwd_stage_seconds",
			"Server-side pipeline stage latency, labeled by stage (body_scan, "+
				"hash and append: a delta-slot buffer write or a direct sketch apply, "+
				"slot_claim, epoch_merge: a drain applying buffered keys, store_ingest, "+
				"peer_forward, gossip_pull, gossip_apply, set_algebra, series).", stageBuckets, "stage"),
	}
	m.stageBodyScan = m.stages.With("body_scan")
	m.stageStoreIngest = m.stages.With("store_ingest")
	reg.NewGaugeVec("knwd_build_info",
		"Build identity; always 1. Labels carry the version, Go runtime, and GOMAXPROCS.",
		"version", "goversion", "gomaxprocs").
		With(version.Version, runtime.Version(), strconv.Itoa(runtime.GOMAXPROCS(0))).Set(1)
	return m
}

// statusWriter captures the response status for the request counter.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// handle mounts h on the mux wrapped with per-route request counting,
// latency observation, and request tracing. route is the metric label
// (the pattern without its method). Tracing costs one header lookup
// when the request is unsampled; when sampled (locally, or because the
// caller forwarded a sampled X-KNW-Trace header), the span rides the
// request context for handlers to annotate, and is recorded at the
// end.
func (s *Server) handle(pattern, route string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		act := s.tracer.StartRequest(route, r.Header.Get(trace.Header))
		if act != nil {
			r = r.WithContext(trace.NewContext(r.Context(), act))
		}
		h(sw, r)
		dur := time.Since(start)
		s.met.requests.With(route, strconv.Itoa(sw.code)).Inc()
		s.met.latency.With(route).Observe(dur.Seconds())
		s.tracer.FinishRequest(act, route, sw.code, start, dur)
	})
}
