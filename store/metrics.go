package store

import (
	"time"

	"repro/internal/metrics"
)

// storeMetrics are the store-layer instruments. All handles are
// nil-safe (see internal/metrics), so an unconfigured store pays one
// predictable branch per operation and registers nothing.
type storeMetrics struct {
	entries      *metrics.Gauge   // live registry entries
	ingestedKeys *metrics.Counter // keys accepted by Ingest/IngestHashed
	rotations    *metrics.Counter // window buckets recycled
	ckptSeconds  *metrics.Histogram
	ckptBytes    *metrics.Gauge // size of the last checkpoint file
	ckptTotal    *metrics.Counter
	ckptErrors   *metrics.Counter
	flushSeconds *metrics.Histogram // epoch drain wall time per entry
	flushes      *metrics.Counter   // entry drains that applied keys

	// Cached knwd_stage_seconds series (Config.Stages; nil without a
	// stage vec). Cached once here so the hot path never takes the
	// vec's series-lookup lock.
	stageClaim  *metrics.Histogram // delta-slot CAS claim
	stageHash   *metrics.Histogram // Ingest: hash into a slot buffer, or direct apply
	stageAppend *metrics.Histogram // IngestHashed: buffer copy, or direct apply
	stageMerge  *metrics.Histogram // epoch drain of one entry's buffered keys
}

// initMetrics registers the store instruments on reg (nil disables
// instrumentation) and installs the scrape-time checkpoint-age gauge.
func (s *Store) initMetrics(reg *metrics.Registry) {
	s.met = storeMetrics{
		entries: reg.NewGauge("knwd_store_entries",
			"Number of named sketch entries in the registry."),
		ingestedKeys: reg.NewCounter("knwd_store_ingested_keys_total",
			"Keys accepted into store entries (all-time sketches)."),
		rotations: reg.NewCounter("knwd_store_window_rotations_total",
			"Window ring buckets recycled by lazy rotation."),
		ckptSeconds: reg.NewHistogram("knwd_store_checkpoint_seconds",
			"Wall time of full-store checkpoint writes.",
			metrics.ExponentialBuckets(0.001, 2, 13)), // 1ms .. ~4s
		ckptBytes: reg.NewGauge("knwd_store_checkpoint_bytes",
			"Size of the most recent checkpoint file."),
		ckptTotal: reg.NewCounter("knwd_store_checkpoints_total",
			"Completed checkpoint writes."),
		ckptErrors: reg.NewCounter("knwd_store_checkpoint_errors_total",
			"Checkpoint writes that failed."),
		flushSeconds: reg.NewHistogram("knwd_store_epoch_flush_seconds",
			"Wall time of one entry's epoch drain (slot claims + AddBatch of buffered keys).",
			metrics.ExponentialBuckets(0.00001, 2, 14)), // 10µs .. ~80ms
		flushes: reg.NewCounter("knwd_store_epoch_flushes_total",
			"Entry drains that applied at least one buffered key."),
	}
	if s.cfg.Stages != nil {
		s.met.stageClaim = s.cfg.Stages.With("slot_claim")
		s.met.stageHash = s.cfg.Stages.With("hash")
		s.met.stageAppend = s.cfg.Stages.With("append")
		s.met.stageMerge = s.cfg.Stages.With("epoch_merge")
	}
	reg.NewGaugeFunc("knwd_store_pending_delta_keys",
		"Keys buffered in delta slots but not yet applied to canonical sketches.",
		func() float64 { return float64(s.pendingKeys.Load()) })
	reg.NewGaugeFunc("knwd_store_epoch_lag_seconds",
		"Age of the oldest undrained delta (0 when no deltas are pending).",
		func() float64 {
			if s.pendingKeys.Load() == 0 {
				return 0
			}
			// The backlog started when the dirty list last became
			// non-empty, or at the last flush pass if one ran since.
			since := max(s.dirtySince.Load(), s.lastFlush.Load())
			if since == 0 {
				return 0
			}
			return time.Since(time.Unix(0, since)).Seconds()
		})
	reg.NewGaugeFunc("knwd_store_checkpoint_age_seconds",
		"Seconds since the last successful checkpoint (-1 before the first).",
		func() float64 {
			last := s.lastCkpt.Load()
			if last == 0 {
				return -1
			}
			return time.Since(time.Unix(0, last)).Seconds()
		})
}

// noteCheckpoint records one checkpoint attempt's outcome.
func (s *Store) noteCheckpoint(start time.Time, bytes int, err error) {
	if err != nil {
		s.met.ckptErrors.Inc()
		return
	}
	s.met.ckptSeconds.Observe(time.Since(start).Seconds())
	s.met.ckptBytes.Set(float64(bytes))
	s.met.ckptTotal.Inc()
	s.lastCkpt.Store(time.Now().UnixNano())
}
