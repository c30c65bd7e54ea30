package engine

import (
	"time"

	"cinct"
	"cinct/internal/metrics"
)

// engineMetrics is the engine's instrument set, registered once at New
// so every hot-path update is a lock-free handle operation. Gauges
// whose source of truth already lives in the engine (pool occupancy,
// WAL footprint, cache entries) are scrape-time callbacks instead of
// shadow state that could drift.
type engineMetrics struct {
	reg *metrics.Registry

	queries     *metrics.CounterVec // by query kind
	queryErrors *metrics.Counter
	slow        *metrics.Counter
	latency     *metrics.Histogram // seconds
	cost        *metrics.Histogram // QueryStats.Cost steps
	cacheHits   *metrics.Counter
	cacheMisses *metrics.Counter
	poolWait    *metrics.Histogram // seconds
	appendRows  *metrics.Counter
	sealSec     *metrics.Histogram
	compactSec  *metrics.Histogram

	// Raw-GPS ingestion pipeline.
	gpsPoints   *metrics.Counter
	gpsMatched  *metrics.Counter
	gpsRejected *metrics.CounterVec // by reject reason
	gpsMatchSec *metrics.Histogram

	// Standing queries.
	notifSent    *metrics.Counter
	notifDropped *metrics.Counter
	subsExpired  *metrics.Counter
}

func newEngineMetrics(e *Engine) *engineMetrics {
	reg := metrics.NewRegistry()
	m := &engineMetrics{
		reg:         reg,
		queries:     reg.CounterVec("cinct_queries_total", "Queries accepted by Engine.Search, by kind.", "kind"),
		queryErrors: reg.Counter("cinct_query_errors_total", "Queries that ended in an error."),
		slow:        reg.Counter("cinct_slow_queries_total", "Queries that crossed the slow-query threshold."),
		latency:     reg.Histogram("cinct_query_seconds", "Query wall time from Search to stream completion.", metrics.ExpBuckets(0.0001, 4, 10)),
		cost:        reg.Histogram("cinct_query_cost_steps", "Per-query decode cost (LF steps + timestamp decodes + delta rows).", metrics.ExpBuckets(1, 8, 10)),
		cacheHits:   reg.Counter("cinct_cache_hits_total", "Result-cache hits."),
		cacheMisses: reg.Counter("cinct_cache_misses_total", "Result-cache misses."),
		poolWait:    reg.Histogram("cinct_pool_wait_seconds", "Time admitted queries spent waiting for a worker slot.", metrics.ExpBuckets(0.0001, 4, 8)),
		appendRows:  reg.Counter("cinct_append_rows_total", "Trajectories accepted by Append."),
		sealSec:     reg.Histogram("cinct_seal_seconds", "Seal durations, explicit and threshold-triggered.", metrics.ExpBuckets(0.001, 4, 8)),
		compactSec:  reg.Histogram("cinct_compaction_seconds", "Durations of compaction rounds that merged, in a seal or a Compact call.", metrics.ExpBuckets(0.001, 4, 8)),

		gpsPoints:   reg.Counter("cinct_gps_points_total", "Raw GPS observations received for map matching."),
		gpsMatched:  reg.Counter("cinct_gps_traces_matched_total", "GPS traces map-matched and appended."),
		gpsRejected: reg.CounterVec("cinct_gps_traces_rejected_total", "GPS traces rejected, by reason.", "reason"),
		gpsMatchSec: reg.Histogram("cinct_gps_match_seconds", "Per-trace map-matching wall time.", metrics.ExpBuckets(0.0001, 4, 10)),

		notifSent:    reg.Counter("cinct_notifications_total", "Standing-query notifications delivered to subscriber buffers."),
		notifDropped: reg.Counter("cinct_notifications_dropped_total", "Standing-query notifications dropped on full subscriber buffers."),
		subsExpired:  reg.Counter("cinct_subscriptions_expired_total", "Subscriptions removed by TTL expiry."),
	}
	reg.GaugeFunc("cinct_pool_inflight", "Worker slots currently held.", func() int64 {
		inflight, _ := e.PoolStats()
		return int64(inflight)
	})
	reg.GaugeFunc("cinct_pool_capacity", "Worker slots total.", func() int64 {
		_, capacity := e.PoolStats()
		return int64(capacity)
	})
	reg.GaugeFunc("cinct_subscriptions_active", "Standing-query subscriptions currently registered.", func() int64 {
		return int64(e.subs.count())
	})
	reg.GaugeFunc("cinct_cache_entries", "Result-cache entries resident.", func() int64 {
		_, _, entries := e.CacheStats()
		return int64(entries)
	})
	reg.GaugeFunc("cinct_wal_segments", "Live WAL segment files across all indexes.", func() int64 {
		segs, _, _ := e.WALStats()
		return int64(segs)
	})
	reg.GaugeFunc("cinct_wal_bytes", "Total WAL bytes on disk across all indexes.", func() int64 {
		_, bytes, _ := e.WALStats()
		return bytes
	})
	reg.GaugeFunc("cinct_wal_fsyncs_total", "Successful WAL fsyncs across all indexes (resets on reload).", func() int64 {
		_, _, fsyncs := e.WALStats()
		return fsyncs
	})
	return m
}

// Metrics returns the registry the engine records into, so the serving
// layer can expose it and register its own series alongside.
func (e *Engine) Metrics() *metrics.Registry { return e.metrics.reg }

// recordQuery closes one query's account: latency and cost histograms
// always, the error counter on failure, and — past the configured
// threshold — one slow-query log line carrying the full QueryStats, so
// an operator can see *why* a query was expensive (scan width, decode
// volume, shard fan-out), not just that it was slow.
func (e *Engine) recordQuery(name string, q cinct.Query, start time.Time, st cinct.QueryStats, qerr error) {
	d := time.Since(start)
	e.metrics.latency.Observe(d.Seconds())
	e.metrics.cost.Observe(float64(st.Cost()))
	if qerr != nil {
		e.metrics.queryErrors.Inc()
	}
	if e.slowQuery > 0 && d >= e.slowQuery {
		e.metrics.slow.Inc()
		e.logf("engine: slow query on %q: kind=%s path_len=%d limit=%d interval=%v took=%s cost=%d stats{%s} err=%v",
			name, q.Kind, len(q.Path), q.Limit, q.Interval != nil, d, st.Cost(), st, qerr)
	}
}
