package main

// This file is the benchmark's normative vocabulary: the workload and
// metric names, their units, directions and bounds, and the frozen
// sizes of every corpus and operation list. BENCHMARK.json at the repo
// root repeats the names, units, directions and bounds (the driver
// reads that file; `compare` and the tests read this one), and
// TestSpecMatchesBenchmarkJSON keeps the two in step.

// Workload names.
const (
	wCountHTTP      = "count_http"
	wFindLocate     = "find_locate"
	wHotPaths       = "hot_paths"
	wTemporalFind   = "temporal_find"
	wGPSIngestMixed = "gps_ingest_mixed"
)

var workloadNames = []string{wCountHTTP, wFindLocate, wHotPaths, wTemporalFind, wGPSIngestMixed}

// metricSpec describes one reported metric.
type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"` // "lower" or "higher"
	// Bound is the share of the base median by which an end-to-end
	// metric may worsen before `compare` calls it worse. 0 for
	// per-layer metrics, which carry no bound.
	Bound float64 `json:"bound,omitempty"`
	// Layer and Moves document a per-layer metric in a full run's
	// report: the module it measures and the end-to-end metric it
	// should move.
	Layer string `json:"layer,omitempty"`
	Moves string `json:"moves,omitempty"`
}

// endToEnd lists the metrics a user of cinctd sees. Every untraced run
// reports all of them.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "lat_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "lat_p99_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "cpu_us_per_op", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.15},
	{Name: "served_bits_per_symbol", Unit: "bits", Better: "lower", Bound: 0.05},
}

// perLayer lists the single-layer metrics every traced run reports.
// Metrics that exist only on some workloads (the client's per-kind
// latency breakdown, the ingest acknowledgement latency) and counters
// that read 0 unless something is broken (server.errors_total,
// engine.pool_wait_us_per_op, engine.notify_dropped) are printed by the
// runs that have them and kept out of this list, because the driver
// expects every listed metric, as a measured number, from every
// workload.
var perLayer = []metricSpec{
	{Name: "server.self_us_per_op", Unit: "us", Better: "lower", Layer: "server", Moves: "lat_p50_us, ops_per_s, cpu_us_per_op on count_http, hot_paths"},
	{Name: "server.transport_us_per_op", Unit: "us", Better: "lower", Layer: "server", Moves: "lat_p50_us on count_http, hot_paths"},
	{Name: "server.resp_bytes_per_op", Unit: "bytes", Better: "lower", Layer: "server", Moves: "lat_p50_us"},
	{Name: "engine.self_us_per_op", Unit: "us", Better: "lower", Layer: "engine", Moves: "lat_p50_us on hot_paths"},
	{Name: "engine.cache_hit_ratio", Unit: "ratio", Better: "higher", Layer: "engine", Moves: "lat_p50_us on hot_paths"},
	{Name: "engine.cache_entries", Unit: "count", Better: "lower", Layer: "engine", Moves: "peak_rss_mb"},
	{Name: "engine.ingest_gps_us_per_trace", Unit: "us", Better: "lower", Layer: "engine", Moves: "ops_per_s on gps_ingest_mixed"},
	{Name: "engine.append_us_per_row", Unit: "us", Better: "lower", Layer: "engine", Moves: "ops_per_s on gps_ingest_mixed"},
	{Name: "engine.notify_p99_us", Unit: "us", Better: "lower", Layer: "engine", Moves: "lat_p99_us on gps_ingest_mixed"},
	{Name: "engine.seals", Unit: "count", Better: "lower", Layer: "engine", Moves: "lat_p99_us on gps_ingest_mixed"},
	{Name: "engine.seal_ms_p50", Unit: "ms", Better: "lower", Layer: "engine", Moves: "lat_p99_us on gps_ingest_mixed"},
	{Name: "engine.compactions", Unit: "count", Better: "lower", Layer: "engine", Moves: "lat_p99_us on gps_ingest_mixed"},
	{Name: "engine.compact_ms_p50", Unit: "ms", Better: "lower", Layer: "engine", Moves: "lat_p99_us on gps_ingest_mixed"},
	{Name: "cinct.search_us_per_op", Unit: "us", Better: "lower", Layer: "cinct", Moves: "lat_p50_us, cpu_us_per_op on find_locate, temporal_find"},
	{Name: "cinct.lf_steps_per_op", Unit: "count", Better: "lower", Layer: "cinct", Moves: "lat_p50_us on find_locate"},
	{Name: "cinct.decode_steps_per_op", Unit: "count", Better: "lower", Layer: "cinct", Moves: "lat_p50_us on temporal_find"},
	{Name: "cinct.candidates_per_hit", Unit: "ratio", Better: "lower", Layer: "cinct", Moves: "lat_p99_us on find_locate"},
	{Name: "cinct.shards_probed_per_op", Unit: "count", Better: "lower", Layer: "cinct", Moves: "lat_p50_us on find_locate"},
	{Name: "cinct.summary_pruned_per_op", Unit: "count", Better: "higher", Layer: "cinct", Moves: "lat_p50_us on temporal_find"},
	{Name: "cinct.delta_rows_per_op", Unit: "count", Better: "lower", Layer: "cinct", Moves: "lat_p50_us on gps_ingest_mixed"},
	{Name: "cinct.alloc_bytes_per_op", Unit: "bytes", Better: "lower", Layer: "cinct", Moves: "cpu_us_per_op"},
	{Name: "cinct.hot_delta_count_us", Unit: "us", Better: "lower", Layer: "cinct", Moves: "lat_p50_us on gps_ingest_mixed"},
	{Name: "cinct.sealed_count_us", Unit: "us", Better: "lower", Layer: "cinct", Moves: "lat_p50_us on gps_ingest_mixed"},
	{Name: "cinct.build_s", Unit: "s", Better: "lower", Layer: "cinct", Moves: "setup_s"},
	{Name: "cinct.save_v3_s", Unit: "s", Better: "lower", Layer: "cinct", Moves: "setup_s"},
	{Name: "cinct.open_mapped_ms", Unit: "ms", Better: "lower", Layer: "cinct", Moves: "setup_s"},
	{Name: "cinct.load_heap_ms", Unit: "ms", Better: "lower", Layer: "cinct", Moves: "setup_s"},
	{Name: "cinct.v1_bytes", Unit: "bytes", Better: "lower", Layer: "cinct", Moves: "served_bits_per_symbol"},
	{Name: "cinct.v3_bytes", Unit: "bytes", Better: "lower", Layer: "cinct", Moves: "served_bits_per_symbol"},
	{Name: "cinct.v3_over_v1", Unit: "ratio", Better: "lower", Layer: "cinct", Moves: "served_bits_per_symbol"},
	{Name: "core.suffix_range_us_per_op", Unit: "us", Better: "lower", Layer: "core", Moves: "lat_p50_us on count_http"},
	{Name: "core.locate_us_per_occ", Unit: "us", Better: "lower", Layer: "core", Moves: "lat_p50_us, cpu_us_per_op on find_locate"},
	{Name: "core.lf_steps_per_locate", Unit: "count", Better: "lower", Layer: "core", Moves: "lat_p50_us on find_locate"},
	{Name: "core.lf_step_ns", Unit: "ns", Better: "lower", Layer: "core", Moves: "lat_p50_us on find_locate"},
	{Name: "core.extract_ns_per_symbol", Unit: "ns", Better: "lower", Layer: "core", Moves: "lat_p50_us"},
	{Name: "core.bits_per_symbol", Unit: "bits", Better: "lower", Layer: "core", Moves: "served_bits_per_symbol"},
	{Name: "wavelet.hwt_access_rank_ns", Unit: "ns", Better: "lower", Layer: "wavelet", Moves: "core.lf_step_ns"},
	{Name: "bitvec.rrr_rank_ns", Unit: "ns", Better: "lower", Layer: "bitvec", Moves: "core.lf_step_ns"},
	{Name: "bitvec.plain_rank_ns", Unit: "ns", Better: "lower", Layer: "bitvec", Moves: "core.lf_step_ns"},
	{Name: "tempo.at_ns", Unit: "ns", Better: "lower", Layer: "tempo", Moves: "lat_p50_us on temporal_find"},
	{Name: "tempo.decodes_per_at", Unit: "count", Better: "lower", Layer: "tempo", Moves: "lat_p50_us on temporal_find"},
	{Name: "tempo.bits_per_entry", Unit: "bits", Better: "lower", Layer: "tempo", Moves: "served_bits_per_symbol on temporal_find"},
	{Name: "gps.match_us_per_point", Unit: "us", Better: "lower", Layer: "gps", Moves: "ops_per_s, cpu_us_per_op on gps_ingest_mixed"},
	{Name: "gps.accept_ratio", Unit: "ratio", Better: "higher", Layer: "gps", Moves: "ops_per_s on gps_ingest_mixed"},
	{Name: "gps.exact_path_ratio", Unit: "ratio", Better: "higher", Layer: "gps", Moves: "failed"},
	{Name: "mapmatch.alloc_bytes_per_trace", Unit: "bytes", Better: "lower", Layer: "mapmatch", Moves: "cpu_us_per_op on gps_ingest_mixed"},
	{Name: "wal.append_us_per_batch", Unit: "us", Better: "lower", Layer: "wal", Moves: "ops_per_s on gps_ingest_mixed"},
	{Name: "wal.bytes_per_row", Unit: "bytes", Better: "lower", Layer: "wal", Moves: "served_bits_per_symbol on gps_ingest_mixed"},
	{Name: "wal.fsyncs_per_1k_rows", Unit: "count", Better: "lower", Layer: "wal", Moves: "ops_per_s on gps_ingest_mixed"},
	{Name: "wal.replay_ms", Unit: "ms", Better: "lower", Layer: "wal", Moves: "setup_s on gps_ingest_mixed"},
	{Name: "baseline.cinct_v1_bits_per_symbol", Unit: "bits", Better: "lower", Layer: "baseline"},
	{Name: "baseline.cinct_v3_bits_per_symbol", Unit: "bits", Better: "lower", Layer: "baseline"},
	{Name: "baseline.ufmi_bits_per_symbol", Unit: "bits", Better: "lower", Layer: "baseline"},
	{Name: "baseline.icb_wm_bits_per_symbol", Unit: "bits", Better: "lower", Layer: "baseline"},
	{Name: "baseline.icb_huff_bits_per_symbol", Unit: "bits", Better: "lower", Layer: "baseline"},
	{Name: "baseline.fm_ap_bits_per_symbol", Unit: "bits", Better: "lower", Layer: "baseline"},
	{Name: "baseline.fm_inv_bits_per_symbol", Unit: "bits", Better: "lower", Layer: "baseline"},
	{Name: "baseline.press_bits_per_symbol", Unit: "bits", Better: "lower", Layer: "baseline"},
	{Name: "baseline.mel_bits_per_symbol", Unit: "bits", Better: "lower", Layer: "baseline"},
	{Name: "baseline.repair_bits_per_symbol", Unit: "bits", Better: "lower", Layer: "baseline"},
	{Name: "baseline.bwzip_bits_per_symbol", Unit: "bits", Better: "lower", Layer: "baseline"},
	{Name: "baseline.cinct_v1_suffix_range_us", Unit: "us", Better: "lower", Layer: "baseline"},
	{Name: "baseline.cinct_v3_suffix_range_us", Unit: "us", Better: "lower", Layer: "baseline"},
	{Name: "baseline.ufmi_suffix_range_us", Unit: "us", Better: "lower", Layer: "baseline"},
	{Name: "baseline.icb_wm_suffix_range_us", Unit: "us", Better: "lower", Layer: "baseline"},
	{Name: "baseline.icb_huff_suffix_range_us", Unit: "us", Better: "lower", Layer: "baseline"},
	{Name: "baseline.fm_ap_suffix_range_us", Unit: "us", Better: "lower", Layer: "baseline"},
	{Name: "baseline.fm_inv_suffix_range_us", Unit: "us", Better: "lower", Layer: "baseline"},
	{Name: "trace.span_cost_ns", Unit: "ns", Better: "lower", Layer: "trace"},
}

// engineCacheEntries is cinctd's default result-cache capacity. The
// cold workloads push more distinct queries than this through the
// daemon between passes so no timed operation is a cache hit.
const engineCacheEntries = 4096

// cacheEntries is the result-cache capacity the run's daemons have.
func (sz sizes) cacheEntries() int {
	if sz.CacheEntries > 0 {
		return sz.CacheEntries
	}
	return engineCacheEntries
}

// sizes freezes every corpus and operation-list size. The full sizes
// were chosen on the seed commit so that one pass over a workload's
// list takes 1–2 s on a 2-core sandbox (see README.md); -quick shrinks
// everything so that all five workloads finish in a few seconds.
type sizes struct {
	StandardTrajs int `json:"standard_trajs"` // standard corpus: Singapore2 26x26, mean length 45
	LongTrajs     int `json:"long_trajs"`     // long corpus: Singapore2 26x26 with timestamps
	LongMeanLen   int `json:"long_mean_len"`
	GridBase      int `json:"grid_base"`   // grid corpus: noise-free base walks
	GridTraces    int `json:"grid_traces"` // grid corpus: simulated GPS traces in the ingest pool
	GridWalkLen   int `json:"grid_walk_len"`

	CountOps     int `json:"count_ops"`     // count_http: distinct CountOnly queries per pass
	FindOps      int `json:"find_ops"`      // find_locate: distinct Occurrences queries per pass
	HotOps       int `json:"hot_ops"`       // hot_paths: Zipf draws per pass
	HotDistinct  int `json:"hot_distinct"`  // hot_paths: distinct queries drawn from
	TemporalOps  int `json:"temporal_ops"`  // temporal_find: operations per pass
	ReadOps      int `json:"read_ops"`      // gps_ingest_mixed: reader operation list (cycled)
	CacheEntries int `json:"cache_entries"` // cinctd -cache; 0 leaves the daemon's default (the served configuration)
	FlushQueries int `json:"flush_queries"` // distinct count queries that evict the result cache
	SampleMin    int `json:"sample_min"`    // operations per workload checked against brute force

	TraceOps     int `json:"trace_ops"`     // operations replayed per boundary in a traced run
	ProbeTrajs   int `json:"probe_trajs"`   // baseline tier: first trajectories of standard
	ProbeTraces  int `json:"probe_traces"`  // GPS traces replayed by the ingest-side probes
	ProbeQueries int `json:"probe_queries"` // queries timed per micro-probe
}

var fullSizes = sizes{
	StandardTrajs: 60000,
	LongTrajs:     2000,
	LongMeanLen:   1600,
	GridBase:      2000,
	GridTraces:    2400,
	GridWalkLen:   24,

	CountOps:     8000,
	FindOps:      1000,
	HotOps:       10000,
	HotDistinct:  2048,
	TemporalOps:  4000,
	ReadOps:      4000,
	FlushQueries: engineCacheEntries + 128,
	SampleMin:    200,

	TraceOps:     400,
	ProbeTrajs:   4000,
	ProbeTraces:  300,
	ProbeQueries: 2000,
}

var quickSizes = sizes{
	StandardTrajs: 4000,
	LongTrajs:     60,
	LongMeanLen:   400,
	GridBase:      200,
	GridTraces:    60,
	GridWalkLen:   24,

	CountOps:     1000,
	FindOps:      500,
	HotOps:       1000,
	HotDistinct:  256,
	TemporalOps:  1000,
	ReadOps:      400,
	CacheEntries: 256, // a smoke run should not spend its seconds evicting 4,096 entries
	FlushQueries: 256 + 64,
	SampleMin:    50,

	TraceOps:     200,
	ProbeTrajs:   1000,
	ProbeTraces:  16,
	ProbeQueries: 200,
}

// Ingest cadence of gps_ingest_mixed: fixed by row count, never by a
// timer, so seal and compaction points repeat.
const (
	ingestBatch      = 2   // traces per IngestGPS request
	sealThreshold    = 256 // cinctd -seal-threshold
	compactEveryRows = 512 // Compact(full=false) after this many accepted rows
)

// runSeconds is how long one driver run measures (BENCHMARK.json's
// run_seconds and the default of -seconds).
const runSeconds = 10

// workloadWhy is each workload's one-line reason for existing, as
// BENCHMARK.json records it. README.md has the long form.
var workloadWhy = map[string]string{
	wCountHTTP:      "Distinct count queries, never cached: the HTTP path (server, wire, engine) does most of the work and locate none, so a locate or matcher change must not move it.",
	wFindLocate:     "Distinct limit-10 finds on short, frequent paths: every occurrence is located to return ten, so the search core and core locate do nearly all the work.",
	wHotPaths:       "Zipf draws over 2,048 count and find queries that fit the result cache: the engine cache answers and core is bypassed, the control for any locate change.",
	wTemporalFind:   "Interval finds and counts on tail bigrams of long trajectories: candidates are pruned by time, not by limit, so the timestamp layer and its space cost show here.",
	wGPSIngestMixed: "Raw GPS batches map-matched, logged, sealed and compacted on one connection while the other reads; ends with SIGKILL and a restart that must recover every acknowledged row.",
}
