package main

// The names below are the benchmark's contract with later issues:
// BENCHMARK.json lists the same workloads and metrics, and
// TestBenchmarkJSON fails when the two drift apart.

// metric is one named number with the direction that is better and,
// for end-to-end metrics, the share of the parent's median by which
// it may worsen before a change counts as a regression.
type metric struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"ingest_reports_per_s", "reports/s", "higher", 0.25},
	{"store_bytes_per_report", "B", "lower", 0.10},
	{"replicate_mb_per_s", "MB/s", "higher", 0.25},
	{"get_p50_us", "us", "lower", 0.25},
	{"scan_window_ms", "ms", "lower", 0.25},
	{"analysis_samples_per_s", "samples/s", "higher", 0.25},
	{"commit_p50_ms", "ms", "lower", 0.25},
	{"api_p50_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// layerMetric is one per-layer number from the traced pass, with the
// prediction written down before measuring: which end-to-end metric
// it should move, and on which workload.
type layerMetric struct {
	Name   string
	Unit   string
	Better string
	Moves  string
	On     string
}

var perLayer = []layerMetric{
	// Durability checkpoints: collect-http only, zero calls elsewhere.
	{"store.sync_s", "s", "lower", "ingest_reports_per_s", "collect-http"},
	{"store.sync_calls", "count", "lower", "ingest_reports_per_s", "collect-http"},
	{"feed.cursor_save_s", "s", "lower", "ingest_reports_per_s", "collect-http"},
	// Block building and file I/O.
	{"store.put_batch_s", "s", "lower", "ingest_reports_per_s", "ingest-direct"},
	{"store.put_batch_calls", "count", "lower", "ingest_reports_per_s", "ingest-direct"},
	{"store.close_s", "s", "lower", "ingest_reports_per_s", "ingest-direct"},
	{"store.block_encode_s", "s", "lower", "ingest_reports_per_s", "ingest-direct"},
	{"store.block_compress_s", "s", "lower", "ingest_reports_per_s", "ingest-direct"},
	{"store.blocks_cut", "count", "lower", "store_bytes_per_report", "collect-http"},
	{"store.raw_bytes", "B", "lower", "store_bytes_per_report", "ingest-direct"},
	{"store.stored_bytes", "B", "lower", "store_bytes_per_report", "ingest-direct"},
	// Feed source and collector.
	{"vtsim.feed_between_s", "s", "lower", "ingest_reports_per_s", "ingest-direct"},
	{"vtsim.feed_envelopes", "count", "higher", "ingest_reports_per_s", "ingest-direct"},
	{"feed.run_s", "s", "lower", "ingest_reports_per_s", "ingest-direct"},
	{"feed.self_s", "s", "lower", "ingest_reports_per_s", "ingest-direct"},
	{"feed.polls", "count", "lower", "ingest_reports_per_s", "collect-http"},
	{"feed.envelopes", "count", "higher", "ingest_reports_per_s", "collect-http"},
	// HTTP path: client, wire, server.
	{"vtclient.feed_call_s", "s", "lower", "ingest_reports_per_s", "collect-http"},
	{"http.roundtrip_s", "s", "lower", "api_p50_ms", "api-mix"},
	{"vtapi.serve_s", "s", "lower", "api_p50_ms", "api-mix"},
	{"vtapi.requests", "count", "lower", "api_p50_ms", "api-mix"},
	{"vtapi.resp_bytes", "B", "lower", "api_p50_ms", "api-mix"},
	{"vtclient.attempts", "count", "lower", "api_p50_ms", "api-mix"},
	{"vtclient.retries", "count", "lower", "api_p50_ms", "api-mix"},
	// Replication.
	{"sync.catchup_s", "s", "lower", "replicate_mb_per_s", "ingest-direct"},
	{"sync.leader_serve_s", "s", "lower", "replicate_mb_per_s", "ingest-direct"},
	{"sync.apply_self_s", "s", "lower", "replicate_mb_per_s", "ingest-direct"},
	{"sync.blocks_applied", "count", "lower", "replicate_mb_per_s", "ingest-direct"},
	{"sync.bytes_applied", "B", "lower", "replicate_mb_per_s", "ingest-direct"},
	{"sync.rounds", "count", "lower", "replicate_mb_per_s", "ingest-direct"},
	{"sync.retries", "count", "lower", "replicate_mb_per_s", "ingest-direct"},
	// Point lookups, cold.
	{"store.open_s", "s", "lower", "get_p50_us", "query"},
	{"store.get_cold_us_p50", "us", "lower", "get_p50_us", "query"},
	{"store.get_cold_us_p99", "us", "lower", "get_p50_us", "query"},
	{"store.block_decodes_per_get", "count", "lower", "get_p50_us", "query"},
	{"store.indexed_months_per_get", "count", "lower", "get_p50_us", "query"},
	// Point lookups, hot: moves nothing gated on query, get_p50_us on live.
	{"store.get_hot_ns", "ns", "lower", "get_p50_us", "live"},
	{"store.cache_hit_ratio", "ratio", "higher", "get_p50_us", "live"},
	{"store.cache_evictions", "count", "lower", "get_p50_us", "live"},
	// Reads beside writes.
	{"store.get_live_us_p99", "us", "lower", "get_p50_us", "live"},
	{"store.put_batch_ms_p99", "ms", "lower", "commit_p50_ms", "live"},
	{"store.read_cuts", "count", "lower", "commit_p50_ms", "live"},
	// Scans.
	{"store.scan_window_ms", "ms", "lower", "scan_window_ms", "query"},
	{"store.scan_pruned_frac", "ratio", "higher", "scan_window_ms", "query"},
	{"store.scan_compressed_bytes", "B", "lower", "scan_window_ms", "query"},
	{"store.scan_columns_skipped", "count", "higher", "scan_window_ms", "query"},
	{"store.census_s", "s", "lower", "analysis_samples_per_s", "query"},
	{"store.census_rows", "count", "higher", "analysis_samples_per_s", "query"},
	// Analyses.
	{"store.iter_all_s", "s", "lower", "analysis_samples_per_s", "query"},
	{"core.series_s", "s", "lower", "analysis_samples_per_s", "query"},
	{"core.flip_matrix_s", "s", "lower", "analysis_samples_per_s", "query"},
	{"core.correlations_s", "s", "lower", "analysis_samples_per_s", "query"},
	{"core.samples", "count", "higher", "analysis_samples_per_s", "query"},
	{"core.multi_report_samples", "count", "higher", "analysis_samples_per_s", "query"},
	// API, by operation.
	{"vtapi.serve_ms_p50.upload", "ms", "lower", "api_p50_ms", "api-mix"},
	{"vtapi.serve_ms_p50.report", "ms", "lower", "api_p50_ms", "api-mix"},
	{"vtapi.serve_ms_p50.rescan", "ms", "lower", "api_p50_ms", "api-mix"},
	{"vtapi.serve_ms_p50.feed", "ms", "lower", "api_p50_ms", "api-mix"},
	{"vtclient.call_ms_p50.upload", "ms", "lower", "api_p50_ms", "api-mix"},
	{"vtclient.call_ms_p50.report", "ms", "lower", "api_p50_ms", "api-mix"},
	{"vtclient.call_ms_p50.rescan", "ms", "lower", "api_p50_ms", "api-mix"},
	{"vtclient.call_ms_p50.feed", "ms", "lower", "api_p50_ms", "api-mix"},
	// Layer probes: direct calls that split vtapi.serve_s.
	{"vtsim.upload_us", "us", "lower", "api_p50_ms", "api-mix"},
	{"vtsim.rescan_us", "us", "lower", "api_p50_ms", "api-mix"},
	{"vtsim.report_us", "us", "lower", "api_p50_ms", "api-mix"},
	{"vtsim.feed_limit_us", "us", "lower", "api_p50_ms", "api-mix"},
	{"engine.scan_us", "us", "lower", "setup_s", "api-mix"},
	{"report.encode_us", "us", "lower", "api_p50_ms", "api-mix"},
	{"report.decode_us", "us", "lower", "api_p50_ms", "api-mix"},
	// Generator honesty.
	{"loadgen.sched_lag_ms_p99", "ms", "lower", "api_p50_ms", "api-mix"},
	{"loadgen.sched_lag_ms_max", "ms", "lower", "api_p50_ms", "api-mix"},
	{"live.reader_lag_ms_p99", "ms", "lower", "get_p50_us", "live"},
	// Too unsteady on this box to gate: the tails move 2x run to run,
	// the full census 1.5x with where its GC cycles fall, and the
	// closed-loop API rate 2x with how the five feed pages of a hundred
	// requests, four fifths of their cost, fall across the lanes. The
	// failure share is never anything but 0 on a good run.
	{"get_p90_us", "us", "lower", "get_p50_us", "query"},
	{"get_p99_us", "us", "lower", "get_p50_us", "live"},
	{"commit_p99_ms", "ms", "lower", "commit_p50_ms", "live"},
	{"api_p99_ms", "ms", "lower", "api_p50_ms", "api-mix"},
	{"census_rows_per_s", "rows/s", "higher", "analysis_samples_per_s", "query"},
	{"api_req_per_s", "req/s", "higher", "api_p50_ms", "api-mix"},
	{"op_fail_frac", "ratio", "lower", "api_p50_ms", "api-mix"},
	// Runtime.
	{"go.alloc_mb", "MB", "lower", "peak_rss_mb", "query"},
	{"go.allocs_per_op", "count", "lower", "peak_rss_mb", "query"},
	{"go.gc_pause_ms", "ms", "lower", "get_p50_us", "live"},
	// Accounting checks of the traced pass itself.
	{"trace.unattributed_frac", "ratio", "lower", "ingest_reports_per_s", "collect-http"},
	{"trace.overhead_frac", "ratio", "lower", "ingest_reports_per_s", "collect-http"},
}

// A region is one timed stretch of the pipeline, and the end-to-end
// metrics it measures. Every workload runs every region, because every
// run reports every end-to-end metric; the workload's own regions get
// half of the run's seconds and the rest share the other half.
type region struct {
	name     string
	run      func(e *env, budget float64) error
	measures []string
}

var (
	regCollect   = region{"collect", (*env).regionCollect, []string{"ingest_reports_per_s", "store_bytes_per_report"}}
	regIngest    = region{"ingest", (*env).regionIngest, []string{"ingest_reports_per_s", "store_bytes_per_report"}}
	regReplicate = region{"replicate", (*env).regionReplicate, []string{"replicate_mb_per_s"}}
	regQuery     = region{"query", (*env).regionQuery, []string{"get_p50_us", "scan_window_ms", "analysis_samples_per_s"}}
	regLive      = region{"live", (*env).regionLive, []string{"get_p50_us", "commit_p50_ms"}}
	regAPI       = region{"api", (*env).regionAPI, []string{"api_p50_ms"}}
)

// workload names are binding: later issues cite them.
type workload struct {
	Name   string
	Why    string
	native []region
	others []region
	// primary is the end-to-end metric whose traced and untraced
	// values give trace.overhead_frac.
	primary string
}

var workloads = []workload{
	{
		Name:    "collect-http",
		Why:     "cmd/vtcollect verbatim: HTTP feed, Sync and cursor checkpoint per 24 h poll; store.Sync does most of the work",
		native:  []region{regCollect},
		others:  []region{regReplicate, regQuery, regLive, regAPI},
		primary: "ingest_reports_per_s",
	},
	{
		Name:    "ingest-direct",
		Why:     "same store write layer with no checkpoints and no HTTP, then leader to follower catch-up: block building, gzip and file I/O do the work",
		native:  []region{regIngest, regReplicate},
		others:  []region{regQuery, regLive, regAPI},
		primary: "ingest_reports_per_s",
	},
	{
		Name:    "query",
		Why:     "analyst side, no writes: cold and hot Get, a prunable and an unprunable scan, and the internal/core analyses over IterAll",
		native:  []region{regQuery},
		others:  []region{regIngest, regReplicate, regLive, regAPI},
		primary: "scan_window_ms",
	},
	{
		Name:    "live",
		Why:     "open loop: paced writer beside a fixed-rate reader on one store, so read-your-writes cuts, cache invalidation and lock sharing show",
		native:  []region{regLive},
		others:  []region{regIngest, regReplicate, regQuery, regAPI},
		primary: "get_p50_us",
	},
	{
		Name:    "api-mix",
		Why:     "service users over HTTP: closed-loop capacity, then the default op mix at a fixed open-loop rate; the store does nothing",
		native:  []region{regAPI},
		others:  []region{regIngest, regReplicate, regQuery, regLive},
		primary: "api_p50_ms",
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}
