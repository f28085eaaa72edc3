package catalog

// This file registers the copilot's own dio_* self-observability metrics
// in the domain-specific database, so the ask pipeline can answer
// questions about itself ("what is the p95 ask latency over the last
// hour?") the same way it answers questions about the 5G core: the
// retriever indexes these documentation entries, the model selects the
// metric, and the sandbox evaluates the query against the self-scraped
// series in the operator store.

// selfMetricDef is the compact table row a SelfMetrics entry expands from.
type selfMetricDef struct {
	name   string
	typ    MetricType
	unit   string
	labels []string
	desc   string
	// histogram marks families that the self-scraper stores as the three
	// Prometheus series (_bucket, _sum, _count).
	histogram bool
}

var selfMetricDefs = []selfMetricDef{
	// Ask pipeline (internal/core).
	{name: "dio_ask_total", typ: Counter, labels: []string{"outcome"},
		desc: "The number of /api/v1/ask pipeline runs handled by the DIO copilot, partitioned by outcome (ok, error, exec_error)."},
	{name: "dio_ask_duration_seconds", unit: "seconds", histogram: true,
		desc: "End-to-end latency of DIO copilot ask pipeline runs, from question receipt to dashboard assembly."},
	{name: "dio_stage_duration_seconds", unit: "seconds", labels: []string{"stage"}, histogram: true,
		desc: "Per-stage latency of the DIO ask pipeline, partitioned by stage (retrieve, prompt-build, llm, sandbox-exec, dashboard)."},
	{name: "dio_llm_calls_total", typ: Counter, labels: []string{"kind"},
		desc: "The number of foundation-model completions issued by the DIO copilot, partitioned by request kind (select_metrics, generate_query)."},
	{name: "dio_llm_prompt_tokens_total", typ: Counter, unit: "tokens",
		desc: "Cumulative prompt tokens sent to the foundation model by the DIO copilot."},
	{name: "dio_llm_completion_tokens_total", typ: Counter, unit: "tokens",
		desc: "Cumulative completion tokens returned by the foundation model to the DIO copilot."},
	{name: "dio_llm_cost_cents_total", typ: Counter, unit: "cents",
		desc: "Cumulative estimated foundation-model spend of the DIO copilot, in cents."},

	// Sandbox and query engine (internal/sandbox, internal/promql).
	{name: "dio_sandbox_queries_total", typ: Counter, labels: []string{"outcome"},
		desc: "The number of model-generated PromQL queries submitted to the DIO sandbox, partitioned by outcome (executed, rejected, failed)."},
	{name: "dio_sandbox_exec_duration_seconds", unit: "seconds", histogram: true,
		desc: "Wall-clock latency of sandboxed PromQL query execution in the DIO copilot."},
	{name: "dio_sandbox_timeouts_total", typ: Counter,
		desc: "The number of sandboxed DIO queries that hit the wall-clock timeout."},
	// No server registers this family any more; the document stays while
	// ROADMAP item 12 keeps the 3 152-document corpus pinned.
	{name: "dio_promql_queue_wait_seconds", unit: "seconds", histogram: true,
		desc: "Time DIO queries spent waiting for a PromQL engine concurrency slot before evaluating."},
	{name: "dio_promql_samples_loaded", histogram: true,
		desc: "Stored samples touched per DIO PromQL query evaluation."},

	// HTTP API (internal/httpapi).
	{name: "dio_http_requests_total", typ: Counter, labels: []string{"route", "code"},
		desc: "The number of HTTP requests served by the DIO API, partitioned by route pattern and status code."},
	{name: "dio_http_request_duration_seconds", unit: "seconds", labels: []string{"route"}, histogram: true,
		desc: "Latency of HTTP requests served by the DIO API, partitioned by route pattern."},

	// Feedback loop (internal/feedback).
	{name: "dio_feedback_issues", typ: Gauge, labels: []string{"state"},
		desc: "The number of expert feedback issues tracked by the DIO copilot, partitioned by lifecycle state (open, resolved, closed)."},
	{name: "dio_feedback_proposals", typ: Gauge,
		desc: "The number of community contribution proposals recorded by the DIO feedback tracker."},

	// Request-scoped tracing (internal/obs).
	{name: "dio_traces_captured_total", typ: Counter,
		desc: "The number of request-scoped traces the DIO copilot has captured into its in-memory trace store (browsable at /debug/traces)."},

	// Go runtime telemetry (internal/obs).
	{name: "dio_go_goroutines", typ: Gauge,
		desc: "The number of goroutines currently live in the DIO copilot process."},
	{name: "dio_go_heap_alloc_bytes", typ: Gauge, unit: "bytes",
		desc: "Bytes of heap memory currently allocated by the DIO copilot process."},
	{name: "dio_go_heap_objects", typ: Gauge,
		desc: "The number of live heap objects in the DIO copilot process."},
	{name: "dio_go_sys_bytes", typ: Gauge, unit: "bytes",
		desc: "Total bytes of memory the DIO copilot process has obtained from the operating system."},
	{name: "dio_go_gc_cycles", typ: Gauge,
		desc: "Completed garbage-collection cycles in the DIO copilot process."},
	{name: "dio_go_gc_pause_seconds", typ: Gauge, unit: "seconds",
		desc: "Cumulative stop-the-world garbage-collection pause time of the DIO copilot process."},
	{name: "dio_process_uptime_seconds", typ: Gauge, unit: "seconds",
		desc: "Seconds since the DIO copilot process started."},

	// Self-scrape loop (internal/obs).
	{name: "dio_selfscrape_scrapes_total", typ: Counter,
		desc: "The number of self-scrape passes the DIO copilot has run over its own metrics registry."},
	{name: "dio_selfscrape_samples_total", typ: Counter,
		desc: "Cumulative samples the DIO self-scrape loop has appended into the operator time-series store."},
	{name: "dio_selfscrape_errors_total", typ: Counter,
		desc: "The number of samples the DIO self-scrape loop failed to append into the operator time-series store."},

	// Durable streaming ingest (internal/ingest).
	{name: "dio_ingest_appended_samples_total", typ: Counter, unit: "samples",
		desc: "Samples durably appended through the DIO remote-write ingest store (acknowledged only after the write-ahead log fsync)."},
	{name: "dio_ingest_out_of_order_total", typ: Counter, unit: "samples",
		desc: "Remote-write samples the DIO ingest store dropped for being older than the series head."},
	{name: "dio_ingest_duplicate_total", typ: Counter, unit: "samples",
		desc: "Remote-write samples the DIO ingest store dropped for reusing the series head timestamp with a different value."},
	{name: "dio_ingest_checkpoints_total", typ: Counter,
		desc: "Checkpoints (chunked snapshots superseding older write-ahead-log segments) written by the DIO ingest store."},
	{name: "dio_wal_fsync_seconds", unit: "seconds", histogram: true,
		desc: "Latency of write-ahead-log fsyncs in the DIO ingest store (each fsync group-commits every batch written since the previous one)."},
	{name: "dio_wal_bytes_written_total", typ: Counter, unit: "bytes",
		desc: "Bytes of framed records written to the DIO ingest write-ahead log."},
	{name: "dio_wal_replay_samples_total", typ: Counter, unit: "samples",
		desc: "Samples replayed from the write-ahead log when the DIO ingest store last started."},
	{name: "dio_wal_replay_segments_total", typ: Counter,
		desc: "Write-ahead-log segments replayed when the DIO ingest store last started."},
	{name: "dio_tsdb_chunk_bytes", typ: Gauge, unit: "bytes",
		desc: "Bytes held in compressed Gorilla chunks (sealed plus open heads) across every series in the DIO time-series store."},
	{name: "dio_tsdb_bytes_per_sample", typ: Gauge, unit: "bytes",
		desc: "Average encoded bytes per sample stored in the DIO time-series store's compressed chunks."},
	{name: "dio_tsdb_compression_ratio", typ: Gauge,
		desc: "Compression ratio of the DIO time-series store: raw 16-byte samples divided by encoded chunk bytes."},

	// Query-level profiling (internal/obs slow-query log, fed by the
	// engine's finished-query hook; browsable at /debug/queries/slow).
	{name: "dio_query_total", typ: Counter, labels: []string{"kind"},
		desc: "Queries evaluated by the DIO PromQL engine across every surface (asks, dashboard panels, direct API queries), partitioned by kind (instant, range)."},
	{name: "dio_query_slow_total", typ: Counter,
		desc: "DIO PromQL queries whose wall-clock duration reached the slow-query threshold and earned a /debug/queries/slow log entry."},
	{name: "dio_query_duration_seconds", unit: "seconds", histogram: true,
		desc: "Wall-clock duration of DIO PromQL query evaluations, measured by the engine's query-level profiler."},
	{name: "dio_query_samples", unit: "samples", histogram: true,
		desc: "Stored samples touched per DIO PromQL query evaluation, as counted by the query-level profiler feeding the slow-query log."},
}

// SelfMetrics returns the catalog entries for the copilot's dio_* metrics.
// Histogram families expand into the three stored Prometheus series
// (_bucket, _sum, _count), matching what the self-scraper appends.
func SelfMetrics() []*Metric {
	var out []*Metric
	for _, d := range selfMetricDefs {
		if !d.histogram {
			out = append(out, &Metric{
				Name: d.name, NF: "dio", Service: "self", Type: d.typ,
				Unit: d.unit, Labels: append([]string{"job"}, d.labels...),
				Description: d.desc + " Self-observability metric exported by the DIO copilot itself.",
			})
			continue
		}
		out = append(out,
			&Metric{
				Name: d.name + "_bucket", NF: "dio", Service: "self", Type: HistogramBucket,
				Unit: d.unit, Labels: append([]string{"job", "le"}, d.labels...),
				Description: d.desc + " Cumulative histogram bucket counter; use histogram_quantile over its rate for percentiles. Self-observability metric exported by the DIO copilot itself.",
			},
			&Metric{
				Name: d.name + "_sum", NF: "dio", Service: "self", Type: HistogramSum,
				Unit: d.unit, Labels: append([]string{"job"}, d.labels...),
				Description: d.desc + " Histogram sum counter. Self-observability metric exported by the DIO copilot itself.",
			},
			&Metric{
				Name: d.name + "_count", NF: "dio", Service: "self", Type: HistogramCount,
				Labels:      append([]string{"job"}, d.labels...),
				Description: d.desc + " Histogram count counter. Self-observability metric exported by the DIO copilot itself.",
			},
		)
	}
	return out
}

// AddSelfMetrics registers the dio_* self-metrics in the database (no-op
// for names already present). Call before building the retriever index so
// self-observability questions resolve like any operator question.
func (db *Database) AddSelfMetrics() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	added := 0
	for _, m := range SelfMetrics() {
		if _, ok := db.byName[m.Name]; ok {
			continue
		}
		db.Metrics = append(db.Metrics, m)
		db.byName[m.Name] = m
		added++
	}
	if added > 0 {
		db.version.Add(1)
	}
	return added
}
