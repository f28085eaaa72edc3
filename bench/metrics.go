package main

// metricDef names one reported number. Bound is set on end-to-end metrics
// only: the share of the parent's median by which the metric may get worse
// before a change counts as a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the metrics a user of dio-server would see. Every workload
// reports every one of them, from the untraced run against a real server
// process. BENCHMARK.json repeats this list; a test keeps the two equal.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "p50_ms", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "rss_mb", Unit: "mb", Better: lower, Bound: 0.25},
}

// perLayer are the metrics of single layers. The prefix is the module
// under internal/; client is the load generator and process the outside
// view of the server. A workload that does not reach a layer reports 0.
var perLayer = []metricDef{
	{Name: "client.ops_per_s", Unit: "1/s", Better: higher},
	{Name: "client.p90_ms", Unit: "ms", Better: lower},
	{Name: "client.p99_ms", Unit: "ms", Better: lower},
	{Name: "client.max_ms", Unit: "ms", Better: lower},
	{Name: "client.ops", Unit: "count", Better: higher},
	{Name: "client.failed", Unit: "count", Better: lower},
	{Name: "client.req_bytes_per_op", Unit: "bytes", Better: lower},
	{Name: "client.resp_bytes_per_op", Unit: "bytes", Better: lower},
	{Name: "client.segment_spread", Unit: "ratio", Better: lower},
	{Name: "client.read_p50_ms", Unit: "ms", Better: lower},
	{Name: "client.read_p90_ms", Unit: "ms", Better: lower},
	{Name: "process.gc_pause_ms", Unit: "ms", Better: lower},
	{Name: "process.heap_mb", Unit: "mb", Better: lower},
	{Name: "process.goroutines", Unit: "count", Better: lower},
	{Name: "process.recover_s", Unit: "s", Better: lower},
	{Name: "httpapi.serve_ms", Unit: "ms", Better: lower},
	{Name: "httpapi.self_ms", Unit: "ms", Better: lower},
	{Name: "httpapi.wire_overhead_ms", Unit: "ms", Better: lower},
	{Name: "servecache.gate_wait_ms", Unit: "ms", Better: lower},
	{Name: "servecache.front_self_ms", Unit: "ms", Better: lower},
	{Name: "servecache.hit_ratio", Unit: "ratio", Better: higher},
	{Name: "servecache.coalesced", Unit: "count", Better: higher},
	{Name: "core.ask_ms", Unit: "ms", Better: lower},
	{Name: "core.self_ms", Unit: "ms", Better: lower},
	{Name: "core.retrieve_ms", Unit: "ms", Better: lower},
	{Name: "core.retrieval_hit_ratio", Unit: "ratio", Better: higher},
	{Name: "embedding.embed_ms", Unit: "ms", Better: lower},
	{Name: "vecstore.search_ms", Unit: "ms", Better: lower},
	{Name: "vecstore.vectors_scanned", Unit: "count", Better: lower},
	{Name: "llm.prompt_build_ms", Unit: "ms", Better: lower},
	{Name: "llm.complete_ms", Unit: "ms", Better: lower},
	{Name: "llm.prompt_tokens_per_ask", Unit: "count", Better: lower},
	{Name: "llm.completion_tokens_per_ask", Unit: "count", Better: lower},
	{Name: "llm.cost_cents_per_ask", Unit: "cents", Better: lower},
	{Name: "sandbox.execute_ms", Unit: "ms", Better: lower},
	{Name: "sandbox.self_ms", Unit: "ms", Better: lower},
	{Name: "dashboard.build_ms", Unit: "ms", Better: lower},
	{Name: "promql.parse_ms", Unit: "ms", Better: lower},
	{Name: "promql.exec_ms", Unit: "ms", Better: lower},
	{Name: "promql.samples_per_query", Unit: "count", Better: lower},
	{Name: "promql.steps_per_query", Unit: "count", Better: lower},
	{Name: "promql.allocs_per_query", Unit: "count", Better: lower},
	{Name: "promql.bytes_per_query", Unit: "bytes", Better: lower},
	{Name: "promql.peak_intermediate_bytes", Unit: "bytes", Better: lower},
	{Name: "tsdb.select_ms", Unit: "ms", Better: lower},
	{Name: "tsdb.select_calls_per_query", Unit: "count", Better: lower},
	{Name: "tsdb.series_per_select", Unit: "count", Better: lower},
	{Name: "tsdb.append_ms", Unit: "ms", Better: lower},
	{Name: "tsdb.bytes_per_sample", Unit: "bytes", Better: lower},
	{Name: "tsdb.chunks", Unit: "count", Better: lower},
	{Name: "ingest.decode_ms", Unit: "ms", Better: lower},
	{Name: "ingest.append_ms", Unit: "ms", Better: lower},
	{Name: "ingest.wal_log_ms", Unit: "ms", Better: lower},
	{Name: "ingest.fsync_wait_ms", Unit: "ms", Better: lower},
	{Name: "ingest.wal_bytes_per_sample", Unit: "bytes", Better: lower},
	{Name: "ingest.replayed_samples", Unit: "count", Better: lower},
}

// values maps metric names to measured values.
type values map[string]float64

// outcome is everything the measured server run of one workload yields.
type outcome struct {
	m        *measured
	setups   []float64 // seconds, one per fresh set-up
	recoverS float64   // SIGKILL, restart on the same directory, ready
	// recovered is the restarted server's /metrics.
	recovered exposition
}

// summary is the segment summary of operation class c.
func (o *outcome) summary(c int) segmentSummary {
	return summarize(o.m.classes[c].samples, o.m.segment)
}

// endToEndValues computes the end-to-end metrics.
func (o *outcome) endToEndValues() values {
	return values{
		"setup_s":       median(o.setups),
		"p50_ms":        o.summary(0).p50.mid,
		"cpu_ms_per_op": o.m.cpuS * 1000 / float64(max(o.m.ops(), 1)),
		"rss_mb":        o.m.rssMB,
	}
}

// msOf returns, in ms, the durations and self times of the spans called
// name, and their work counts. Replayed and decorated spans of one name are
// told apart by replayed.
func msOf(spans []span, self []int64, name string, replayed bool) (durs, selfs, ns []float64) {
	for i, s := range spans {
		if s.Name == name && s.Replayed == replayed {
			durs = append(durs, float64(s.dur())/1e6)
			selfs = append(selfs, float64(self[i])/1e6)
			ns = append(ns, float64(s.N))
		}
	}
	return durs, selfs, ns
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// perLayerValues computes the per-layer metrics: client and process from
// the measured server run, the rest from the spans and counts of the lab's
// traced run. Latencies are medians per call.
func perLayerValues(o *outcome, e *expectations, l *lab, t *tracedRun) values {
	v := values{}
	m := o.m
	primary := o.summary(0)

	_, failed, _ := m.failures()
	v["client.ops_per_s"] = primary.opsPerS.mid
	v["client.p90_ms"] = primary.p90.mid
	v["client.p99_ms"], v["client.max_ms"] = m.classes[0].tail()
	v["client.ops"] = float64(m.ops())
	v["client.failed"] = float64(failed)
	var reqBytes, respBytes int64
	for _, c := range m.classes {
		reqBytes += c.reqBytes
		respBytes += c.respBytes
	}
	v["client.req_bytes_per_op"] = ratio(float64(reqBytes), float64(m.ops()))
	v["client.resp_bytes_per_op"] = ratio(float64(respBytes), float64(m.ops()))
	v["client.segment_spread"] = ratio(primary.p50.hi, primary.p50.lo)
	if len(m.classes) > 1 {
		reader := o.summary(1)
		v["client.read_p50_ms"], v["client.read_p90_ms"] = reader.p50.mid, reader.p90.mid
	}

	v["process.gc_pause_ms"] = 1000 * (m.after.sum("dio_go_gc_pause_seconds") - m.before.sum("dio_go_gc_pause_seconds"))
	v["process.heap_mb"] = m.after.sum("dio_go_heap_alloc_bytes") / (1 << 20)
	v["process.goroutines"] = m.after.sum("dio_go_goroutines")
	v["process.recover_s"] = o.recoverS
	walBytes := m.after.sum("dio_wal_bytes_written_total") - m.before.sum("dio_wal_bytes_written_total")
	appended := m.after.sum("dio_ingest_appended_samples_total") - m.before.sum("dio_ingest_appended_samples_total")
	v["ingest.wal_bytes_per_sample"] = ratio(walBytes, appended)
	v["ingest.replayed_samples"] = o.recovered.sum("dio_wal_replay_samples_total")

	self := selfTimes(t.spans)
	med := func(name string, replayed bool) float64 {
		d, _, _ := msOf(t.spans, self, name, replayed)
		return median(d)
	}
	medSelf := func(name string, replayed bool) float64 {
		_, s, _ := msOf(t.spans, self, name, replayed)
		return median(s)
	}

	var serve, serveSelf []float64
	for _, id := range t.primary {
		serve = append(serve, float64(t.spans[id].dur())/1e6)
		serveSelf = append(serveSelf, float64(self[id])/1e6)
	}
	v["httpapi.serve_ms"] = median(serve)
	v["httpapi.self_ms"] = median(serveSelf)
	v["httpapi.wire_overhead_ms"] = primary.p50.mid - v["httpapi.serve_ms"]

	v["servecache.gate_wait_ms"] = med("servecache.gate", false)
	v["servecache.front_self_ms"] = medSelf("servecache.front", false)
	v["servecache.hit_ratio"] = t.front.HitRate()
	v["servecache.coalesced"] = float64(t.front.Coalesced)

	v["core.ask_ms"] = med("core.ask", false)
	v["core.self_ms"] = medSelf("core.ask", false)
	v["core.retrieve_ms"] = med("core.retrieve", true)
	v["core.retrieval_hit_ratio"] = ratio(t.retrievalHit, t.retrievalAll)
	v["embedding.embed_ms"] = med("embedding.embed", true)
	v["vecstore.search_ms"] = med("vecstore.search", true)
	_, _, scanned := msOf(t.spans, self, "vecstore.search", true)
	v["vecstore.vectors_scanned"] = median(scanned)
	v["llm.prompt_build_ms"] = med("llm.prompt_build", true)
	v["llm.complete_ms"] = med("llm.complete", true)
	// Tokens and cost are counts that must repeat exactly for a seed, so
	// they are taken over the workload's whole question cycle, not over
	// however many asks the traced run had time for; a workload whose
	// measured asks are all cache hits calls no model and reports 0.
	if asked, _, _ := msOf(t.spans, self, "core.ask", false); len(asked) > 0 {
		var prompt, completion int
		var cents float64
		for _, a := range e.asks {
			prompt += a.usage.PromptTokens
			completion += a.usage.CompletionTokens
			cents += a.costCents
		}
		v["llm.prompt_tokens_per_ask"] = float64(prompt) / float64(len(e.asks))
		v["llm.completion_tokens_per_ask"] = float64(completion) / float64(len(e.asks))
		v["llm.cost_cents_per_ask"] = cents / float64(len(e.asks))
	}
	v["sandbox.execute_ms"] = med("sandbox.execute", true)
	v["sandbox.self_ms"] = medSelf("sandbox.execute", true)
	v["dashboard.build_ms"] = med("dashboard.build", true)

	queries := float64(l.queries)
	v["promql.parse_ms"] = med("promql.parse", true)
	v["promql.exec_ms"] = medSelf("promql.exec", true)
	v["promql.samples_per_query"] = ratio(float64(l.samples), queries)
	v["promql.steps_per_query"] = ratio(float64(l.steps), queries)
	v["promql.allocs_per_query"] = ratio(float64(l.allocs), queries)
	v["promql.bytes_per_query"] = ratio(float64(l.allocated), queries)
	v["promql.peak_intermediate_bytes"] = float64(l.peakBytes)

	// tsdb.select is measured where it really ran, inside the request.
	selects, _, series := msOf(t.spans, self, "tsdb.select", false)
	v["tsdb.select_ms"] = median(selects)
	v["tsdb.select_calls_per_query"] = ratio(float64(len(selects)), queries)
	v["tsdb.series_per_select"] = mean(series)
	v["tsdb.append_ms"] = med("tsdb.append", true)
	st := l.store.DB().Stats()
	v["tsdb.bytes_per_sample"] = st.BytesPerSample
	v["tsdb.chunks"] = float64(st.Chunks)

	v["ingest.decode_ms"] = med("ingest.decode", true)
	v["ingest.append_ms"] = med("ingest.append", true)
	v["ingest.wal_log_ms"] = med("ingest.wal_log", true)
	v["ingest.fsync_wait_ms"] = med("ingest.fsync_wait", true)
	return v
}
