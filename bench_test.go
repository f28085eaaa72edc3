// Package dio's root benchmark harness: substrate micro-benchmarks over
// the paper's evaluation setup. The paper's tables and figures are
// rendered by TestExperimentsDoc (experiments_test.go), not here.
package dio

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"sync"
	"testing"
	"time"

	"dio/internal/baselines"
	"dio/internal/benchmark"
	"dio/internal/catalog"
	"dio/internal/core"
	"dio/internal/dashboard"
	"dio/internal/embedding"
	"dio/internal/fivegsim"
	"dio/internal/httpapi"
	"dio/internal/ingest"
	"dio/internal/llm"
	"dio/internal/obs"
	"dio/internal/promql"
	"dio/internal/sandbox"
	"dio/internal/servecache"
	"dio/internal/tsdb"
	"dio/internal/vecstore"
)

// benchEnv is the shared expensive fixture: catalog, populated trace,
// benchmark dataset, evaluator and a trained retriever.
type benchEnv struct {
	cat       *catalog.Database
	db        *tsdb.DB
	items     []benchmark.Item
	eval      *benchmark.Evaluator
	retriever *core.Retriever
}

var (
	envOnce sync.Once
	envVal  *benchEnv
	envErr  error
)

func env(b testing.TB) *benchEnv {
	b.Helper()
	envOnce.Do(func() {
		pe, err := benchmark.NewEnv()
		if err != nil {
			envErr = err
			return
		}
		eval, err := benchmark.NewEvaluator(pe.DB)
		if err != nil {
			envErr = err
			return
		}
		envVal = &benchEnv{cat: pe.Catalog, db: pe.DB, items: pe.Items, eval: eval, retriever: pe.Retriever}
	})
	if envErr != nil {
		b.Fatal(envErr)
	}
	return envVal
}

func (e *benchEnv) dio(b testing.TB, model string) *baselines.DIOAdapter {
	b.Helper()
	cp, err := core.New(core.Config{Catalog: e.cat, TSDB: e.db, Model: llm.MustNew(model), Retriever: e.retriever})
	if err != nil {
		b.Fatal(err)
	}
	return &baselines.DIOAdapter{Copilot: cp}
}

// --- Substrate micro-benchmarks ---------------------------------------------

// BenchmarkEmbeddingEmbed times embedding one question, the part of an
// uncached ask that BenchmarkRetrieverRetrieve does not split out.
func BenchmarkEmbeddingEmbed(b *testing.B) {
	e := env(b)
	m := e.retriever.EmbeddingModel()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Embed("What is the initial registration success rate at the AMF?")
	}
}

// coldQuestions returns 1024 distinct generated questions, the ask_cold
// workload's set. Cycled in order they never hit the 512-entry retrieval
// LRU, so a benchmark replaying them times retrieval, not the cache.
func coldQuestions(b *testing.B, e *benchEnv) []string {
	b.Helper()
	items, err := benchmark.Generate(e.cat, 4000, 1)
	if err != nil {
		b.Fatal(err)
	}
	seen := make(map[string]bool)
	var out []string
	for _, it := range items {
		if !seen[it.Question] {
			seen[it.Question] = true
			out = append(out, it.Question)
		}
	}
	if len(out) < 1024 {
		b.Fatalf("only %d distinct questions", len(out))
	}
	return out[:1024]
}

// BenchmarkRetrieverRetrieve times an uncached retrieval: embed, flat
// scan, document lookup (see coldQuestions).
func BenchmarkRetrieverRetrieve(b *testing.B) {
	e := env(b)
	qs := coldQuestions(b, e)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.retriever.Retrieve(qs[i%len(qs)], 29)
	}
}

// BenchmarkVecstoreFlatSearch times the exact scan alone over the
// embedded cold questions, so the share of rows it prunes is the
// workload's and not one query's. Before timing it checks every question
// against the definition of the search, embedding.Dot per document and a
// full sort by score then id, to the last bit of every score, so a run at
// -benchtime 1x is a correctness check.
func BenchmarkVecstoreFlatSearch(b *testing.B) {
	e := env(b)
	m := e.retriever.EmbeddingModel()
	docs := e.cat.Documents()
	flat := vecstore.NewFlat(m.Dim())
	vecs := make([]embedding.Vector, len(docs))
	for i, d := range docs {
		vecs[i] = m.Embed(d.Text)
		if err := flat.Add(d.ID, vecs[i]); err != nil {
			b.Fatal(err)
		}
	}
	var qs []embedding.Vector
	for _, q := range coldQuestions(b, e) {
		qs = append(qs, m.Embed(q))
	}
	if !flatSearchChecked { // the reference takes seconds: once a process
		for i, q := range qs {
			got, want := flat.Search(q, 29), flatReference(q, docs, vecs, 29)
			if len(got) != len(want) {
				b.Fatalf("cold question %d: %d hits, want %d", i, len(got), len(want))
			}
			for j := range want {
				if got[j].ID != want[j].ID || math.Float64bits(got[j].Score) != math.Float64bits(want[j].Score) {
					b.Fatalf("cold question %d, hit %d: got %s %v, want %s %v", i, j, got[j].ID, got[j].Score, want[j].ID, want[j].Score)
				}
			}
		}
		flatSearchChecked = true
	}
	b.ReportAllocs()
	b.ResetTimer()
	cpu0, _ := processCPU()
	for i := 0; i < b.N; i++ {
		flat.Search(qs[i%len(qs)], 29)
	}
	reportCPU(b, cpu0)
}

var flatSearchChecked bool

// flatReference is what Flat.Search must return: every document scored by
// embedding.Dot, sorted by score descending then id ascending, the first k.
func flatReference(q embedding.Vector, docs []catalog.Document, vecs []embedding.Vector, k int) []vecstore.Result {
	res := make([]vecstore.Result, len(docs))
	for i, d := range docs {
		res[i] = vecstore.Result{ID: d.ID, Score: embedding.Dot(q, vecs[i])}
	}
	sort.Slice(res, func(i, j int) bool {
		if res[i].Score != res[j].Score {
			return res[i].Score > res[j].Score
		}
		return res[i].ID < res[j].ID
	})
	return res[:k]
}

func BenchmarkVecstoreIVFSearch(b *testing.B) {
	e := env(b)
	m := e.retriever.EmbeddingModel()
	ivf := vecstore.NewIVF(m.Dim(), 64, 8, 3)
	for _, d := range e.cat.Documents() {
		if err := ivf.Add(d.ID, m.Embed(d.Text)); err != nil {
			b.Fatal(err)
		}
	}
	if err := ivf.Build(10); err != nil {
		b.Fatal(err)
	}
	q := m.Embed("PDU session establishment failures")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ivf.Search(q, 29)
	}
}

func BenchmarkPromQLSimpleSum(b *testing.B) {
	e := env(b)
	ex := sandbox.New(e.db, sandbox.DefaultLimits())
	at := time.UnixMilli(e.db.HeadTime())
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.Execute(ctx, "sum(smfsm_pdu_sessions_active)", at); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPromQLRateAggregation(b *testing.B) {
	e := env(b)
	ex := sandbox.New(e.db, sandbox.DefaultLimits())
	at := time.UnixMilli(e.db.HeadTime())
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.Execute(ctx, "sum(rate(amfcc_initial_registration_attempt[5m]))", at); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPromQLParse(b *testing.B) {
	const q = "100 * sum(rate(amfcc_n1_auth_success[5m])) / sum(rate(amfcc_n1_auth_attempt[5m]))"
	for i := 0; i < b.N; i++ {
		if _, err := promql.Parse(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTSDBAppend(b *testing.B) {
	db := tsdb.New()
	ls := tsdb.FromMap(map[string]string{"__name__": "bench_metric", "instance": "a"})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.Append(ls, int64(i), float64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIngestPush times one write_read push in process as the server
// serves it: Store.Push of a binary body of 2000 series × 1 sample (40
// gNBs × 50 UEs, as bench/ pushes them), decoded in place and appended
// through the WAL and its fsync. It tracks write_read the way
// BenchmarkCopilotAsk tracks ask_cold, and fails on a push that does not
// append every sample. cpu-ms/op leaves out the untimed encoding.
func BenchmarkIngestPush(b *testing.B) {
	st, err := ingest.OpenStore(b.TempDir(), ingest.StoreOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	batch := make([]ingest.TimeSeries, 0, 2000)
	for g := 0; g < 40; g++ {
		for u := 0; u < 50; u++ {
			batch = append(batch, ingest.TimeSeries{
				Labels: tsdb.NewLabels(
					tsdb.Label{Name: tsdb.MetricNameLabel, Value: "bench_dl_bytes_total"},
					tsdb.Label{Name: "job", Value: "bench"},
					tsdb.Label{Name: "instance", Value: fmt.Sprintf("gnb-%02d", g)},
					tsdb.Label{Name: "ue", Value: fmt.Sprintf("ue-%04d", g*50+u)},
				),
				Samples: make([]tsdb.Sample, 1),
			})
		}
	}
	var untimed time.Duration // CPU spent with the timer stopped
	push := func(i int) {
		c0, _ := processCPU()
		b.StopTimer()
		for s := range batch {
			batch[s].Samples[0] = tsdb.Sample{T: int64(i+1) * 1000, V: float64(i * s)}
		}
		body := ingest.EncodeBinary(batch)
		b.StartTimer()
		c1, _ := processCPU()
		untimed += c1 - c0
		as, err := st.Push(bytes.NewReader(body), ingest.ContentTypeBinary)
		if err != nil {
			b.Fatal(err)
		}
		if as.Appended != len(batch) {
			b.Fatalf("push %d appended %+v of %d samples", i, as, len(batch))
		}
	}
	push(-1) // the server's series exist after the first push; time the rest
	b.ReportAllocs()
	b.ResetTimer()
	untimed = 0
	cpu0, _ := processCPU()
	for i := 0; i < b.N; i++ {
		push(i)
	}
	reportCPU(b, cpu0+untimed)
}

// BenchmarkWALReplay times OpenStore over 1.2 M pushed samples that no
// checkpoint covers — 600 pushes of 2 000 series, as write_read sends
// them — the crash recovery write_read's recover_s measures.
func BenchmarkWALReplay(b *testing.B) {
	dir := b.TempDir()
	st, err := ingest.OpenStore(dir, ingest.StoreOptions{})
	if err != nil {
		b.Fatal(err)
	}
	batch := make([]ingest.TimeSeries, 2000)
	for s := range batch {
		batch[s] = ingest.TimeSeries{
			Labels: tsdb.NewLabels(
				tsdb.Label{Name: tsdb.MetricNameLabel, Value: "bench_dl_bytes_total"},
				tsdb.Label{Name: "instance", Value: fmt.Sprintf("gnb-%02d", s/50)},
				tsdb.Label{Name: "ue", Value: fmt.Sprintf("ue-%04d", s)},
			),
			Samples: make([]tsdb.Sample, 1),
		}
	}
	for i := 0; i < 600; i++ {
		for s := range batch {
			batch[s].Samples[0] = tsdb.Sample{T: int64(i+1) * 1000, V: float64(i * s)}
		}
		if _, err := st.Append(batch); err != nil {
			b.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		re, err := ingest.OpenStore(dir, ingest.StoreOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if n := re.ReplayStats().Samples; n != 1_200_000 {
			b.Fatalf("replayed %d samples, want 1 200 000", n)
		}
		b.StopTimer()
		if err := re.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkSimulatorPopulate times the default two-hour trace every
// dio-server, testenv user and example builds at start-up.
func BenchmarkSimulatorPopulate(b *testing.B) {
	cat := catalog.Generate()
	cfg := fivegsim.DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db := tsdb.New()
		if _, err := fivegsim.Populate(db, cat, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCopilotAsk times the whole uncached pipeline: every question
// misses the retrieval LRU (see coldQuestions).
func BenchmarkCopilotAsk(b *testing.B) {
	e := env(b)
	dio := e.dio(b, "gpt-4")
	ctx := context.Background()
	questions := coldQuestions(b, e)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dio.Copilot.Ask(ctx, questions[i%len(questions)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRetrieverBuild times core.NewRetriever on the catalog a
// dio-server indexes, self-metrics included: IDF training, embedding every
// document and filling the flat index, the start-up phase logged as
// "copilot". It tracks setup_s the way BenchmarkSimulatorPopulate does.
func BenchmarkRetrieverBuild(b *testing.B) {
	cat := catalog.Generate()
	cat.AddSelfMetrics()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.NewRetriever(cat, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Select-once range evaluation benches (PR 2) -----------------------------

// rangeBenchDB builds the ~100-series × 200-step workload of the range
// evaluation benchmarks: one counter metric across 100 instances, sampled
// every 15s for 200 minutes.
func rangeBenchDB(b *testing.B) (*tsdb.DB, time.Time, time.Time) {
	b.Helper()
	db := tsdb.New()
	base := time.Date(2026, 7, 6, 0, 0, 0, 0, time.UTC)
	const (
		instances = 100
		minutes   = 200
	)
	for inst := 0; inst < instances; inst++ {
		ls := tsdb.FromMap(map[string]string{
			"__name__": "bench_requests_total",
			"instance": fmt.Sprintf("i%02d", inst),
			"nf":       "amf",
		})
		for s := 0; s <= minutes*4; s++ { // 15s scrapes
			t := base.Add(time.Duration(s) * 15 * time.Second)
			if err := db.Append(ls, t.UnixMilli(), float64(s*(inst+1))); err != nil {
				b.Fatal(err)
			}
		}
	}
	return db, base, base.Add(minutes * time.Minute)
}

// queryRange parses q and evaluates it over [start, end], as a served
// query_range does per request.
func queryRange(ctx context.Context, eng *promql.Engine, q string, start, end time.Time, step time.Duration) (promql.Matrix, error) {
	expr, err := promql.Parse(q)
	if err != nil {
		return nil, err
	}
	return eng.QueryRangeExpr(ctx, expr, start, end, step)
}

// BenchmarkQueryRange measures 195-step range queries over 100 series: a
// plain selector (the gauge-panel shape) and a rate aggregation (the
// counter-panel shape).
func BenchmarkQueryRange(b *testing.B) {
	db, start, end := rangeBenchDB(b)
	queries := []struct{ name, q string }{
		{"selector", "bench_requests_total"},
		{"rate", "sum by (nf) (rate(bench_requests_total[5m]))"},
	}
	for _, query := range queries {
		b.Run(query.name, func(b *testing.B) {
			eng := promql.NewEngine(db, promql.DefaultEngineOptions())
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := queryRange(ctx, eng, query.q, start.Add(5*time.Minute), end, time.Minute); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkQueryRangeWide measures write_read's reader query in process:
// a rate aggregation over 2 000 counters (40 instances × 50 UEs, sampled
// every second for 15 minutes), 200 steps of 3 s over the last 10 minutes.
func BenchmarkQueryRangeWide(b *testing.B) {
	db := tsdb.New()
	base := time.Date(2026, 7, 6, 10, 0, 0, 0, time.UTC)
	const instances, ues, seconds = 40, 50, 15 * 60
	for g := 0; g < instances; g++ {
		for u := 0; u < ues; u++ {
			ls := tsdb.NewLabels(
				tsdb.Label{Name: tsdb.MetricNameLabel, Value: "bench_dl_bytes_total"},
				tsdb.Label{Name: "job", Value: "bench"},
				tsdb.Label{Name: "instance", Value: fmt.Sprintf("gnb-%02d", g)},
				tsdb.Label{Name: "ue", Value: fmt.Sprintf("ue-%04d", g*ues+u)},
			)
			v := 0.0
			for s := 0; s < seconds; s++ {
				v += float64((s*7 + u*13 + g) % 1500)
				if err := db.Append(ls, base.Add(time.Duration(s)*time.Second).UnixMilli(), v); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	end := base.Add((seconds - 1) * time.Second)
	start := end.Add(-199 * 3 * time.Second)
	eng := promql.NewEngine(db, promql.DefaultEngineOptions())
	ctx := context.Background()
	const q = "sum by (instance) (rate(bench_dl_bytes_total[1m]))"
	b.ReportAllocs()
	b.ResetTimer()
	cpu0, _ := processCPU()
	for i := 0; i < b.N; i++ {
		m, err := queryRange(ctx, eng, q, start, end, 3*time.Second)
		if err != nil || len(m) != instances {
			b.Fatalf("%d series, %v", len(m), err)
		}
	}
	reportCPU(b, cpu0)
}

// subqueryShapes are BenchmarkSubqueryRange's queries over the populated
// trace: a subquery over an aggregated rate (of 192 counters), over a bare
// rate and over a plain selector (18 histogram buckets each). Each comes
// with the series its result must hold and the steps of the 2 h range at
// 1 m that each series must have: 120 for a rate, which has no value at
// the trace's first sample, and 121 for a selector.
var subqueryShapes = []struct {
	name, q       string
	series, steps int
}{
	{"agg_rate", `max_over_time(sum by (instance) (rate({__name__=~".+_attempt"}[5m]))[30m:1m])`, 2, 120},
	{"rate", "max_over_time(rate(amfcc_n1_auth_duration_seconds_bucket[5m])[30m:1m])", 18, 120},
	{"selector", "avg_over_time(smfsm_ebi_assignment_duration_seconds_bucket[30m:1m])", 18, 121},
}

// BenchmarkSubqueryRange evaluates each subquery shape as an instant
// query at the trace's end and as a range query over the whole 2 h trace
// at 1 m steps, where consecutive [30m:1m] windows share 29 of their 30
// inner steps.
func BenchmarkSubqueryRange(b *testing.B) {
	eng := promql.NewEngine(env(b).db, promql.DefaultEngineOptions())
	start := time.Date(2026, 7, 6, 8, 0, 0, 0, time.UTC)
	end := start.Add(2 * time.Hour)
	ctx := context.Background()
	for _, s := range subqueryShapes {
		expr, err := promql.Parse(s.q)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(s.name+"/instant", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				v, err := eng.Eval(ctx, expr, end)
				if vec, ok := v.(promql.Vector); err != nil || !ok || len(vec) != s.series {
					b.Fatalf("%s: %v series, want %d: %v", s.q, v, s.series, err)
				}
			}
		})
		b.Run(s.name+"/range", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m, err := eng.QueryRangeExpr(ctx, expr, start, end, time.Minute)
				if err != nil || len(m) != s.series {
					b.Fatalf("%s: %d series, want %d: %v", s.q, len(m), s.series, err)
				}
				for _, ms := range m {
					if len(ms.Samples) != s.steps {
						b.Fatalf("%s: %s has %d steps, want %d", s.q, ms.Labels, len(ms.Samples), s.steps)
					}
				}
			}
		})
	}
}

// reportCPU reports the process CPU time per op since cpu0 as cpu-ms/op.
// Work the executor spreads over idle cores costs CPU but not wall time,
// so wall ms/op alone hides it.
func reportCPU(b *testing.B, cpu0 time.Duration) {
	if cpu, ok := processCPU(); ok {
		b.ReportMetric(float64(cpu-cpu0)/1e6/float64(b.N), "cpu-ms/op")
	}
}

// dashboardQueries are the six query_range shapes of bench/'s dashboard
// workload, each asked for 200 steps of 36 s over the 2 h trace.
var dashboardQueries = []string{
	"smfsm_pdu_sessions_active",
	"sum by (instance) (rate(amfcc_initial_registration_attempt[5m]))",
	"sum(rate(amfmm_paging_attempt[5m]))",
	"upfgtp_tunnels_active",
	"100 * sum(amfcc_initial_registration_success) / sum(amfcc_initial_registration_attempt)",
	"topk(5, sum by (instance) (rate(amfcc_initial_registration_attempt[5m])))",
}

// benchWriter is a ResponseWriter that keeps the status and the body size.
type benchWriter struct {
	h      http.Header
	status int
	n      int
}

func (w *benchWriter) Header() http.Header         { return w.h }
func (w *benchWriter) WriteHeader(code int)        { w.status = code }
func (w *benchWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// BenchmarkQueryRangeServe times one dashboard query_range through
// Server.ServeHTTP on dio-server's wiring (metrics, request tracing, the
// slow-query log and the active-query tracker, a request log line), the
// six queries round-robin: bench/'s dashboard workload without the socket.
func BenchmarkQueryRangeServe(b *testing.B) {
	e := env(b)
	reg := obs.NewRegistry()
	cp, err := core.New(core.Config{Catalog: e.cat, TSDB: e.db, Model: llm.MustNew("gpt-4"), Retriever: e.retriever, Metrics: reg})
	if err != nil {
		b.Fatal(err)
	}
	cp.Tracer().EnableCapture(obs.NewTraceStore(256, time.Second), 1)
	qlog := obs.NewQueryLog(0, time.Second)
	qlog.Instrument(reg)
	activeq, _, err := obs.NewActiveQueryTracker(b.TempDir(), 32)
	if err != nil {
		b.Fatal(err)
	}
	defer activeq.Close()
	cp.Executor().ObserveQueries(qlog, activeq)
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	srv := httpapi.New(cp, nil, logger, httpapi.WithMetrics(reg),
		httpapi.WithQueryObservability(qlog, activeq), httpapi.WithTracing(cp.Tracer()))

	start := time.Date(2026, 7, 6, 8, 0, 0, 0, time.UTC)
	reqs := make([]*http.Request, len(dashboardQueries))
	for i, q := range dashboardQueries {
		v := url.Values{"query": {q}, "start": {start.Format(time.RFC3339)},
			"end": {start.Add(2 * time.Hour).Format(time.RFC3339)}, "step": {"36s"}}
		reqs[i] = httptest.NewRequest("GET", "/api/v1/query_range?"+v.Encode(), nil)
	}
	w := &benchWriter{h: http.Header{}}
	serve := func(r *http.Request) {
		clear(w.h)
		w.status, w.n = http.StatusOK, 0
		srv.ServeHTTP(w, r)
		if w.status != http.StatusOK {
			b.Fatalf("%s: status %d", r.URL.RawQuery, w.status)
		}
	}
	body := 0
	for _, r := range reqs {
		serve(r)
		body += w.n
	}
	b.ReportAllocs()
	b.ResetTimer()
	cpu0, _ := processCPU()
	for i := 0; i < b.N; i++ {
		serve(reqs[i%len(reqs)])
	}
	reportCPU(b, cpu0)
	b.ReportMetric(float64(b.Elapsed().Microseconds())/1000/float64(b.N), "ms/op")
	b.ReportMetric(float64(body)/float64(len(reqs)), "body-B/resp")
}

// BenchmarkAskHitServe times one answer-cache hit through Server.ServeHTTP
// on dio-server's wiring (metrics, request tracing, the answer front and
// the admission gate, a request log line): bench/'s ask_warm workload
// without the socket, a Zipf draw over 256 questions that are all cached.
func BenchmarkAskHitServe(b *testing.B) {
	e := env(b)
	reg := obs.NewRegistry()
	cp, err := core.New(core.Config{Catalog: e.cat, TSDB: e.db, Model: llm.MustNew("gpt-4"), Retriever: e.retriever, Metrics: reg})
	if err != nil {
		b.Fatal(err)
	}
	cp.Tracer().EnableCapture(obs.NewTraceStore(256, time.Second), 1)
	front := servecache.NewFront(servecache.FrontConfig[*core.Answer]{
		Size: 4096, TTL: 30 * time.Second, Version: cp.Version, Head: e.db.HeadTime, Compute: cp.Ask})
	front.Instrument(reg)
	gate := servecache.NewGate(64, 2*time.Second)
	gate.Instrument(reg)
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	srv := httpapi.New(cp, nil, logger, httpapi.WithMetrics(reg),
		httpapi.WithTracing(cp.Tracer()), httpapi.WithServingLayer(front, gate))

	questions := coldQuestions(b, e)[:256]
	reqs := make([]*http.Request, len(questions))
	bodies := make([][]byte, len(questions))
	readers := make([]*bytes.Reader, len(questions))
	for i, q := range questions {
		bodies[i] = []byte(fmt.Sprintf(`{"question":%q}`, q))
		readers[i] = bytes.NewReader(bodies[i])
		reqs[i] = httptest.NewRequest("POST", "/api/v1/ask", readers[i])
		reqs[i].Header.Set("Content-Type", "application/json")
	}
	// A hit must answer 200 from the cache with as many bytes as its miss.
	w := &benchWriter{h: http.Header{}}
	sizes := make([]int, len(reqs))
	serve := func(i int, want string) {
		readers[i].Reset(bodies[i])
		clear(w.h)
		w.status, w.n = http.StatusOK, 0
		srv.ServeHTTP(w, reqs[i])
		if w.status != http.StatusOK || w.h.Get(httpapi.CacheHeader) != want || (want == "hit" && w.n != sizes[i]) {
			b.Fatalf("%s: status %d, cache %q, %d bytes; want 200 %s, %d bytes", bodies[i], w.status, w.h.Get(httpapi.CacheHeader), w.n, want, sizes[i])
		}
	}
	body := 0
	for i := range reqs {
		serve(i, "miss")
		sizes[i] = w.n
		body += w.n
	}
	zipf := rand.NewZipf(rand.New(rand.NewSource(1)), 1.1, 1, uint64(len(reqs)-1))
	order := make([]uint16, 1<<16)
	for i := range order {
		order[i] = uint16(zipf.Uint64())
	}
	b.ReportAllocs()
	b.ResetTimer()
	cpu0, _ := processCPU()
	for i := 0; i < b.N; i++ {
		serve(int(order[i%len(order)]), "hit")
	}
	reportCPU(b, cpu0)
	b.ReportMetric(float64(body)/float64(len(reqs)), "body-B/resp")
}

// BenchmarkSelect compares one-shot instant selection (copying points)
// against the batched zero-copy SelectSeries fetch, using a label-only
// matcher — the case that used to allocate and sort every store key.
func BenchmarkSelect(b *testing.B) {
	db, _, end := rangeBenchDB(b)
	m, err := tsdb.NewMatcher(tsdb.MatchEqual, "nf", "amf")
	if err != nil {
		b.Fatal(err)
	}
	matchers := []*tsdb.Matcher{m}
	ts := end.UnixMilli()
	b.Run("Select", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if pts := db.Select(matchers, ts, 300_000); len(pts) != 100 {
				b.Fatalf("selected %d series", len(pts))
			}
		}
	})
	b.Run("SelectSeries", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if views := db.SelectSeries(matchers); len(views) != 100 {
				b.Fatalf("selected %d series", len(views))
			}
		}
	})
}

// BenchmarkDashboardRender times dashboard.Render over an 8-panel
// dashboard on the range-bench store.
func BenchmarkDashboardRender(b *testing.B) {
	db, _, end := rangeBenchDB(b)
	ex := sandbox.New(db, sandbox.DefaultLimits())
	d := &dashboard.Dashboard{Title: "bench"}
	for p := 0; p < 8; p++ {
		d.Panels = append(d.Panels, dashboard.Panel{
			Title: fmt.Sprintf("p%d", p),
			Query: fmt.Sprintf(`sum(rate(bench_requests_total{instance=~"i%d.*"}[5m]))`, p),
			Kind:  dashboard.KindTimeSeries,
		})
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dashboard.Render(ctx, d, ex, end, 30*time.Minute, time.Minute, 40); err != nil {
			b.Fatal(err)
		}
	}
}
