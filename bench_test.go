// Package dio's root benchmark harness: one testing.B benchmark per table
// and figure of the paper (§4), plus substrate micro-benchmarks. The
// per-experiment benchmarks report execution accuracy (EX%) and cost as
// custom metrics, so `go test -bench=. -benchmem` regenerates the paper's
// evaluation alongside performance numbers:
//
//	BenchmarkTable3a_DIOCopilot    — paper: EX 66%
//	BenchmarkTable3a_DINSQL        — paper: EX 48%
//	BenchmarkTable3a_GPT4Direct    — paper: EX 12%
//	BenchmarkTable3b_GPT4          — paper: EX 66%
//	BenchmarkTable3b_GPT35Turbo    — paper: EX 46%
//	BenchmarkTable3b_TextCurie001  — paper: EX 13%
//	BenchmarkFigure1_*             — the qualitative comparison
//	BenchmarkInferenceCost_*       — paper: 4.25¢ / 0.35¢ per query
package dio

import (
	"context"
	"fmt"
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
	"dio/internal/ingest"
	"dio/internal/llm"
	"dio/internal/promql"
	"dio/internal/sandbox"
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
		cat := catalog.Generate()
		db := tsdb.New()
		cfg := fivegsim.DefaultConfig()
		if _, err := fivegsim.Populate(db, cat, cfg); err != nil {
			envErr = err
			return
		}
		items, err := benchmark.Generate(cat, benchmark.DefaultSize, 7)
		if err != nil {
			envErr = err
			return
		}
		eval, err := benchmark.NewEvaluator(db)
		if err != nil {
			envErr = err
			return
		}
		retriever, err := core.NewRetriever(cat, nil)
		if err != nil {
			envErr = err
			return
		}
		envVal = &benchEnv{cat: cat, db: db, items: items, eval: eval, retriever: retriever}
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

// runEX evaluates the system over the full 200-question benchmark once per
// iteration and reports EX% and ¢/query as benchmark metrics.
func runEX(b *testing.B, sys baselines.QuerySystem) {
	e := env(b)
	ctx := context.Background()
	var last *benchmark.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := e.eval.Evaluate(ctx, sys, e.items)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.StopTimer()
	b.ReportMetric(last.EX(), "EX%")
	b.ReportMetric(last.MeanCostCents, "¢/query")
	b.ReportMetric(float64(last.Total), "questions")
}

// --- Table 3a: end-to-end comparison (paper: 66 / 48 / 12) ----------------

func BenchmarkTable3a_DIOCopilot(b *testing.B) {
	runEX(b, env(b).dio(b, "gpt-4"))
}

func BenchmarkTable3a_DINSQL(b *testing.B) {
	e := env(b)
	runEX(b, baselines.NewDINSQL(e.cat, llm.MustNew("gpt-4"), 600, 11))
}

func BenchmarkTable3a_GPT4Direct(b *testing.B) {
	e := env(b)
	runEX(b, baselines.NewDirect(e.cat, llm.MustNew("gpt-4"), 600, 11))
}

// --- Table 3b: foundation-model ablation (paper: 66 / 46 / 13) -------------

func BenchmarkTable3b_GPT4(b *testing.B) {
	runEX(b, env(b).dio(b, "gpt-4"))
}

func BenchmarkTable3b_GPT35Turbo(b *testing.B) {
	runEX(b, env(b).dio(b, "gpt-3.5-turbo"))
}

func BenchmarkTable3b_TextCurie001(b *testing.B) {
	runEX(b, env(b).dio(b, "text-curie-001"))
}

// --- Figure 1: qualitative comparison ---------------------------------------

// BenchmarkFigure1_ChatGPT measures the raw chat model's (non-)answer to
// the PDU-session question with no operator context.
func BenchmarkFigure1_ChatGPT(b *testing.B) {
	model := llm.MustNew("gpt-4")
	for i := 0; i < b.N; i++ {
		_, err := model.Complete(llm.Request{
			Kind:   llm.KindAnswerDirect,
			Prompt: &llm.Prompt{Question: "How many PDU sessions are currently active?"},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure1_DIOCopilot measures the full pipeline answering the
// same question, reporting the per-question cost.
func BenchmarkFigure1_DIOCopilot(b *testing.B) {
	dio := env(b).dio(b, "gpt-4")
	ctx := context.Background()
	var cost float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ans, err := dio.Copilot.Ask(ctx, "How many PDU sessions are currently active?")
		if err != nil {
			b.Fatal(err)
		}
		if ans.ExecErr != nil {
			b.Fatal(ans.ExecErr)
		}
		cost = ans.CostCents
	}
	b.StopTimer()
	b.ReportMetric(cost, "¢/query")
}

// --- §4.2.5: inference cost (paper: 4.25¢ GPT-4, 0.35¢ GPT-3.5-turbo) -------

func BenchmarkInferenceCost_GPT4(b *testing.B)       { runEX(b, env(b).dio(b, "gpt-4")) }
func BenchmarkInferenceCost_GPT35Turbo(b *testing.B) { runEX(b, env(b).dio(b, "gpt-3.5-turbo")) }

// --- Ablation benches (extensions) ------------------------------------------

// BenchmarkAblation_ContextSize sweeps the top-K context size.
func BenchmarkAblation_ContextSize(b *testing.B) {
	e := env(b)
	for _, k := range []int{5, 15, 29, 60} {
		b.Run(fmt.Sprintf("topK=%d", k), func(b *testing.B) {
			opts := core.DefaultOptions()
			opts.TopK = k
			cp, err := core.New(core.Config{Catalog: e.cat, TSDB: e.db, Model: llm.MustNew("gpt-4"), Retriever: e.retriever, Options: opts})
			if err != nil {
				b.Fatal(err)
			}
			runEX(b, &baselines.DIOAdapter{Copilot: cp})
		})
	}
}

// BenchmarkAblation_FewShot sweeps the number of few-shot examples.
func BenchmarkAblation_FewShot(b *testing.B) {
	e := env(b)
	for _, n := range []int{0, 10, 20} {
		b.Run(fmt.Sprintf("fewshot=%d", n), func(b *testing.B) {
			opts := core.DefaultOptions()
			opts.FewShot = n
			cp, err := core.New(core.Config{Catalog: e.cat, TSDB: e.db, Model: llm.MustNew("gpt-4"), Retriever: e.retriever, Options: opts})
			if err != nil {
				b.Fatal(err)
			}
			runEX(b, &baselines.DIOAdapter{Copilot: cp})
		})
	}
}

// --- Substrate micro-benchmarks ---------------------------------------------

func BenchmarkEmbeddingEmbed(b *testing.B) {
	e := env(b)
	m := e.retriever.EmbeddingModel()
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
// workload's and not one query's.
func BenchmarkVecstoreFlatSearch(b *testing.B) {
	e := env(b)
	m := e.retriever.EmbeddingModel()
	flat := vecstore.NewFlat(m.Dim())
	for _, d := range e.cat.Documents() {
		if err := flat.Add(d.ID, m.Embed(d.Text)); err != nil {
			b.Fatal(err)
		}
	}
	var qs []embedding.Vector
	for _, q := range coldQuestions(b, e) {
		qs = append(qs, m.Embed(q))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		flat.Search(qs[i%len(qs)], 29)
	}
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

// BenchmarkIngestPush times one write_read push in process: DecodeBinary
// of 2000 series × 1 sample (40 gNBs × 50 UEs, as bench/ pushes them),
// then Store.Append through the WAL and its fsync. It tracks write_read the
// way BenchmarkCopilotAsk tracks ask_cold.
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
	push := func(i int) {
		b.StopTimer()
		for s := range batch {
			batch[s].Samples[0] = tsdb.Sample{T: int64(i+1) * 1000, V: float64(i * s)}
		}
		body := ingest.EncodeBinary(batch)
		b.StartTimer()
		decoded, err := ingest.DecodeBinary(body)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := st.Append(decoded); err != nil {
			b.Fatal(err)
		}
	}
	push(-1) // the server's series exist after the first push; time the rest
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		push(i)
	}
}

func BenchmarkSimulatorPopulate(b *testing.B) {
	cat := catalog.Generate()
	cfg := fivegsim.DefaultConfig()
	cfg.Duration = 5 * time.Minute
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

func BenchmarkEmbeddingTrain(b *testing.B) {
	e := env(b)
	docs := e.cat.Documents()
	corpus := make([]string, len(docs))
	for i, d := range docs {
		corpus[i] = d.Text
	}
	lex := embedding.DomainLexicon()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		embedding.Train(corpus, lex, embedding.DefaultOptions())
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
				if _, err := eng.QueryRange(ctx, query.q, start.Add(5*time.Minute), end, time.Minute); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
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

// BenchmarkDashboardRender compares serial and parallel panel evaluation
// over an 8-panel dashboard on the range-bench store.
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
	for _, mode := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", 0}} {
		b.Run(mode.name, func(b *testing.B) {
			r := dashboard.NewRenderer(ex, mode.workers)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := r.Render(ctx, d, end, 30*time.Minute, time.Minute, 40); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
