package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"dio/internal/catalog"
	"dio/internal/core"
	"dio/internal/dashboard"
	"dio/internal/embedding"
	"dio/internal/feedback"
	"dio/internal/httpapi"
	"dio/internal/ingest"
	"dio/internal/llm"
	"dio/internal/obs"
	"dio/internal/promql"
	"dio/internal/sandbox"
	"dio/internal/servecache"
	"dio/internal/tenant"
	"dio/internal/tsdb"
	"dio/internal/vecstore"
)

// The values of the dio-server flags the benchmark leaves at their
// defaults, as cmd/dio-server/main.go declares them.
const (
	defaultModel       = "gpt-4"
	defaultExperts     = "r.nakamura,a.kimura,m.okafor,s.ivanova"
	defaultTraceCap    = 256
	defaultTraceSlow   = time.Second
	defaultCacheSize   = 4096
	defaultCacheTTL    = 30 * time.Second
	defaultMaxInflight = 64
	defaultQueueWait   = 2 * time.Second
	defaultWALFsync    = 25 * time.Millisecond
	defaultSlowQuery   = time.Second
	defaultActiveSlots = 32
)

// askSystemPrompt is the system prompt core.Copilot.ask builds its prompts
// with. The layer replay needs it to rebuild the same prompts; replayAsk
// fails when the rebuilt prompts stop matching the answer's token count.
const askSystemPrompt = "You are a data analytics assistant for 5G operator metrics. Identify the relevant metrics and produce a PromQL query answering the question."

// lab is the serving stack built in this process with the constructors and
// default-flag settings of cmd/dio-server/main.go, on a data directory a
// real dio-server populated and checkpointed. It computes the responses the
// server must give, and in a traced run serves the workload itself with
// timing decorators at the seams that are interfaces or funcs: Admitter,
// AnswerFront, FrontConfig.Compute and tsdb.Storage.
type lab struct {
	cat     *catalog.Database
	store   *ingest.Store
	db      tsdb.Storage // the store's TSDB behind the timing decorator
	cp      *core.Copilot
	front   *servecache.Front[*core.Answer]
	srv     *httpapi.Server
	reg     *obs.Registry
	activeq *obs.ActiveQueryTracker
	rec     *recorder
	last    computed

	// Twins for the layer replay: same constructors and options, their own
	// state, so a replay neither hits a cache the request filled nor
	// appends a sample twice.
	retriever *core.Retriever
	flat      *vecstore.Flat
	engine    *promql.Engine
	twinStore *ingest.Store
	partsWAL  *ingest.WAL
	partsDB   *tsdb.DB
	syncs     int

	// Counts taken where the work happens.
	queries   int
	samples   int64
	steps     int64
	allocs    uint64
	allocated uint64
	peakBytes int64
}

// openLab builds the stack on dataDir.
func openLab(dataDir string) (*lab, error) {
	l := &lab{cat: catalog.Generate(), rec: newRecorder()}
	var err error
	l.store, err = ingest.OpenStore(dataDir, ingest.StoreOptions{FsyncInterval: defaultWALFsync, Shards: 1})
	if err != nil {
		return nil, fmt.Errorf("opening ingest store: %w", err)
	}
	if l.store.DB().NumSamples() == 0 {
		l.store.Close()
		return nil, fmt.Errorf("data directory %s holds no checkpointed trace", dataDir)
	}
	l.db = timedStorage{Storage: l.store.DB(), rec: l.rec}

	l.reg = obs.NewRegistry()
	obs.RegisterRuntimeMetrics(l.reg)
	l.cat.AddSelfMetrics()
	model, err := llm.New(defaultModel)
	if err != nil {
		return nil, err
	}
	limits := sandbox.DefaultLimits()
	l.cp, err = core.New(core.Config{Catalog: l.cat, TSDB: l.db, Model: model, Metrics: l.reg, Limits: &limits})
	if err != nil {
		return nil, err
	}
	l.cp.Tracer().EnableCapture(obs.NewTraceStore(defaultTraceCap, defaultTraceSlow), 1)
	tracker := feedback.NewTracker(strings.Split(defaultExperts, ","), nil)
	feedback.WireCopilot(tracker, l.cp)
	tracker.Instrument(l.reg)
	qlog := obs.NewQueryLog(0, defaultSlowQuery)
	qlog.Instrument(l.reg)
	l.activeq, _, err = obs.NewActiveQueryTracker(dataDir, defaultActiveSlots)
	if err != nil {
		return nil, err
	}
	l.cp.Executor().ObserveQueries(qlog, l.activeq)
	l.store.Instrument(l.reg)
	l.front = servecache.NewFront(servecache.FrontConfig[*core.Answer]{
		Size:          defaultCacheSize,
		TTL:           defaultCacheTTL,
		Version:       l.cat.Version,
		TenantVersion: l.cp.TenantVersion,
		Head:          l.store.DB().HeadTime,
		Compute:       timedCompute(l.rec, &l.last, l.cp.Ask),
	})
	l.front.Instrument(l.reg)
	gate := servecache.NewGate(defaultMaxInflight, defaultQueueWait)
	gate.Instrument(l.reg)
	// The server logs every request as text; the lab pays for the same
	// formatting and drops the bytes.
	logger := slog.New(slog.NewTextHandler(io.Discard, nil)).With("app", "dio-server")
	l.srv = httpapi.New(l.cp, tracker, logger,
		httpapi.WithMetrics(l.reg),
		httpapi.WithQueryObservability(qlog, l.activeq),
		httpapi.WithIngest(l.store),
		httpapi.WithTracing(l.cp.Tracer()),
		httpapi.WithServingLayer(timedFront{next: l.front, rec: l.rec}, timedGate{next: gate, rec: l.rec}))
	return l, nil
}

// openTwins builds what the layer replay calls into. scratch is a directory
// for the twins' own WAL files.
func (l *lab) openTwins(scratch string) error {
	var err error
	l.flat = vecstore.NewFlat(embedding.DefaultOptions().Dim)
	l.retriever, err = core.NewRetriever(l.cat, l.flat)
	if err != nil {
		return err
	}
	limits := sandbox.DefaultLimits()
	opts := promql.DefaultEngineOptions()
	opts.MaxSamples, opts.Timeout = limits.MaxSamples, limits.Timeout
	l.engine = promql.NewEngine(l.db, opts)
	l.engine.SetHooks(promql.Hooks{OnRangeEval: func(rs promql.RangeStats) {
		l.peakBytes = max(l.peakBytes, rs.PeakIntermediateBytes)
	}})
	l.twinStore, err = ingest.OpenStore(filepath.Join(scratch, "twin-store"), ingest.StoreOptions{FsyncInterval: defaultWALFsync, Shards: 1})
	if err != nil {
		return err
	}
	l.partsWAL, err = ingest.OpenWAL(filepath.Join(scratch, "twin-wal"), ingest.WALOptions{FsyncInterval: defaultWALFsync})
	if err != nil {
		return err
	}
	l.partsDB = tsdb.New()
	return nil
}

// close releases the lab's files.
func (l *lab) close() error {
	err := errors.Join(l.activeq.Close(), l.store.Close())
	if l.twinStore != nil {
		err = errors.Join(err, l.twinStore.Close())
	}
	if l.partsWAL != nil {
		err = errors.Join(err, l.partsWAL.Close())
	}
	return err
}

// askExpect is what a correct ask response holds, and what computing it
// cost in model tokens.
type askExpect struct {
	query, answer string
	usage         llm.Usage
	costCents     float64
}

// rangeExpect gives the series a query_range must return and the points
// over all of them; points is 0 when the request carries the step count.
type rangeExpect struct{ series, points int }

type expectations struct {
	asks   []askExpect
	ranges []rangeExpect
}

// expect computes, without caches in front of the pipeline, what the server
// must answer to each question and query of w.
func (l *lab) expect(ctx context.Context, w *workload) (*expectations, error) {
	e := &expectations{asks: make([]askExpect, len(w.questions)), ranges: make([]rangeExpect, len(w.ranges))}
	for i, q := range w.questions {
		a, err := l.cp.Ask(ctx, q)
		if err != nil {
			return nil, fmt.Errorf("asking %q: %w", q, err)
		}
		e.asks[i] = askExpect{query: a.Query, answer: a.ValueText, usage: a.Usage, costCents: a.CostCents}
	}
	for i, q := range w.ranges {
		if q == writtenQuery {
			e.ranges[i] = rangeExpect{series: pushInstances}
			continue
		}
		m, err := l.cp.Executor().ExecuteRange(ctx, q, traceStart, traceEnd, traceEnd.Sub(traceStart)/rangeSteps)
		if err != nil {
			return nil, fmt.Errorf("query %q: %w", q, err)
		}
		for _, s := range m {
			e.ranges[i].points += len(s.Samples)
		}
		if e.ranges[i].series = len(m); len(m) == 0 {
			return nil, fmt.Errorf("query %q returns no series", q)
		}
	}
	return e, nil
}

// serve hands one request to Server.ServeHTTP under a root span and returns
// the response and the span's ID.
func (l *lab) serve(r request) (*httptest.ResponseRecorder, int) {
	req := httptest.NewRequest(r.method, r.path, bytes.NewReader(r.body))
	if r.contentType != "" {
		req.Header.Set("Content-Type", r.contentType)
	}
	rr := httptest.NewRecorder()
	l.last = computed{span: -1}
	root := l.rec.span(rootSpan, func() { l.srv.ServeHTTP(rr, req) })
	return rr, root
}

// replayLayers times, under the spans request r just produced, the layers
// that have no seam to decorate.
func (l *lab) replayLayers(ctx context.Context, r request, root int) error {
	if !l.rec.enabled() {
		return nil
	}
	switch r.kind {
	case opAsk:
		if l.last.span < 0 || l.last.answer == nil {
			return nil // answered from the cache: nothing below the front ran
		}
		return l.replayAsk(ctx, l.last.span, l.last.answer)
	case opRange:
		return l.replayQuery(ctx, root, r.query, func(ctx context.Context) error {
			_, err := l.cp.Executor().ExecuteRange(ctx, r.query, r.start, r.end, r.step)
			return err
		}, func(ctx context.Context, expr promql.Expr) error {
			_, err := l.engine.QueryRangeExpr(ctx, expr, r.start, r.end, r.step)
			return err
		})
	case opPush:
		return l.replayPush(root, r.body)
	}
	return nil
}

// replayAsk replays the pipeline stages of one answer under its core.ask
// span: the same calls core.Copilot.ask makes, in its order.
func (l *lab) replayAsk(ctx context.Context, parent int, a *core.Answer) error {
	opts := core.DefaultOptions()
	model := l.cp.Model()
	q := a.Question

	var scored []core.ScoredDoc
	rid := l.rec.replay(parent, "core.retrieve", false, func() { scored = l.retriever.RetrieveScored(q, opts.TopK) })
	var vec embedding.Vector
	l.rec.replay(rid, "embedding.embed", false, func() { vec = l.retriever.EmbeddingModel().Embed(q) })
	sid := l.rec.replay(rid, "vecstore.search", false, func() { l.flat.Search(vec, opts.TopK) })
	l.rec.setN(sid, l.flat.Len())

	builder := &llm.Builder{System: askSystemPrompt, TokenBudget: model.ContextWindow() - opts.MaxOutputTokens}
	clipped := make([]llm.ContextDoc, len(scored))
	for i, s := range scored {
		clipped[i] = llm.ContextDoc{ID: s.Doc.ID, Text: llm.TruncateToTokens(s.Doc.Text, 24)}
	}
	var selPrompt, genPrompt *llm.Prompt
	var selResp, genResp llm.Response
	var err error
	l.rec.replay(parent, "llm.prompt_build", false, func() { selPrompt = builder.Build(clipped, nil, q) })
	l.rec.replay(parent, "llm.complete", false, func() {
		selResp, err = model.Complete(llm.Request{Kind: llm.KindSelectMetrics, Prompt: selPrompt, Temperature: opts.Temperature})
	})
	if err != nil {
		return fmt.Errorf("replaying metric selection for %q: %w", q, err)
	}
	selDocs := make([]llm.ContextDoc, 0, len(selResp.Metrics))
	for _, name := range selResp.Metrics {
		if d, ok := l.retriever.Doc(name); ok {
			selDocs = append(selDocs, llm.ContextDoc{ID: d.ID, Text: llm.TruncateToTokens(d.Text, 24)})
		} else {
			selDocs = append(selDocs, llm.ContextDoc{ID: name})
		}
	}
	fewshot := core.FewShotExamples()
	l.rec.replay(parent, "llm.prompt_build", false, func() { genPrompt = builder.Build(selDocs, fewshot, q) })
	l.rec.replay(parent, "llm.complete", false, func() {
		genResp, err = model.Complete(llm.Request{Kind: llm.KindGenerateQuery, Prompt: genPrompt,
			Metrics: selResp.Metrics, Task: selResp.Task, Temperature: opts.Temperature})
	})
	if err != nil {
		return fmt.Errorf("replaying code generation for %q: %w", q, err)
	}
	if tokens := selResp.Usage.PromptTokens + genResp.Usage.PromptTokens; genResp.Query != a.Query || tokens != a.Usage.PromptTokens {
		return fmt.Errorf("layer replay of %q no longer follows core.Copilot.ask: query %q with %d prompt tokens, the answer has %q with %d",
			q, genResp.Query, tokens, a.Query, a.Usage.PromptTokens)
	}

	var known []*catalog.Metric
	names := make([]string, len(a.Metrics))
	for i, sm := range a.Metrics {
		names[i] = sm.Name
		if m, ok := l.cat.LookupTenant(tenant.Default, sm.Name); ok {
			known = append(known, m)
		}
	}
	if a.Query != "" {
		ts := l.evalTimeFor(names)
		err := l.replayQuery(ctx, parent, a.Query, func(ctx context.Context) error {
			_, err := l.cp.Executor().Execute(ctx, a.Query, ts)
			return err
		}, func(ctx context.Context, expr promql.Expr) error {
			_, err := l.engine.Eval(ctx, expr, ts)
			return err
		})
		// A query the sandbox refuses is part of the answer, not a fault
		// of the replay.
		if err != nil && a.ExecErr == nil {
			return err
		}
	}
	if len(known) > 0 {
		l.rec.replay(parent, "dashboard.build", false, func() { dashboard.ForMetrics("DIO: "+q, known) })
	}
	return nil
}

// evalTimeFor is core.Copilot.evalTimeFor: the newest sample among the
// metrics, else the newest in the store.
func (l *lab) evalTimeFor(metrics []string) time.Time {
	var newest int64
	found := false
	for _, name := range metrics {
		if _, maxT, ok := l.db.MetricTimeRange(name); ok && (!found || maxT > newest) {
			newest, found = maxT, true
		}
	}
	if !found {
		_, newest, _ = l.db.TimeRange()
	}
	return time.UnixMilli(newest)
}

// replayQuery replays one sandboxed query under parent: the whole sandbox
// call, then its parse and its engine evaluation on the twin engine, whose
// selections the storage decorator records as tsdb.select spans.
func (l *lab) replayQuery(ctx context.Context, parent int, query string,
	sandboxed func(context.Context) error, evaluate func(context.Context, promql.Expr) error) error {
	var err error
	xid := l.rec.replay(parent, "sandbox.execute", true, func() { err = sandboxed(ctx) })
	if err != nil {
		return fmt.Errorf("replaying %q in the sandbox: %w", query, err)
	}
	var expr promql.Expr
	l.rec.replay(xid, "promql.parse", false, func() { expr, err = promql.Parse(query) })
	if err != nil {
		return err
	}
	sctx, capture := promql.WithQueryStats(ctx)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	l.rec.replay(xid, "promql.exec", false, func() { err = evaluate(sctx, expr) })
	runtime.ReadMemStats(&after)
	if err != nil {
		return fmt.Errorf("replaying %q on the engine: %w", query, err)
	}
	l.queries++
	l.allocs += after.Mallocs - before.Mallocs
	l.allocated += after.TotalAlloc - before.TotalAlloc
	if qs := capture.Stats(); qs != nil {
		l.samples += qs.Samples
		l.steps += int64(qs.Steps)
	}
	return nil
}

// syncBatch returns a one-sample batch. Appending it returns just after a
// group-commit tick, which is when a closed-loop client's next push
// arrives; the timed append that follows then waits as the server's does.
func (l *lab) syncBatch() []ingest.TimeSeries {
	l.syncs++
	return []ingest.TimeSeries{{
		Labels:  tsdb.NewLabels(tsdb.Label{Name: tsdb.MetricNameLabel, Value: "bench_sync"}),
		Samples: []tsdb.Sample{{T: traceEnd.UnixMilli() + int64(l.syncs), V: 1}},
	}}
}

// alignPush waits for the lab store's next group-commit tick.
func (l *lab) alignPush() error {
	_, err := l.store.Append(l.syncBatch())
	return err
}

// replayPush replays the ingest path of one push under its root span:
// decode, then Store.Append whole on the twin store, then its three parts
// on the twin WAL and TSDB.
func (l *lab) replayPush(root int, body []byte) error {
	var batch []ingest.TimeSeries
	var err error
	l.rec.replay(root, "ingest.decode", false, func() {
		batch, err = ingest.DecodeWriteRequest(bytes.NewReader(body), ingest.ContentTypeBinary)
	})
	if err != nil {
		return err
	}
	if _, err := l.twinStore.Append(l.syncBatch()); err != nil {
		return err
	}
	aid := l.rec.replay(root, "ingest.append", false, func() { _, err = l.twinStore.Append(batch) })
	if err != nil {
		return err
	}
	mark, err := l.partsWAL.Log(l.syncBatch())
	if err == nil {
		err = l.partsWAL.WaitDurable(mark)
	}
	if err != nil {
		return err
	}
	l.rec.replay(aid, "ingest.wal_log", false, func() { mark, err = l.partsWAL.Log(batch) })
	if err != nil {
		return err
	}
	l.rec.replay(aid, "tsdb.append", false, func() {
		for _, ts := range batch {
			if _, _, _, err = l.partsDB.AppendSamples(ts.Labels, ts.Samples); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	l.rec.replay(aid, "ingest.fsync_wait", false, func() { err = l.partsWAL.WaitDurable(mark) })
	return err
}

// registry returns the lab's own /metrics exposition.
func (l *lab) registry() (exposition, error) {
	var buf bytes.Buffer
	if err := l.reg.FormatText(&buf); err != nil {
		return nil, err
	}
	return parseExposition(&buf)
}
