// Command dio-server runs the DIO copilot as an HTTP service: it generates
// the domain-specific database, simulates the operator workload into the
// TSDB, trains the context extractor and serves the ask/query/feedback
// API.
//
//	dio-server -addr :8080 -model gpt-4 -duration 2h
//
// Endpoints:
//
//	POST /api/v1/ask                      {"question": "..."}
//	POST /api/v1/write                    remote-write (binary or JSON), requires -data-dir
//	GET  /api/v1/query?query=...&time=...
//	GET  /api/v1/query_range?query=...&start=...&end=...&step=5m
//	GET  /api/v1/metrics?q=registration
//	GET  /api/v1/feedback
//	POST /api/v1/feedback                 {"question": "..."}
//	POST /api/v1/feedback/{id}/resolve    {"expert": "...", ...}
//	GET  /debug/plan?query=...&analyze=true
//	GET  /debug/queries
//	GET  /debug/queries/slow
//	GET  /metrics
//	GET  /healthz
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"dio/internal/catalog"
	"dio/internal/core"
	"dio/internal/feedback"
	"dio/internal/fivegsim"
	"dio/internal/httpapi"
	"dio/internal/ingest"
	"dio/internal/llm"
	"dio/internal/obs"
	"dio/internal/servecache"
	"dio/internal/tenant"
	"dio/internal/tsdb"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	modelName := flag.String("model", "gpt-4", "foundation model tier (gpt-4, gpt-3.5-turbo, text-curie-001)")
	duration := flag.Duration("duration", 2*time.Hour, "simulated trace length")
	seed := flag.Int64("seed", 42, "simulation seed")
	experts := flag.String("experts", "r.nakamura,a.kimura,m.okafor,s.ivanova", "comma-separated pre-identified experts")
	stateDir := flag.String("state", "", "directory for feedback issues (issues.json, written on shutdown) and, without -data-dir, the active-query slot file; empty keeps neither")
	selfScrape := flag.Bool("selfscrape", true, "append the server's own dio_* metrics into the TSDB so the copilot can answer questions about itself")
	scrapeInterval := flag.Duration("selfscrape-interval", 15*time.Second, "self-scrape period")
	debug := flag.Bool("debug", false, "serve net/http/pprof under /debug/pprof/")
	traceCapacity := flag.Int("trace-capacity", 256, "request traces retained in memory (0 disables capture)")
	traceSample := flag.Int("trace-sample", 1, "capture one in N requests (1 = every request; explain always captures)")
	traceSlow := flag.Duration("trace-slow", time.Second, "requests at least this long get preferential trace retention")
	cacheSize := flag.Int("cache-size", 4096, "answer-cache entries (0 disables the serving cache)")
	cacheTTL := flag.Duration("cache-ttl", 30*time.Second, "answer freshness window: cached answers expire once the TSDB head advances past this bucket")
	maxInflight := flag.Int("max-inflight", 64, "concurrent answer computations admitted (0 disables the gate)")
	queueWait := flag.Duration("queue-wait", 2*time.Second, "longest a request waits for an admission slot before 429")
	tenantShare := flag.Int("tenant-share", 0, "answer-cache entries one tenant may hold (0 lets a tenant use the whole cache)")
	tenantQuotas := flag.String("tenant-quotas", "", "per-tenant admission QPS quotas, e.g. 'acme=5:10:2,*=1' (tenant=rate[:burst[:weight]], '*' is the default quota)")
	tenantTokens := flag.String("tenant-tokens", "", "bearer-token tenant mapping, e.g. 'tok1=acme,tok2=umbrella'")
	dataDir := flag.String("data-dir", "", "durable ingest directory (WAL + checkpoints); enables POST /api/v1/write, empty runs memory-only")
	retention := flag.Duration("retention", 0, "drop samples older than this behind the TSDB head (0 keeps everything)")
	checkpointEvery := flag.Duration("checkpoint-interval", 5*time.Minute, "how often the ingest store checkpoints and truncates its WAL")
	tsdbShards := flag.Int("tsdb-shards", 1, "TSDB shards: >1 partitions series by fingerprint hash, parallelising ingest and fanning queries out to per-shard partial aggregation")
	slowQuery := flag.Duration("slow-query-threshold", time.Second, "queries at least this long count as slow in the /debug/queries/slow log")
	activeSlots := flag.Int("active-query-slots", 32, "in-flight queries tracked at once (the crash-survivable queries.active file holds this many slots)")
	flag.Parse()

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil)).With("app", "dio-server")
	fatal := func(msg string, err error) {
		logger.Error(msg, "err", err)
		os.Exit(1)
	}

	cat := catalog.Generate()
	var db tsdb.Storage

	// Durable ingest: the store recovers the TSDB from its newest
	// checkpoint plus WAL replay, and every /api/v1/write lands in the WAL
	// before it is acknowledged.
	var store *ingest.Store
	if *dataDir != "" {
		var err error
		store, err = ingest.OpenStore(*dataDir, ingest.StoreOptions{Shards: *tsdbShards})
		if err != nil {
			fatal("opening ingest store", err)
		}
		db = store.DB()
		rs := store.ReplayStats()
		logger.Info("opened durable store", "dir", *dataDir, "shards", store.Shards(),
			"series", db.NumSeries(), "samples", db.NumSamples(),
			"wal_segments_replayed", rs.Segments, "wal_samples_replayed", rs.Samples,
			"wal_tail_repaired", rs.TailTruncated)
	}

	if db == nil || db.NumSamples() == 0 {
		logger.Info("generating catalog and simulating operator workload", "duration", *duration)
		if db == nil {
			if *tsdbShards > 1 {
				db = tsdb.NewSharded(*tsdbShards)
			} else {
				db = tsdb.New()
			}
		}
		cfg := fivegsim.DefaultConfig()
		cfg.Duration = *duration
		cfg.Seed = *seed
		rep, err := fivegsim.Populate(db, cat, cfg)
		if err != nil {
			fatal("populating TSDB", err)
		}
		logger.Info(fmt.Sprint(rep))
		if store != nil {
			// The simulation wrote straight to the TSDB (not through the
			// WAL); a checkpoint makes the seed durable.
			if err := store.Checkpoint(); err != nil {
				fatal("checkpointing simulated workload", err)
			}
			logger.Info("checkpointed simulated workload", "dir", *dataDir)
		}
	}

	// Self-observability: register the dio_* metrics in the catalog before
	// the copilot trains its retriever, so questions about the copilot
	// itself resolve like any operator question.
	reg := obs.NewRegistry()
	obs.RegisterRuntimeMetrics(reg)
	if sh, ok := db.(*tsdb.ShardedDB); ok && store == nil {
		// The durable store registers these itself in Instrument.
		ingest.InstrumentShards(reg, sh)
	}
	if n := cat.AddSelfMetrics(); n > 0 {
		logger.Info("registered dio_* self-metrics in the catalog", "count", n)
	}

	model, err := llm.New(*modelName)
	if err != nil {
		fatal("model", err)
	}
	cp, err := core.New(core.Config{Catalog: cat, TSDB: db, Model: model, Metrics: reg})
	if err != nil {
		fatal("copilot", err)
	}
	if *traceCapacity > 0 {
		cp.Tracer().EnableCapture(obs.NewTraceStore(*traceCapacity, *traceSlow), *traceSample)
		logger.Info("request-trace capture enabled",
			"capacity", *traceCapacity, "sample_every", *traceSample, "slow_threshold", *traceSlow)
	}

	tracker := feedback.NewTracker(splitComma(*experts), nil)
	issuesPath := ""
	if *stateDir != "" {
		if err := os.MkdirAll(*stateDir, 0o755); err != nil {
			fatal("state dir", err)
		}
		issuesPath = filepath.Join(*stateDir, "issues.json")
		if f, err := os.Open(issuesPath); err == nil {
			loaded, lerr := feedback.Load(f, nil)
			f.Close()
			if lerr != nil {
				fatal("loading issues", lerr)
			}
			tracker = loaded
			logger.Info("restored feedback issues", "count", len(tracker.List(-1)))
		}
	}
	feedback.WireCopilot(tracker, cp)
	tracker.Instrument(reg)

	// Query-level profiling: a slow-query log over every engine query and
	// an active-query tracker whose slot file (in -data-dir, falling back
	// to -state) survives kill -9, so a restart can name the queries that
	// were in flight when the process died.
	qlog := obs.NewQueryLog(0, *slowQuery)
	qlog.Instrument(reg)
	trackerDir := *dataDir
	if trackerDir == "" {
		trackerDir = *stateDir
	}
	activeq, interrupted, err := obs.NewActiveQueryTracker(trackerDir, *activeSlots)
	if err != nil {
		fatal("active-query tracker", err)
	}
	defer activeq.Close()
	for _, e := range interrupted {
		logger.Warn("query interrupted by unclean shutdown",
			"query", e.Query, "kind", e.Kind, "trace_id", e.TraceID, "started", e.Start)
	}
	cp.Executor().ObserveQueries(qlog, activeq)
	logger.Info("query profiling enabled", "slow_threshold", *slowQuery,
		"active_slots", *activeSlots, "tracker_dir", trackerDir)

	apiOpts := []httpapi.Option{httpapi.WithMetrics(reg),
		httpapi.WithQueryObservability(qlog, activeq)}
	if store != nil {
		store.Instrument(reg)
		apiOpts = append(apiOpts, httpapi.WithIngest(store))
		logger.Info("remote-write enabled at POST /api/v1/write",
			"retention", *retention, "checkpoint_interval", *checkpointEvery)
	}
	if *traceCapacity > 0 {
		apiOpts = append(apiOpts, httpapi.WithTracing(cp.Tracer()))
	}
	// Serving-throughput layer: the tenant-keyed answer cache with
	// singleflight, plus the weighted-fair admission gate bounding
	// concurrent pipeline runs.
	var answerFront httpapi.AnswerFront
	if *cacheSize > 0 {
		front := servecache.NewFront(servecache.FrontConfig[*core.Answer]{
			Size:          *cacheSize,
			TenantShare:   *tenantShare,
			TTL:           *cacheTTL,
			Version:       cat.Version,
			TenantVersion: cp.TenantVersion,
			Head:          db.HeadTime,
			Compute:       cp.Ask,
		})
		front.Instrument(reg)
		answerFront = front
		logger.Info("answer cache enabled", "size", *cacheSize,
			"tenant_share", *tenantShare, "ttl", *cacheTTL)
	}
	var admitter httpapi.Admitter
	if *maxInflight > 0 {
		gate := servecache.NewGate(*maxInflight, *queueWait)
		if *tenantQuotas != "" {
			quotas, err := tenant.ParseQuotas(*tenantQuotas)
			if err != nil {
				fatal("parsing -tenant-quotas", err)
			}
			gate.SetQuotas(quotas)
			logger.Info("tenant quotas enabled", "tenants", len(quotas))
		}
		gate.Instrument(reg)
		admitter = gate
		logger.Info("admission gate enabled", "max_inflight", *maxInflight, "queue_wait", *queueWait)
	}
	if answerFront != nil || admitter != nil {
		apiOpts = append(apiOpts, httpapi.WithServingLayer(answerFront, admitter))
	}
	if *tenantTokens != "" {
		tokens, err := parseTokens(*tenantTokens)
		if err != nil {
			fatal("parsing -tenant-tokens", err)
		}
		apiOpts = append(apiOpts, httpapi.WithTenantTokens(tokens))
		logger.Info("tenant bearer tokens enabled", "tokens", len(tokens))
	}
	if *debug {
		apiOpts = append(apiOpts, httpapi.WithPprof())
		logger.Info("pprof enabled at /debug/pprof/")
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           httpapi.New(cp, tracker, logger, apiOpts...),
		ReadHeaderTimeout: 10 * time.Second,
	}

	// Self-scrape loop: dogfood the registry into the operator TSDB under
	// job="dio" so /api/v1/ask and /api/v1/query can answer questions
	// about the copilot's own behaviour.
	scrapeCtx, stopScrape := context.WithCancel(context.Background())
	defer stopScrape()
	if *selfScrape {
		scraper := obs.NewSelfScraper(reg, db, *scrapeInterval, logger)
		go scraper.Run(scrapeCtx)
		logger.Info("self-scraping dio_* metrics", "interval", *scrapeInterval)
	}

	// Maintenance loop: periodic checkpoints bound WAL replay time, and
	// retention truncates samples that fell behind the head.
	maintCtx, stopMaint := context.WithCancel(context.Background())
	defer stopMaint()
	if store != nil && *checkpointEvery > 0 {
		go func() {
			tick := time.NewTicker(*checkpointEvery)
			defer tick.Stop()
			for {
				select {
				case <-maintCtx.Done():
					return
				case <-tick.C:
					if *retention > 0 {
						keepAfter := db.HeadTime() - retention.Milliseconds()
						if dropped, err := store.Truncate(keepAfter); err != nil {
							logger.Error("retention truncate failed", "err", err)
						} else if dropped > 0 {
							logger.Info("retention dropped samples", "dropped", dropped, "keep_after", keepAfter)
						}
					} else if err := store.Checkpoint(); err != nil {
						logger.Error("checkpoint failed", "err", err)
					}
				}
			}
		}()
	}

	// Graceful shutdown on SIGINT/SIGTERM.
	done := make(chan struct{})
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
		<-sig
		logger.Info("shutting down")
		stopScrape()
		stopMaint()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			logger.Error("shutdown failed", "err", err)
		}
		if issuesPath != "" {
			if err := saveIssues(tracker, issuesPath); err != nil {
				logger.Error("saving issues failed", "err", err)
			} else {
				logger.Info("saved feedback issues", "path", issuesPath)
			}
		}
		if store != nil {
			// A final checkpoint makes the next start replay-free; the WAL
			// close flushes whatever arrived since.
			if err := store.Checkpoint(); err != nil {
				logger.Error("final checkpoint failed", "err", err)
			}
			if err := store.Close(); err != nil {
				logger.Error("closing ingest store failed", "err", err)
			}
		}
		close(done)
	}()

	logger.Info("listening", "addr", *addr, "model", model.Name(),
		"metrics", len(cat.Metrics), "series", db.NumSeries())
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal("serve", err)
	}
	<-done
}

// saveIssues atomically writes the feedback tracker state.
func saveIssues(t *feedback.Tracker, path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := t.Save(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// parseTokens parses a comma-separated "token=tenant" bearer-token map.
func parseTokens(spec string) (map[string]string, error) {
	out := make(map[string]string)
	for _, part := range splitComma(spec) {
		i := strings.IndexByte(part, '=')
		if i <= 0 || i == len(part)-1 {
			return nil, fmt.Errorf("token mapping %q: want token=tenant", part)
		}
		out[strings.TrimSpace(part[:i])] = part[i+1:]
	}
	return out, nil
}

func splitComma(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}
