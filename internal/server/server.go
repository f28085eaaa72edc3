// Package server assembles the DIO copilot's HTTP service from a Config;
// cmd/dio-server is its flags plus Run.
package server

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
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
	"dio/internal/tsdb"
)

// Config is dio-server's command line: each field is the flag of the
// matching name, whose usage Flags holds.
type Config struct {
	Addr, Model, StateDir, DataDir                                       string
	Seed                                                                 int64
	Experts                                                              []string
	Debug, SelfScrape                                                    bool
	TraceCapacity, TraceSample, CacheSize, MaxInflight, ActiveQuerySlots int
	Duration, SelfScrapeInterval, TraceSlow, CacheTTL, QueueWait         time.Duration
	Retention, CheckpointInterval, SlowQueryThreshold                    time.Duration
}

// DefaultConfig returns every flag's default; a field left out is zero.
func DefaultConfig() Config {
	return Config{
		Addr: ":8080", Model: "gpt-4", Duration: 2 * time.Hour, Seed: 42,
		Experts:    []string{"r.nakamura", "a.kimura", "m.okafor", "s.ivanova"},
		SelfScrape: true, SelfScrapeInterval: 15 * time.Second,
		TraceCapacity: 256, TraceSample: 1, TraceSlow: time.Second,
		CacheSize: 4096, CacheTTL: 30 * time.Second, MaxInflight: 64, QueueWait: 2 * time.Second,
		CheckpointInterval: 5 * time.Minute, SlowQueryThreshold: time.Second, ActiveQuerySlots: 32,
	}
}

// Flags registers every field of c as a flag on fs, with the field's
// current value as the flag's default: call it on DefaultConfig().
func (c *Config) Flags(fs *flag.FlagSet) {
	fs.StringVar(&c.Addr, "addr", c.Addr, "listen address")
	fs.StringVar(&c.Model, "model", c.Model, "foundation model tier (gpt-4, gpt-3.5-turbo, text-curie-001)")
	fs.DurationVar(&c.Duration, "duration", c.Duration, "simulated trace length")
	fs.Int64Var(&c.Seed, "seed", c.Seed, "simulation seed")
	fs.Func("experts", "comma-separated pre-identified experts", func(s string) error {
		c.Experts = strings.FieldsFunc(s, func(r rune) bool { return r == ',' })
		return nil
	})
	fs.Lookup("experts").DefValue = strings.Join(c.Experts, ",")
	fs.StringVar(&c.StateDir, "state", c.StateDir, "directory for feedback issues (issues.json, written on shutdown) and, without -data-dir, the active-query slot file; empty keeps neither")
	fs.BoolVar(&c.SelfScrape, "selfscrape", c.SelfScrape, "append the server's own dio_* metrics into the TSDB so the copilot can answer questions about itself")
	fs.DurationVar(&c.SelfScrapeInterval, "selfscrape-interval", c.SelfScrapeInterval, "self-scrape period")
	fs.BoolVar(&c.Debug, "debug", c.Debug, "serve net/http/pprof under /debug/pprof/")
	fs.IntVar(&c.TraceCapacity, "trace-capacity", c.TraceCapacity, "request traces retained in memory (0 disables capture)")
	fs.IntVar(&c.TraceSample, "trace-sample", c.TraceSample, "capture one in N requests (1 = every request; explain always captures)")
	fs.DurationVar(&c.TraceSlow, "trace-slow", c.TraceSlow, "requests at least this long get preferential trace retention")
	fs.IntVar(&c.CacheSize, "cache-size", c.CacheSize, "answer-cache entries (0 disables the serving cache)")
	fs.DurationVar(&c.CacheTTL, "cache-ttl", c.CacheTTL, "answer freshness window: cached answers expire once the TSDB head advances past this bucket")
	fs.IntVar(&c.MaxInflight, "max-inflight", c.MaxInflight, "concurrent answer computations admitted (0 disables the gate)")
	fs.DurationVar(&c.QueueWait, "queue-wait", c.QueueWait, "longest a request waits for an admission slot before 429")
	fs.StringVar(&c.DataDir, "data-dir", c.DataDir, "durable ingest directory (WAL + checkpoints); enables POST /api/v1/write, empty runs memory-only")
	fs.DurationVar(&c.Retention, "retention", c.Retention, "drop samples older than this behind the TSDB head (0 keeps everything)")
	fs.DurationVar(&c.CheckpointInterval, "checkpoint-interval", c.CheckpointInterval, "how often the ingest store checkpoints and truncates its WAL")
	fs.DurationVar(&c.SlowQueryThreshold, "slow-query-threshold", c.SlowQueryThreshold, "queries at least this long count as slow in the /debug/queries/slow log")
	fs.IntVar(&c.ActiveQuerySlots, "active-query-slots", c.ActiveQuerySlots, "in-flight queries tracked at once (the crash-survivable queries.active file holds this many slots)")
}

// Validate rejects a configuration the server would otherwise ignore or
// silently replace. 0 keeps its documented "off" meaning.
func (c Config) Validate() error {
	var errs []error
	check := func(bad bool, format string, args ...any) {
		if bad {
			errs = append(errs, fmt.Errorf(format, args...))
		}
	}
	_, err := llm.New(c.Model)
	check(err != nil, "-model: %v", err)
	check(c.Retention > 0 && c.DataDir == "", "-retention needs -data-dir")
	check(c.Retention > 0 && c.CheckpointInterval <= 0, "-retention needs a positive -checkpoint-interval")
	check(c.CacheSize < 0, "-cache-size %d is negative (0 disables the cache)", c.CacheSize)
	check(c.MaxInflight < 0, "-max-inflight %d is negative (0 disables the gate)", c.MaxInflight)
	check(c.TraceCapacity < 0, "-trace-capacity %d is negative (0 disables capture)", c.TraceCapacity)
	check(c.TraceSample < 1, "-trace-sample %d is below 1", c.TraceSample)
	check(c.ActiveQuerySlots <= 0, "-active-query-slots %d is not positive", c.ActiveQuerySlots)
	check(c.SelfScrapeInterval <= 0, "-selfscrape-interval %v is not positive", c.SelfScrapeInterval)
	check(c.TraceSlow <= 0, "-trace-slow %v is not positive", c.TraceSlow)
	check(c.SlowQueryThreshold <= 0, "-slow-query-threshold %v is not positive", c.SlowQueryThreshold)
	return errors.Join(errs...)
}

// Run assembles the server cfg describes and serves it on ln, logging
// through slog.Default, until ctx ends. Then it stops the self-scrape and
// maintenance loops and waits for them, drains HTTP, saves the feedback
// issues, takes a final checkpoint, and closes the store, the
// active-query tracker and ln. It returns the error that stopped assembly
// or serving; a failed shutdown step is logged and the next one runs.
func Run(ctx context.Context, cfg Config, ln net.Listener) error {
	defer ln.Close()
	if err := cfg.Validate(); err != nil {
		return err
	}
	logger := slog.Default().With("app", "dio-server")
	// Start-up logs one "startup phase" line per phase with its duration,
	// so a slow start names its phase.
	phase := func(name string, began time.Time, attrs ...any) {
		logger.Info("startup phase", append([]any{"phase", name, "duration", time.Since(began)}, attrs...)...)
	}

	reg := obs.NewRegistry()
	obs.RegisterRuntimeMetrics(reg)
	var apiOpts []httpapi.Option
	began := time.Now()
	cat := catalog.Generate()
	phase("catalog", began, "metrics", len(cat.Metrics))

	// Durable ingest: the store recovers the TSDB from its newest
	// checkpoint plus WAL replay, and every /api/v1/write lands in the WAL
	// before it is acknowledged.
	db := tsdb.New()
	var store *ingest.Store
	if cfg.DataDir != "" {
		began = time.Now()
		var err error
		if store, err = ingest.OpenStore(cfg.DataDir, ingest.StoreOptions{}); err != nil {
			return fmt.Errorf("opening ingest store: %w", err)
		}
		defer func() {
			if err := store.Close(); err != nil {
				logger.Error("closing ingest store failed", "err", err)
			}
		}()
		store.Instrument(reg)
		apiOpts = append(apiOpts, httpapi.WithIngest(store))
		db = store.DB()
		rs := store.ReplayStats()
		phase("open_store", began, "dir", cfg.DataDir,
			"series", db.NumSeries(), "samples", db.NumSamples(),
			"wal_segments_replayed", rs.Segments, "wal_samples_replayed", rs.Samples,
			"wal_tail_repaired", rs.TailTruncated)
	}
	if db.NumSamples() == 0 {
		sim := fivegsim.DefaultConfig()
		sim.Duration = cfg.Duration
		sim.Seed = cfg.Seed
		began = time.Now()
		rep, err := fivegsim.Populate(db, cat, sim)
		if err != nil {
			return fmt.Errorf("populating TSDB: %w", err)
		}
		phase("populate", began, "trace_duration", cfg.Duration, "steps", rep.Steps,
			"series", rep.Series, "samples", rep.Samples, "ues", rep.SimulatedUEs,
			"end", rep.End.Format(time.RFC3339))
		if store != nil {
			// The simulation wrote straight to the TSDB (not through the
			// WAL); a checkpoint makes the seed durable.
			began = time.Now()
			if err := store.Checkpoint(); err != nil {
				return fmt.Errorf("checkpointing simulated workload: %w", err)
			}
			phase("checkpoint", began, "dir", cfg.DataDir)
		}
	}

	// Self-observability: register the dio_* metrics in the catalog before
	// the copilot trains its retriever, so questions about the copilot
	// itself resolve like any operator question.
	cat.AddSelfMetrics()
	began = time.Now()
	// Validate has checked the model name.
	cp, err := core.New(core.Config{Catalog: cat, TSDB: db, Model: llm.MustNew(cfg.Model), Metrics: reg})
	if err != nil {
		return fmt.Errorf("copilot: %w", err)
	}
	phase("copilot", began)
	if cfg.TraceCapacity > 0 {
		cp.Tracer().EnableCapture(obs.NewTraceStore(cfg.TraceCapacity, cfg.TraceSlow), cfg.TraceSample)
		apiOpts = append(apiOpts, httpapi.WithTracing(cp.Tracer()))
	}

	tracker := feedback.NewTracker(cfg.Experts, nil)
	issuesPath := ""
	if cfg.StateDir != "" {
		if err := os.MkdirAll(cfg.StateDir, 0o755); err != nil {
			return fmt.Errorf("state dir: %w", err)
		}
		issuesPath = filepath.Join(cfg.StateDir, "issues.json")
		if b, err := os.ReadFile(issuesPath); err == nil {
			if tracker, err = feedback.Load(bytes.NewReader(b), nil); err != nil {
				return fmt.Errorf("loading issues: %w", err)
			}
			logger.Info("restored feedback issues", "count", len(tracker.List(-1)))
		}
	}
	feedback.WireCopilot(tracker, cp)
	tracker.Instrument(reg)

	// Query-level profiling: a slow-query log over every engine query and
	// an active-query tracker whose slot file (in -data-dir, falling back
	// to -state) survives kill -9, so a restart can name the queries that
	// were in flight when the process died.
	qlog := obs.NewQueryLog(0, cfg.SlowQueryThreshold)
	qlog.Instrument(reg)
	trackerDir := cfg.DataDir
	if trackerDir == "" {
		trackerDir = cfg.StateDir
	}
	activeq, interrupted, err := obs.NewActiveQueryTracker(trackerDir, cfg.ActiveQuerySlots)
	if err != nil {
		return fmt.Errorf("active-query tracker: %w", err)
	}
	defer activeq.Close()
	for _, e := range interrupted {
		logger.Warn("query interrupted by unclean shutdown",
			"query", e.Query, "kind", e.Kind, "trace_id", e.TraceID, "started", e.Start)
	}
	cp.Executor().ObserveQueries(qlog, activeq)

	apiOpts = append(apiOpts, httpapi.WithMetrics(reg), httpapi.WithQueryObservability(qlog, activeq))
	// Serving-throughput layer: the answer cache with singleflight, plus
	// the admission gate bounding concurrent pipeline runs.
	var answerFront httpapi.AnswerFront
	if cfg.CacheSize > 0 {
		front := servecache.NewFront(servecache.FrontConfig[*core.Answer]{
			Size: cfg.CacheSize, TTL: cfg.CacheTTL, Version: cp.Version, Head: db.HeadTime, Compute: cp.Ask})
		front.Instrument(reg)
		answerFront = front
	}
	var admitter httpapi.Admitter
	if cfg.MaxInflight > 0 {
		gate := servecache.NewGate(cfg.MaxInflight, cfg.QueueWait)
		gate.Instrument(reg)
		admitter = gate
	}
	apiOpts = append(apiOpts, httpapi.WithServingLayer(answerFront, admitter))
	if cfg.Debug {
		apiOpts = append(apiOpts, httpapi.WithPprof())
	}
	srv := &http.Server{
		Handler:           httpapi.New(cp, tracker, logger, apiOpts...),
		ReadHeaderTimeout: 10 * time.Second,
	}

	// Background loops run under loopCtx, and shutdown waits for them
	// before its own checkpoint.
	loopCtx, stopLoops := context.WithCancel(ctx)
	defer stopLoops()
	var loops sync.WaitGroup
	goLoop := func(loop func()) {
		loops.Add(1)
		go func() { defer loops.Done(); loop() }()
	}
	// Self-scrape loop: dogfood the registry into the operator TSDB under
	// job="dio" so /api/v1/ask and /api/v1/query can answer questions
	// about the copilot's own behaviour.
	if cfg.SelfScrape {
		scraper := obs.NewSelfScraper(reg, db, cfg.SelfScrapeInterval, logger)
		goLoop(func() { scraper.Run(loopCtx) })
	}
	// Maintenance loop: periodic checkpoints bound WAL replay time, and
	// retention truncates samples that fell behind the head.
	if store != nil && cfg.CheckpointInterval > 0 {
		goLoop(func() {
			tick := time.NewTicker(cfg.CheckpointInterval)
			defer tick.Stop()
			for {
				select {
				case <-loopCtx.Done():
					return
				case <-tick.C:
					if cfg.Retention > 0 {
						keepAfter := db.HeadTime() - cfg.Retention.Milliseconds()
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
		})
	}

	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	logger.Info("listening", "addr", ln.Addr().String(), "config", fmt.Sprintf("%+v", cfg))
	select {
	case <-ctx.Done():
	case err = <-served:
	}

	logger.Info("shutting down")
	stopLoops()
	loops.Wait()
	shutdownCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		logger.Error("shutdown failed", "err", err)
	}
	if err == nil {
		if err = <-served; errors.Is(err, http.ErrServerClosed) {
			err = nil
		}
	}
	if issuesPath != "" {
		if err := saveIssues(tracker, issuesPath); err != nil {
			logger.Error("saving issues failed", "err", err)
		} else {
			logger.Info("saved feedback issues", "path", issuesPath)
		}
	}
	// A final checkpoint makes the next start replay-free; the deferred
	// store close flushes whatever arrived since.
	if store != nil {
		if err := store.Checkpoint(); err != nil {
			logger.Error("final checkpoint failed", "err", err)
		}
	}
	return err
}

// saveIssues writes the feedback tracker state to a temporary file and
// renames it over path, so a crash never leaves half a file behind.
func saveIssues(t *feedback.Tracker, path string) error {
	var buf bytes.Buffer
	if err := t.Save(&buf); err != nil {
		return err
	}
	if err := os.WriteFile(path+".tmp", buf.Bytes(), 0o644); err != nil {
		return err
	}
	return os.Rename(path+".tmp", path)
}
