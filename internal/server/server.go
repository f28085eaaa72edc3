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

// Config is dio-server's command line: each exported field is the flag
// of the matching name, whose usage Flags holds.
type Config struct {
	Addr, Model, DataDir                    string
	Seed                                    int64
	Experts                                 []string
	Debug, SelfScrape                       bool
	Duration, SelfScrapeInterval, Retention time.Duration

	// slow and maintenance are not flags. DefaultConfig sets them to
	// slowThreshold and checkpointInterval; in-package tests change them.
	slow, maintenance time.Duration
}

// The served configuration's fixed settings.
const (
	traceCapacity      = 256              // request traces kept in memory
	slowThreshold      = time.Second      // a request or query this long is slow
	cacheSize          = 4096             // answer-cache entries
	cacheTTL           = 30 * time.Second // answer freshness bucket
	maxInflight        = 64               // requests evaluating PromQL at once
	queueWait          = 2 * time.Second  // longest wait for a slot before 429
	activeQuerySlots   = 32               // slots of the queries.active file
	checkpointInterval = 5 * time.Minute  // between checkpoints of the store
)

// DefaultConfig returns every flag's default; a field left out is zero.
func DefaultConfig() Config {
	return Config{
		Addr: ":8080", Model: "gpt-4", Duration: 2 * time.Hour, Seed: 42,
		Experts:    []string{"r.nakamura", "a.kimura", "m.okafor", "s.ivanova"},
		SelfScrape: true, SelfScrapeInterval: 15 * time.Second,
		slow: slowThreshold, maintenance: checkpointInterval,
	}
}

// Flags registers every flag field of c on fs, with the field's current
// value as the flag's default: call it on DefaultConfig().
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
	fs.BoolVar(&c.SelfScrape, "selfscrape", c.SelfScrape, "append the server's own dio_* metrics into the TSDB so the copilot can answer questions about itself")
	fs.DurationVar(&c.SelfScrapeInterval, "selfscrape-interval", c.SelfScrapeInterval, "self-scrape period")
	fs.BoolVar(&c.Debug, "debug", c.Debug, "serve net/http/pprof under /debug/pprof/")
	fs.StringVar(&c.DataDir, "data-dir", c.DataDir, "durable state directory: WAL, checkpoints, feedback issues and the active-query file; enables POST /api/v1/write, empty runs memory-only")
	fs.DurationVar(&c.Retention, "retention", c.Retention, "drop samples older than this behind the TSDB head (0 keeps everything)")
}

// Validate rejects a configuration the server would otherwise ignore or
// silently replace.
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
	check(c.SelfScrapeInterval <= 0, "-selfscrape-interval %v is not positive", c.SelfScrapeInterval)
	// Only a Config that did not start from DefaultConfig lacks these.
	check(c.slow <= 0, "slow threshold %v is not positive; start from DefaultConfig", c.slow)
	check(c.maintenance <= 0, "maintenance tick %v is not positive; start from DefaultConfig", c.maintenance)
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
	// Every request is traced (explain forces capture regardless).
	cp.Tracer().EnableCapture(obs.NewTraceStore(traceCapacity, cfg.slow), 1)
	apiOpts = append(apiOpts, httpapi.WithTracing(cp.Tracer()))

	tracker := feedback.NewTracker(cfg.Experts, nil)
	issuesPath := ""
	if cfg.DataDir != "" {
		issuesPath = filepath.Join(cfg.DataDir, "issues.json")
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
	// an active-query tracker whose slot file (in -data-dir) survives
	// kill -9, so a restart can name the queries that were in flight when
	// the process died.
	qlog := obs.NewQueryLog(0, cfg.slow)
	qlog.Instrument(reg)
	activeq, interrupted, err := obs.NewActiveQueryTracker(cfg.DataDir, activeQuerySlots)
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
	// the admission gate bounding every request that evaluates PromQL.
	front := servecache.NewFront(servecache.FrontConfig[*core.Answer]{
		Size: cacheSize, TTL: cacheTTL, Version: cp.Version, Head: db.HeadTime, Compute: cp.Ask})
	front.Instrument(reg)
	gate := servecache.NewGate(maxInflight, queueWait)
	gate.Instrument(reg)
	apiOpts = append(apiOpts, httpapi.WithServingLayer(front, gate))
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
	if store != nil {
		goLoop(func() {
			tick := time.NewTicker(cfg.maintenance)
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
