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
	"flag"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"syscall"

	"dio/internal/server"
)

func main() {
	cfg := server.DefaultConfig()
	cfg.Flags(flag.CommandLine)
	flag.Parse()
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, nil)))

	// SIGINT/SIGTERM end the context, and Run shuts down gracefully.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	ln, err := net.Listen("tcp", cfg.Addr)
	if err == nil {
		err = server.Run(ctx, cfg, ln)
	}
	stop()
	if err != nil {
		slog.Error("dio-server failed", "app", "dio-server", "err", err)
		os.Exit(1)
	}
}
