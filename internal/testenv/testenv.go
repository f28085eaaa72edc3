// Package testenv builds the shared heavyweight test fixture: the full
// catalog, a populated TSDB trace and a trained retriever. Building these
// once per process keeps the integration-test suites fast.
package testenv

import (
	"sync"
	"time"

	"dio/internal/catalog"
	"dio/internal/core"
	"dio/internal/fivegsim"
	"dio/internal/tsdb"
)

var (
	once      sync.Once
	cat       *catalog.Database
	db        *tsdb.DB
	retriever *core.Retriever
	buildErr  error
)

// build populates the fixture with a 20-minute trace (enough history for
// [5m] windows and lookback, cheap to generate).
func build() {
	cat = catalog.Generate()
	db = tsdb.New()
	cfg := fivegsim.DefaultConfig()
	cfg.Duration = 20 * time.Minute
	if _, err := fivegsim.Populate(db, cat, cfg); err != nil {
		buildErr = err
		return
	}
	retriever, buildErr = core.NewRetriever(cat, nil)
}

// Env returns the shared fixture. The catalog and retriever must be
// treated as read-only by callers (expert-contribution tests build their
// own copies).
func Env() (*catalog.Database, *tsdb.DB, *core.Retriever, error) {
	once.Do(build)
	return cat, db, retriever, buildErr
}
