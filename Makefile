GO ?= go

.PHONY: build test verify bench bench-paper

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# verify runs the merge gate: gofmt, vet, the full suite under the race
# detector, the bench/ module, the 4-shard promql leg and every example
# program.
# Set VERIFY_BENCH=1 to also run the substrate micro-benchmarks and the
# two crash-recovery smokes.
verify:
	sh scripts/verify.sh

# bench runs the substrate micro-benchmarks (query engine, storage,
# dashboard rendering, uncached retrieval, the whole uncached ask and one
# remote-write push, the in-process numbers that track ask_cold and
# write_read) with allocation reporting.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkQueryRange|BenchmarkSelect$$|BenchmarkDashboardRender|BenchmarkTSDBAppend|BenchmarkPromQL|BenchmarkVecstoreFlatSearch|BenchmarkRetrieverRetrieve|BenchmarkCopilotAsk|BenchmarkIngestPush' -benchmem -benchtime=20x .

# bench-paper regenerates the paper's evaluation tables alongside
# performance numbers (every benchmark, one iteration each).
bench-paper:
	$(GO) test -bench=. -benchtime=1x .
