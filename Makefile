GO ?= go

.PHONY: build test verify bench

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# verify runs the merge gate: gofmt, vet, the full suite under the race
# detector, the bench/ module and every example program.
# Set VERIFY_BENCH=1 to also run the substrate micro-benchmarks and the
# crash-recovery smoke.
verify:
	sh scripts/verify.sh

# bench runs the 17 substrate micro-benchmarks (query engine, storage,
# dashboard rendering, question embedding, uncached retrieval, the whole
# uncached ask, one remote-write push and one dashboard query_range through
# ServeHTTP, the in-process numbers that track ask_cold, write_read and
# dashboard, write_read's reader query over 2 000 series, WAL replay on
# reopen, which tracks write_read's recover_s, plus the two start-up phases
# that track setup_s: the default two-hour simulated trace and the
# retriever build) with allocation reporting.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkQueryRange$$|BenchmarkQueryRangeWide|BenchmarkQueryRangeServe|BenchmarkSelect$$|BenchmarkDashboardRender|BenchmarkTSDBAppend|BenchmarkPromQL|BenchmarkVecstoreFlatSearch|BenchmarkEmbeddingEmbed|BenchmarkRetrieverRetrieve|BenchmarkRetrieverBuild|BenchmarkCopilotAsk|BenchmarkIngestPush|BenchmarkWALReplay|BenchmarkSimulatorPopulate' -benchmem -benchtime=20x .
