#!/bin/sh
# verify.sh — the checks a change must pass before merging: formatting,
# static vetting, the full test suite under the race detector, the bench/
# module, the 4-shard promql leg and a run of every example program.
set -eu
cd "$(dirname "$0")/.."

echo ">> gofmt -l ."
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt would rewrite:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo ">> go vet ./..."
go vet ./...

echo ">> go test -race ./..."
go test -race ./...

# bench/ is a module of its own, so ./... above never enters it; an
# internal/ signature change that breaks the harness must fail here.
echo ">> go -C bench vet . && go -C bench test ."
go -C bench vet .
go -C bench test .

# DIO_TSDB_SHARDS reshards the promql test fixture (promql_test.go testDB);
# no other package reads it.
echo ">> go test ./internal/promql/ with DIO_TSDB_SHARDS=4 (distributed executor leg)"
DIO_TSDB_SHARDS=4 go test ./internal/promql/

# The examples compile in ./... but nothing else executes them; a non-zero
# exit is the only failure (no output goldens).
for ex in examples/*/; do
	echo ">> go run ./$ex"
	go run "./$ex" >/dev/null
done

# Opt-in (VERIFY_BENCH=1 make verify): the substrate micro-benchmarks with
# allocation reporting, and the two crash-recovery smokes — acknowledged
# samples must survive kill -9 at 1 and at 4 shards.
if [ "${VERIFY_BENCH:-0}" = "1" ]; then
	echo ">> make bench (VERIFY_BENCH=1)"
	make bench
	echo ">> crash-recovery smoke (VERIFY_BENCH=1)"
	./scripts/crash_smoke.sh
	echo ">> crash-recovery smoke, 4-shard store (VERIFY_BENCH=1)"
	CRASH_SMOKE_SHARDS=4 CRASH_SMOKE_PORT=18081 ./scripts/crash_smoke.sh
fi

echo "verify: OK"
