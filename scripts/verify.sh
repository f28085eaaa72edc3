#!/bin/sh
# verify.sh — the checks a change must pass before merging: formatting,
# static vetting (and an arm64 vet of vecstore's portable path), the full
# test suite under the race detector, the bench/ module, a run of every
# example program and the count of functions no program runs.
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

# vecstore has an amd64 kernel and a portable path; vetting it for arm64
# keeps the portable path compiling on this host.
echo ">> GOARCH=arm64 go vet ./internal/vecstore"
GOARCH=arm64 go vet ./internal/vecstore

echo ">> go test -race ./..."
go test -race ./...

# bench/ is a module of its own, so ./... above never enters it; an
# internal/ signature change that breaks the harness must fail here.
echo ">> go -C bench vet . && go -C bench test ."
go -C bench vet .
go -C bench test .

# The examples compile in ./... but nothing else executes them; a non-zero
# exit is the only failure (no output goldens).
for ex in examples/*/; do
	echo ">> go run ./$ex"
	go run "./$ex" >/dev/null
done

# Reach by execution: the count of functions that no program runs (the
# list itself is `sh scripts/reach_exec.sh`). It reports; it gates nothing.
echo ">> sh scripts/reach_exec.sh"
reach=$(sh scripts/reach_exec.sh)
echo "$reach" | tail -n 1

# Opt-in (VERIFY_BENCH=1 make verify): the substrate micro-benchmarks with
# allocation reporting, and the crash-recovery smoke — acknowledged
# samples must survive kill -9.
if [ "${VERIFY_BENCH:-0}" = "1" ]; then
	echo ">> make bench (VERIFY_BENCH=1)"
	make bench
	echo ">> crash-recovery smoke (VERIFY_BENCH=1)"
	./scripts/crash_smoke.sh
fi

echo "verify: OK"
