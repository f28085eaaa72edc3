#!/bin/sh
# reach_exec.sh — which functions none of the programs runs. It builds
# dio-bench, every example and dio-cli with coverage of all dio packages,
# runs each once (dio-cli as a REPL session over every command), runs
# TestTranscript (the HTTP session over every route, across a restart)
# with the same coverage, and prints the functions that
# `go tool covdata func` reports at 0.0%, then their count.
#
#   sh scripts/reach_exec.sh
set -eu
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
cov="$tmp/cov"
mkdir "$cov"

build() { go build -cover -coverpkg=dio/... -o "$tmp/$1" "$2"; }

build dio-bench ./cmd/dio-bench
GOCOVERDIR="$cov" "$tmp/dio-bench" >/dev/null

for ex in examples/*/; do
	name=$(basename "$ex")
	build "$name" "./$ex"
	GOCOVERDIR="$cov" "$tmp/$name" >/dev/null
done

build dio-cli ./cmd/dio-cli
GOCOVERDIR="$cov" "$tmp/dio-cli" -explain -analyze >/dev/null <<'EOF'
How many PDU sessions are currently active?
query sum(smfsm_pdu_sessions_active)
explain sum(rate(amfmm_paging_attempt[5m]))
explain -analyze sum(rate(amfmm_paging_attempt[5m]))
metrics paging
expert
issues
audit
quit
EOF

go test -count=1 -run '^TestTranscript$' -cover -coverpkg=dio/... ./internal/server \
	-args -test.gocoverdir="$cov" >/dev/null

go tool covdata func -i "$cov" | awk '
	$NF == "0.0%" { print; n++ }
	END { print n + 0, "functions never ran" }'
