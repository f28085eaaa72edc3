#!/usr/bin/env bash
# crash_smoke.sh — end-to-end crash-recovery smoke test for durable ingest.
#
# Starts dio-server with a durable data dir, pushes samples through
# POST /api/v1/write, SIGKILLs the server after the writes are
# acknowledged, restarts it from the same dir, and asserts the
# acknowledged samples survived (WAL replay / checkpoint recovery).
#
# Acknowledged-then-lost data is the one failure mode this guards:
# the server must never 200 a write that a kill -9 can erase.
set -euo pipefail

cd "$(dirname "$0")/.."

PORT="${CRASH_SMOKE_PORT:-18080}"
# CRASH_SMOKE_SHARDS > 1 runs the same smoke against the sharded store:
# per-shard checkpoint sets plus the fan-in WAL must give the same
# acknowledged-write-survives-kill-9 guarantee.
SHARDS="${CRASH_SMOKE_SHARDS:-1}"
BASE="http://127.0.0.1:${PORT}"
WORK="$(mktemp -d)"
SERVER_PID=""

cleanup() {
    [ -n "$SERVER_PID" ] && kill -9 "$SERVER_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

fail() {
    echo "crash_smoke: FAIL: $*" >&2
    echo "--- server log tail ---" >&2
    tail -n 20 "$WORK/server.log" >&2 || true
    exit 1
}

start_server() {
    ./bin/dio-server -addr "127.0.0.1:${PORT}" -data-dir "$WORK/store" \
        -duration 10m -selfscrape=false \
        -tsdb-shards "$SHARDS" \
        >>"$WORK/server.log" 2>&1 &
    SERVER_PID=$!
    # First boot simulates a 10m workload and trains the retriever;
    # restarts replay the WAL. Both finish well inside this window.
    for _ in $(seq 1 240); do
        if curl -fsS -o /dev/null "$BASE/healthz" 2>/dev/null; then
            return 0
        fi
        kill -0 "$SERVER_PID" 2>/dev/null || fail "server exited during startup"
        sleep 0.5
    done
    fail "server did not become healthy"
}

echo "crash_smoke: building dio-server"
mkdir -p bin
go build -o bin/dio-server ./cmd/dio-server

echo "crash_smoke: first start (seeds the store)"
start_server

echo "crash_smoke: pushing samples via /api/v1/write"
RESP="$(curl -fsS -X POST -H 'Content-Type: application/json' -d '{
  "series": [{
    "labels": {"__name__": "crash_smoke_total", "job": "smoke"},
    "samples": [[1700000000000, 1], [1700000015000, 2], [1700000030000, 3]]
  }]
}' "$BASE/api/v1/write")" || fail "write request failed"
echo "crash_smoke: write response: $RESP"
echo "$RESP" | grep -q '"appended":3' || fail "expected 3 appended samples: $RESP"

echo "crash_smoke: SIGKILL pid $SERVER_PID (no shutdown checkpoint)"
kill -9 "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""

echo "crash_smoke: restart from $WORK/store"
start_server

echo "crash_smoke: querying the acknowledged samples back"
GOT="$(curl -fsS "$BASE/api/v1/query?query=crash_smoke_total&time=1700000030")" \
    || fail "query request failed"
echo "crash_smoke: query response: $GOT"
echo "$GOT" | grep -q '"3"' || fail "acknowledged sample lost after kill -9: $GOT"
grep -q 'wal_samples_replayed' "$WORK/server.log" || fail "restart did not report WAL replay"

echo "crash_smoke: PASS (acknowledged writes survived kill -9)"
