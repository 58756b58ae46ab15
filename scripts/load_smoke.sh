#!/bin/sh
# Load-smoke the serving stack: boot lsiserve as a sharded live index,
# drive it with a short closed-loop lsiload Zipf trace, then a short
# ingest trace (appends alternating with searches), and fail if any
# request failed (non-2xx and not a 429/503 shed), a summary is
# malformed, or the appends retired no cached answers. The Zipf trace's lsiload
# summary lands in load-smoke.json (archived by CI) so the per-commit
# latency quantiles under load are captured over time. CI runs this via
# `make load-smoke`; binary paths come in as $1 (lsiserve) and $2
# (lsiload).
set -eu

SERVE="${1:?usage: load_smoke.sh path/to/lsiserve path/to/lsiload}"
LOAD="${2:?usage: load_smoke.sh path/to/lsiserve path/to/lsiload}"
DURATION="${LOAD_SMOKE_DURATION:-5s}"
NAME=load-smoke
. "$(dirname "$0")/serve_lib.sh"

boot serve.log "$SERVE" -addr 127.0.0.1:0 -shards 4 -cache-mb 32 -max-inflight 64 -max-debt 8
BASE="$ADDR"
wait_ready "$BASE"
echo "load-smoke: daemon at $BASE, driving $DURATION Zipf trace"

"$LOAD" -addr "$BASE" -trace zipf -duration "$DURATION" -concurrency 8 >load-smoke.json \
    || fail "lsiload exited non-zero"
cat load-smoke.json

# Zero failures: every request was answered 2xx (or a clean 429/503
# shed, which the summary counts separately). "failed" covers other
# statuses and transport errors.
grep -q '"failed": 0,' load-smoke.json || fail "lsiload reported failed requests"
grep -q '"ok": [1-9]' load-smoke.json || fail "lsiload delivered no successful requests"
grep -q '"p99_ns": [0-9]' load-smoke.json || fail "no p99 in summary"

# Ingest against the warm cache: each append advances the index epoch,
# and the first search after it retires the answers cached before it
# (lsi_cache_retired_total).
echo "load-smoke: driving 2s ingest trace"
"$LOAD" -addr "$BASE" -trace ingest -duration 2s -concurrency 4 >"$WORK/ingest.json" \
    || fail "lsiload -trace ingest exited non-zero"
cat "$WORK/ingest.json"
grep -q '"failed": 0,' "$WORK/ingest.json" || fail "ingest trace reported failed requests"
RETIRED="$(curl -s "$BASE/metrics" | awk '$1 == "lsi_cache_retired_total" { print $2 }')"
[ "${RETIRED:-0}" -gt 0 ] 2>/dev/null || fail "lsi_cache_retired_total is '${RETIRED}' after the ingest trace, want > 0"

# The server must still be healthy and observable after the trace.
STATUS="$(status "$BASE/healthz")"
[ "$STATUS" = 200 ] || fail "/healthz returned $STATUS after load"
METRICS="$(curl -s "$BASE/metrics")"
for series in lsi_http_request_duration_seconds_bucket lsi_cache_lookups_total lsi_index_compaction_debt lsi_shard_segments; do
    case "$METRICS" in
    *"$series"*) : ;;
    *) fail "/metrics missing $series after load" ;;
    esac
done

echo "load-smoke: OK (zero failed requests, $RETIRED cached answers retired by ingest, server healthy, metrics live)"
