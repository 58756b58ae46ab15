#!/bin/sh
# Smoke-test the lsiserve daemon: start it on a free port against the
# built-in demo corpus, hit /healthz and /v1/search, and fail on any
# non-200. CI runs this via `make serve-smoke`; the binary path comes in
# as $1.
set -eu

BIN="${1:?usage: serve_smoke.sh path/to/lsiserve}"
NAME=serve-smoke
. "$(dirname "$0")/serve_lib.sh"

boot serve.log "$BIN" -addr 127.0.0.1:0
BASE="$ADDR"
wait_ready "$BASE"
echo "serve-smoke: daemon at $BASE"

STATUS="$(status "$BASE/healthz")"
[ "$STATUS" = 200 ] || fail "/healthz returned $STATUS"

STATUS="$(status -X POST "$BASE/v1/search" \
    -H 'Content-Type: application/json' \
    -d '{"query":"car engine","topN":3}')"
[ "$STATUS" = 200 ] || fail "/v1/search returned $STATUS"

BODY="$(curl -s -X POST "$BASE/v1/search" \
    -H 'Content-Type: application/json' \
    -d '{"query":"car engine","topN":3}')"
case "$BODY" in
*'"results"'*'demo-'*) : ;;
*) fail "/v1/search body has no results: $BODY" ;;
esac

STATUS="$(status "$BASE/v1/stats")"
[ "$STATUS" = 200 ] || fail "/v1/stats returned $STATUS"

echo "serve-smoke: OK (healthz, search, stats all 200)"
