#!/bin/sh
# Cluster smoke: stand up the whole distributed tier locally — export
# the demo corpus as 3 shard node directories, boot one WAL'd lsiserve
# node per shard plus a router over a generated manifest, and drive a
# closed-loop lsiload Zipf trace through the router. Fails if any
# request failed (non-2xx/429/503), if the router reports partial
# results on a healthy cluster, or if the router's cluster metrics are
# missing. The lsiload summary lands in cluster-smoke.json (archived by
# CI). CI runs this via `make cluster-smoke`; binary paths come in as
# $1 (lsiserve) and $2 (lsiload).
set -eu

SERVE="${1:?usage: cluster_smoke.sh path/to/lsiserve path/to/lsiload}"
LOAD="${2:?usage: cluster_smoke.sh path/to/lsiserve path/to/lsiload}"
DURATION="${CLUSTER_SMOKE_DURATION:-5s}"
SHARDS=3
NAME=cluster-smoke
. "$(dirname "$0")/serve_lib.sh"

# 1. Export: one standalone node directory per shard.
"$SERVE" -shards $SHARDS -k 3 -save-cluster "$WORK/cluster" >"$WORK/export.log" 2>&1 \
    || fail "-save-cluster export"

# 2. One node per shard, each with a write-ahead log.
NODE_URLS=""
s=0
while [ $s -lt $SHARDS ]; do
    boot "node-$s.log" "$SERVE" -addr 127.0.0.1:0 -index "$WORK/cluster/shard-$s" \
        -wal-dir "$WORK/wal-$s"
    wait_ready "$ADDR"
    NODE_URLS="$NODE_URLS $ADDR"
    s=$((s + 1))
done

# 3. A manifest over the nodes, and the router on top.
{
    printf '{"version":1,"shards":%d,"nodes":[' $SHARDS
    s=0
    for url in $NODE_URLS; do
        [ $s -gt 0 ] && printf ','
        printf '{"name":"n%d","url":"%s","shard":%d}' $s "$url" $s
        s=$((s + 1))
    done
    printf ']}\n'
} >"$WORK/manifest.json"
boot router.log "$SERVE" -addr 127.0.0.1:0 -cluster "$WORK/manifest.json"
ROUTER="$ADDR"
wait_ready "$ROUTER"

echo "cluster-smoke: $SHARDS nodes + router at $ROUTER, driving $DURATION Zipf trace"

# 4. The trace goes through the router; every request must succeed.
"$LOAD" -addr "$ROUTER" -trace zipf -duration "$DURATION" -concurrency 8 >cluster-smoke.json \
    || fail "lsiload exited non-zero"
cat cluster-smoke.json
grep -q '"failed": 0,' cluster-smoke.json || fail "lsiload reported failed requests"
grep -q '"ok": [1-9]' cluster-smoke.json || fail "lsiload delivered no successful requests"

# 5. The router must be healthy, full-quorum, and observable afterward.
check_ready "$ROUTER"
HEADERS="$(curl -s -D - -o /dev/null -X POST "$ROUTER/v1/search" \
    -H 'Content-Type: application/json' -d '{"query":"car engine","topN":3}')"
case "$HEADERS" in
*X-Partial-Results*) fail "healthy cluster answered with partial results" ;;
esac
METRICS="$(curl -s "$ROUTER/metrics")"
for series in lsi_cluster_docs lsi_cluster_manifest_version lsi_cluster_partial_results_total lsi_cluster_node_errors_total; do
    case "$METRICS" in
    *"$series"*) : ;;
    *) fail "/metrics missing $series" ;;
    esac
done

echo "cluster-smoke: OK (zero failed requests through the router, full quorum, metrics live)"
