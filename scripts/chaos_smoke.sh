#!/bin/sh
# Chaos smoke: the cluster-smoke topology (3 WAL'd shard nodes + a
# router) with the fault injector armed, driven by lsiload -faults on a
# schedule that flaps node 0 (injected 503s across every class) and
# then partitions node 1 (dropped connections), healing both before the
# run ends. lsiload itself gates the resilience invariants — no request
# stuck past its deadline, the acked-write ledger exact — and exits 1
# on violation. The script additionally asserts the faults really
# landed (injector counters, router shed/breaker metrics), that the
# cluster is back to full quorum afterward, and that the breaker/health
# metric series are exposed. Summary lands in chaos-smoke.json
# (archived by CI). CI runs this via `make chaos-smoke`; binary paths
# come in as $1 (lsiserve) and $2 (lsiload).
set -eu

SERVE="${1:?usage: chaos_smoke.sh path/to/lsiserve path/to/lsiload}"
LOAD="${2:?usage: chaos_smoke.sh path/to/lsiserve path/to/lsiload}"
DURATION="${CHAOS_SMOKE_DURATION:-6s}"
SHARDS=3
NAME=chaos-smoke
. "$(dirname "$0")/serve_lib.sh"

# 1. Export: one standalone node directory per shard.
"$SERVE" -shards $SHARDS -k 3 -save-cluster "$WORK/cluster" >"$WORK/export.log" 2>&1 \
    || fail "-save-cluster export"

# 2. One WAL'd node per shard, each with the fault injector armed.
NODE_URLS=""
s=0
while [ $s -lt $SHARDS ]; do
    boot "node-$s.log" "$SERVE" -addr 127.0.0.1:0 -index "$WORK/cluster/shard-$s" \
        -wal-dir "$WORK/wal-$s" -chaos
    wait_ready "$ADDR"
    NODE_URLS="$NODE_URLS $ADDR"
    s=$((s + 1))
done
NODE0="$(echo $NODE_URLS | cut -d' ' -f1)"
NODE1="$(echo $NODE_URLS | cut -d' ' -f2)"

# 3. A manifest over the nodes, and the router on top with background
# health probes feeding outlier ejection.
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
boot router.log "$SERVE" -addr 127.0.0.1:0 -cluster "$WORK/manifest.json" -probe-every 500ms \
    -breaker-open-for 1s
ROUTER="$ADDR"
wait_ready "$ROUTER"

# 4. The fault schedule: node 0 flaps (60% injected 503 + Retry-After on
# every class) for the first third, then node 1 is partitioned (drops)
# for the middle third; the last third is fault-free so the run ends on
# a healed cluster.
cat >"$WORK/faults.json" <<EOF
{"steps": [
  {"at_ms": 0,    "node": "$NODE0",
   "spec": {"seed": 42, "faults": [{"err_rate": 0.6, "code": 503, "retry_after_sec": 1}]}},
  {"at_ms": 2000, "node": "$NODE0", "clear": true},
  {"at_ms": 2500, "node": "$NODE1",
   "spec": {"seed": 43, "faults": [{"drop": true}]}},
  {"at_ms": 4000, "node": "$NODE1", "clear": true}
]}
EOF

echo "chaos-smoke: $SHARDS nodes + router at $ROUTER, driving $DURATION ingest trace under faults"

# 5. The trace goes through the router while the schedule flaps the
# nodes; lsiload's own invariant gate (stuck requests, acked-write
# ledger) decides the exit status.
"$LOAD" -addr "$ROUTER" -trace ingest -duration "$DURATION" -concurrency 8 \
    -faults "$WORK/faults.json" >chaos-smoke.json 2>"$WORK/lsiload.log" \
    || fail "lsiload reported an invariant violation (see $WORK/lsiload.log)"
cat chaos-smoke.json
grep -q '"fault_steps": 4' chaos-smoke.json || fail "schedule did not run all 4 steps"
grep -q '"stuck"' chaos-smoke.json && fail "requests stuck past their deadline"
grep -q '"ok": [1-9]' chaos-smoke.json || fail "no successful requests under faults"

# 6. The faults must really have landed: the node-0 injector consumed
# requests, and the router saw sheds or node errors.
INJ="$(curl -s "$NODE0/debug/faults")"
case "$INJ" in
*'"injected":0'*) fail "node 0 injector never fired: $INJ" ;;
*'"injected"'*) : ;;
*) fail "node 0 /debug/faults unreadable: $INJ" ;;
esac
METRICS="$(curl -s "$ROUTER/metrics")"
echo "$METRICS" | grep -Eq '^lsi_cluster_(node_sheds|node_errors)_total [1-9]' \
    || fail "router counted no sheds or node errors although faults fired"

# 7. The breaker/health series must be exposed on the router.
for series in lsi_cluster_node_sheds_total lsi_cluster_retries_total \
    lsi_cluster_retry_budget_exhausted_total lsi_cluster_breaker_denied_total \
    lsi_cluster_breakers_open lsi_cluster_breakers_half_open \
    lsi_cluster_breaker_trips_total lsi_cluster_nodes_ejected \
    lsi_cluster_probe_failures_total; do
    case "$METRICS" in
    *"$series"*) : ;;
    *) fail "/metrics missing $series" ;;
    esac
done

# 8. Healed: full quorum, no partial answers, open breakers recovered.
# Searching IS the recovery driver (the half-open probe rides a real
# request), so poll until the answer is whole — bounded, not calibrated.
check_ready "$ROUTER"
i=0
while :; do
    HEADERS="$(curl -s -D - -o /dev/null -X POST "$ROUTER/v1/search" \
        -H 'Content-Type: application/json' -d '{"query":"car engine","topN":3}')"
    case "$HEADERS" in
    *X-Partial-Results*)
        i=$((i + 1))
        [ $i -lt 40 ] || fail "cluster still answering partial 10s after the faults cleared"
        sleep 0.25
        ;;
    *) break ;;
    esac
done
curl -s "$ROUTER/metrics" | grep -q '^lsi_cluster_breakers_open 0' \
    || fail "breakers still open after the faults cleared"

echo "chaos-smoke: OK (invariants held under flap + partition, cluster healed, breaker metrics live)"
