#!/bin/sh
# ledger_pair.sh — paired, alternating runs of the repository benchmark
# (bench/run.sh, the command BENCHMARK.json declares) on two revisions,
# and one verdict table per workload.
#
# Modes:
#
#   scripts/ledger_pair.sh BASE [HEAD] [--workloads a,b] [--seeds 1..N]
#                          [--trace] [--seconds S] [--out DIR]
#       run mode: checks BASE and HEAD (default HEAD) out into two
#       temporary git worktrees, warms both builds, then runs every
#       workload seed by seed in strict alternation — seed 1 base then
#       head, seed 2 head then base, … — so a loud minute on the box lands
#       on both sides alike. Each run's output is kept as
#       DIR/<workload>/<base|head>-<seed>.txt (default DIR:
#       ledger-pair.out, which must not exist yet), then compared.
#       --seeds takes "a..b", single seeds, or both comma-separated
#       ("1..10,11"); default 1..5. --trace runs traced (-trace 1): the
#       per-layer metrics instead of the end-to-end ones.
#   scripts/ledger_pair.sh --compare DIR
#       compare mode: the tables for runs already in DIR (what the tier-1
#       test feeds seeded regressions through).
#
# Each table row is one metric: both medians with their quartiles, the
# pairs (same seed) where the head read lower and higher, and a verdict.
# The rules are fixed:
#
#   * a metric with a BENCHMARK.json bound is WORSE when the head median
#     is worse than the base median by more than that share of it;
#   * any metric is "better" only when it improved at >= 4 of 5 pairs AND
#     the medians differ by more than the base's quartile spread; an
#     unbounded metric is "worse" by the same rule turned round, and
#     "flat" otherwise; a bounded one that is neither is "ok".
#
# Direction ("better": lower or higher) comes from BENCHMARK.json; the
# set-up log's stage times (setup.gen_s, setup.build_s, …) are lower-is-
# better. bench.search_qps is printed right under rss_peak_mb: a memory
# reading says little without the rate it was read at.
#
# Box load: beside each run, DIR/<workload>/<side>-<seed>.load records
# what the box did meanwhile, all read from /proc without changing
# anything: the 1-minute load average before and after, and the /proc/stat
# deltas of the box's CPU time — total, busy (not idle or iowait), steal —
# with the CPU time of the run's own process tree (its reaped children,
# from /proc/<pid>/stat). Under each table a load block lists, per pair,
# the share of the box's CPU spent outside the two runs' trees and the
# steal share, and flags "DIFFERENT LOAD" where the two sides differ by
# more than 10 points of outside share or 5 points of steal: such a pair
# compares two boxes, not two trees. A run refuses to start (exit 2) while
# an lsiserve a benchmark run started (.bench_build/bin/lsiserve) is still
# alive.
#
# Exit status: 0 no bounded metric worse, 1 a bounded metric worse,
# 2 usage or infrastructure error.
set -eu

usage() {
	echo "usage: $0 BASE [HEAD] [--workloads a,b] [--seeds 1..N] [--trace] [--seconds S] [--out DIR] | $0 --compare DIR" >&2
	exit 2
}

ROOT=$(cd "$(dirname "$0")/.." && pwd)

# compare <dir>: the verdict tables, from the runs in dir.
compare() {
	dir=$1
	files=$(find "$dir" -mindepth 2 -maxdepth 2 \( -name '*-*.txt' -o -name '*-*.load' \) | sort)
	[ -n "$files" ] || { echo "ledger_pair: no runs in $dir" >&2; exit 2; }
	meta=""
	[ -f "$dir/meta" ] && meta=$(cat "$dir/meta")
	# shellcheck disable=SC2086 # one argument per run file
	awk -v meta="$meta" '
function quant(arr, n, p,    i, j, tmp, pos, lo) {
	for (i = 2; i <= n; i++) {       # insertion sort; n is a seed count
		tmp = arr[i]
		for (j = i - 1; j >= 1 && arr[j] > tmp; j--) arr[j + 1] = arr[j]
		arr[j + 1] = tmp
	}
	pos = 1 + (n - 1) * p            # linear interpolation between ranks
	lo = int(pos)
	if (lo >= n) return arr[n]
	return arr[lo] + (pos - lo) * (arr[lo + 1] - arr[lo])
}
function abs(x) { return x < 0 ? -x : x }
function pct(x) { return sprintf("%5.1f%%", 100 * x) }
# loadblock: per pair of wl with both .load files, the share of the box
# CPU spent outside each run and its steal share; uneven pairs flagged.
function loadblock(wl,    s, sd, b, h, flag, first) {
	first = 1
	for (s = 1; s <= nseed[wl]; s++) {
		sd = seeds[wl, s]
		if (!((wl, "base", sd) in other) || !((wl, "head", sd) in other)) continue
		if (first) {
			print "load: per pair, the share of the box CPU outside the run / steal / 1-min load before"
			first = 0
		}
		b = "base " pct(other[wl, "base", sd]) " " pct(steal[wl, "base", sd]) " " load1[wl, "base", sd]
		h = "head " pct(other[wl, "head", sd]) " " pct(steal[wl, "head", sd]) " " load1[wl, "head", sd]
		flag = ""
		if (abs(other[wl, "base", sd] - other[wl, "head", sd]) > 0.10 || abs(steal[wl, "base", sd] - steal[wl, "head", sd]) > 0.05) flag = "  DIFFERENT LOAD"
		printf "  seed %-4s %s   %s%s\n", sd, b, h, flag
	}
}
function fmt(x) { return sprintf("%.4g", x) }
# BENCHMARK.json: one "key": value a line; a name opens an entry.
FNR == 1 { isjson = (FILENAME ~ /BENCHMARK\.json$/) }
isjson {
	if ($0 ~ /"name":/) { v = $0; sub(/.*"name": *"/, "", v); sub(/".*/, "", v); cur = v; order[++norder] = v }
	if ($0 ~ /"better":/) { v = $0; sub(/.*"better": *"/, "", v); sub(/".*/, "", v); better[cur] = v }
	if ($0 ~ /"bound":/) { v = $0; sub(/.*"bound": */, "", v); sub(/[ ,].*/, "", v); bound[cur] = v + 0 }
	next
}
FNR == 1 {
	n = split(FILENAME, parts, "/")
	wl = parts[n - 1]
	side = parts[n]; sub(/-.*/, "", side)
	seed = parts[n]; sub(/^[a-z]*-/, "", seed); sub(/\.(txt|load)$/, "", seed)
	isload = (FILENAME ~ /\.load$/)
	if (!(wl in wlseen)) { wlseen[wl] = 1; wls[++nwl] = wl }
	if (!((wl, seed) in seedseen)) { seedseen[wl, seed] = 1; seeds[wl, ++nseed[wl]] = seed }
}
# A .load file: "load1 <before> <after>" and
# "ticks <total> <busy> <steal> <tree>".
isload {
	if ($1 == "load1") load1[wl, side, seed] = $2
	if ($1 == "ticks" && $2 > 0) {
		other[wl, side, seed] = ($3 - $5) / $2
		steal[wl, side, seed] = $4 / $2
	}
	next
}
# The set-up log: "bench: <workload> set-up: gen 0.52s build 1.23s …".
/ set-up: / {
	for (i = 1; i < NF; i++) if ($i ~ /^(gen|build|save|export|boot)$/) {
		v = $(i + 1); sub(/s$/, "", v); put("setup." $i "_s", v)
	}
	next
}
# A metric line: two spaces, a ledger name, a number.
/^  [a-z]/ && $1 ~ /^[a-z][a-z0-9_.]*$/ && $2 ~ /^-?[0-9.]+(e[-+]?[0-9]+)?$/ { put($1, $2) }
function put(name, v) {
	val[wl, side, seed, name] = v + 0
	if (!((wl, name) in mseen)) { mseen[wl, name] = 1; mnames[wl, ++nm[wl]] = name }
}
END {
	worse = 0
	if (meta != "") print meta
	for (w = 1; w <= nwl; w++) {
		wl = wls[w]
		# Row order: the end-to-end metrics, bench.search_qps under
		# rss_peak_mb, then the rest in BENCHMARK.json order, then the log.
		nrow = 0; delete inrow
		for (o = 1; o <= norder; o++) {
			name = order[o]
			if ((wl, name) in mseen && !(name in inrow)) { rows[++nrow] = name; inrow[name] = 1 }
			if (name == "rss_peak_mb" && (wl, "bench.search_qps") in mseen) { rows[++nrow] = "bench.search_qps"; inrow["bench.search_qps"] = 1 }
		}
		for (m = 1; m <= nm[wl]; m++) if (!(mnames[wl, m] in inrow)) { rows[++nrow] = mnames[wl, m]; inrow[mnames[wl, m]] = 1 }
		printf "\n== %s\n", wl
		printf "%-30s %4s %24s %24s %8s %5s %6s  %s\n", "metric", "n", "base median [q1, q3]", "head median [q1, q3]", "delta", "lower", "higher", "verdict"
		for (r = 1; r <= nrow; r++) {
			name = rows[r]
			n = 0; lower = 0; higher = 0
			for (s = 1; s <= nseed[wl]; s++) {
				sd = seeds[wl, s]
				if (!((wl, "base", sd, name) in val) || !((wl, "head", sd, name) in val)) continue
				b = val[wl, "base", sd, name]; h = val[wl, "head", sd, name]
				n++; bs[n] = b; hs[n] = h
				if (h < b) lower++
				if (h > b) higher++
			}
			if (n == 0) continue
			for (i = 1; i <= n; i++) { t1[i] = bs[i]; t2[i] = bs[i]; t3[i] = bs[i] }
			bmed = quant(t1, n, 0.5); bq1 = quant(t2, n, 0.25); bq3 = quant(t3, n, 0.75)
			for (i = 1; i <= n; i++) { t1[i] = hs[i]; t2[i] = hs[i]; t3[i] = hs[i] }
			hmed = quant(t1, n, 0.5); hq1 = quant(t2, n, 0.25); hq3 = quant(t3, n, 0.75)
			dir = (name in better) ? better[name] : "lower"
			d = hmed - bmed
			gain = (dir == "lower") ? -d : d                   # > 0: the head is better
			good = (dir == "lower") ? lower : higher
			bad = (dir == "lower") ? higher : lower
			clear = abs(d) > bq3 - bq1
			verdict = "flat"
			if (name in bound) {
				verdict = "ok"
				if ((bmed != 0 && -gain / abs(bmed) > bound[name]) || (bmed == 0 && gain < 0)) {
					verdict = sprintf("WORSE (beyond %g%% bound)", bound[name] * 100)
					worse++
				} else if (gain > 0 && good * 5 >= n * 4 && clear) verdict = "better"
			} else if (gain > 0 && good * 5 >= n * 4 && clear) verdict = "better"
			else if (gain < 0 && bad * 5 >= n * 4 && clear) verdict = "worse"
			delta = (bmed != 0) ? sprintf("%+.1f%%", d / abs(bmed) * 100) : (d == 0 ? "0" : "n/a")
			printf "%-30s %4d %24s %24s %8s %5d %6d  %s\n", name, n,
				fmt(bmed) " [" fmt(bq1) ", " fmt(bq3) "]", fmt(hmed) " [" fmt(hq1) ", " fmt(hq3) "]",
				delta, lower, higher, verdict
		}
		loadblock(wl)
	}
	print ""
	if (worse) { printf "ledger_pair: WORSE (%d bounded metric(s) beyond their bound)\n", worse; exit 1 }
	print "ledger_pair: no bounded metric worse"
}
' "$ROOT/BENCHMARK.json" $files
}

if [ "${1:-}" = "--compare" ]; then
	[ $# -eq 2 ] || usage
	compare "$2"
	exit $?
fi

[ $# -ge 1 ] || usage
case $1 in -*) usage ;; esac
BASE=$1
shift
HEAD=HEAD
if [ $# -gt 0 ]; then
	case $1 in -*) ;; *) HEAD=$1; shift ;; esac
fi
WORKLOADS="exact_scan,tiered_ann_quant,ingest_mixed,cluster_fanout"
SEEDS="1..5"
TRACE=0
SECONDS_ARG=""
OUT=ledger-pair.out
while [ $# -gt 0 ]; do
	case $1 in
	--workloads) [ $# -ge 2 ] || usage; WORKLOADS=$2; shift 2 ;;
	--seeds) [ $# -ge 2 ] || usage; SEEDS=$2; shift 2 ;;
	--trace) TRACE=1; shift ;;
	--seconds) [ $# -ge 2 ] || usage; SECONDS_ARG=$2; shift 2 ;;
	--out) [ $# -ge 2 ] || usage; OUT=$2; shift 2 ;;
	*) usage ;;
	esac
done

# "1..10,11" → "1 2 … 10 11"
seedlist=""
for part in $(echo "$SEEDS" | tr ',' ' '); do
	case $part in
	*..*) seedlist="$seedlist $(seq "${part%..*}" "${part#*..}" | tr '\n' ' ')" ;;
	*) seedlist="$seedlist $part" ;;
	esac
done
for s in $seedlist; do
	case $s in *[!0-9]*) echo "ledger_pair: bad seed '$s' in --seeds $SEEDS" >&2; exit 2 ;; esac
done

if [ -e "$OUT" ]; then
	echo "ledger_pair: $OUT already exists; pass --out with a new directory or remove it" >&2
	exit 2
fi
BASEC=$(git rev-parse --verify "$BASE^{commit}") || { echo "ledger_pair: cannot resolve $BASE" >&2; exit 2; }
HEADC=$(git rev-parse --verify "$HEAD^{commit}") || { echo "ledger_pair: cannot resolve $HEAD" >&2; exit 2; }

WT=$(mktemp -d)
cleanup() {
	for side in base head; do
		[ -d "$WT/$side" ] && git worktree remove --force "$WT/$side" >/dev/null 2>&1 || true
	done
	git worktree prune >/dev/null 2>&1 || true
	rm -rf "$WT"
}
trap cleanup EXIT
trap 'exit 2' INT TERM
git worktree add --detach "$WT/base" "$BASEC" >/dev/null 2>&1
git worktree add --detach "$WT/head" "$HEADC" >/dev/null 2>&1
mkdir -p "$OUT"
echo "base $BASEC  head $HEADC  seeds$seedlist  trace $TRACE" >"$OUT/meta"

echo "ledger_pair: building both trees ..." >&2
for side in base head; do
	# bench -h builds lsiserve and the benchmark, prints its usage, exits 0.
	(cd "$WT/$side" && bash bench/run.sh -h) >"$OUT/build-$side.log" 2>&1 || {
		cat "$OUT/build-$side.log" >&2
		echo "ledger_pair: building $side failed" >&2
		exit 2
	}
done

# stray_servers: the pids of the lsiserve processes a benchmark run
# started (argv[0] in some checkout's .bench_build/bin) still alive.
stray_servers() {
	for d in /proc/[0-9]*; do
		cmd=$({ tr '\0' '\n' <"$d/cmdline"; } 2>/dev/null | head -n 1)
		case $cmd in */.bench_build/bin/lsiserve) echo "${d#/proc/}" ;; esac
	done
}

# cpu_ticks: the box's CPU time from /proc/stat: total, busy (neither
# idle nor iowait) and steal, in clock ticks.
cpu_ticks() {
	awk '$1 == "cpu" { t = 0; for (i = 2; i <= 9; i++) t += $i; print t, t - $5 - $6, $9; exit }' /proc/stat
}

runone() { # runone <side> <workload> <seed>
	extra=""
	[ "$TRACE" = 1 ] && extra="-trace 1"
	[ -n "$SECONDS_ARG" ] && extra="$extra -seconds $SECONDS_ARG"
	stray=$(stray_servers)
	if [ -n "$stray" ]; then
		echo "ledger_pair: an lsiserve from an earlier run is still alive (pid $(echo $stray)); stop it, then run again" >&2
		exit 2
	fi
	echo "ledger_pair: $2 seed $3 $1" >&2
	run="$OUT/$2/$1-$3"
	load0=$(cut -d' ' -f1 /proc/loadavg)
	ticks0=$(cpu_ticks)
	# The run's shell records its own /proc stat line once the benchmark is
	# reaped: its cutime and cstime are the CPU time of the whole tree.
	# shellcheck disable=SC2086 # extra is a flag list
	if ! sh -c 'cd "$1" && shift && bash bench/run.sh "$@"; rc=$?; cat /proc/$$/stat >"$0"; exit $rc' \
		"$run.stat" "$WT/$1" -workload "$2" -seed "$3" $extra >"$run.txt" 2>&1; then
		echo "ledger_pair: $2 seed $3 failed on $1 (see $run.txt)" >&2
	fi
	ticks1=$(cpu_ticks)
	load1=$(cut -d' ' -f1 /proc/loadavg)
	# Fields after "pid (comm) ": cutime and cstime are the 14th and 15th.
	tree=$(sed 's/^.*) //' "$run.stat" | awk '{ print $14 + $15 }')
	rm -f "$run.stat"
	echo "$ticks0 $ticks1" | awk -v l0="$load0" -v l1="$load1" -v tree="$tree" \
		'{ printf "load1 %s %s\nticks %d %d %d %d\n", l0, l1, $4 - $1, $5 - $2, $6 - $3, tree }' >"$run.load"
}

for wl in $(echo "$WORKLOADS" | tr ',' ' '); do
	mkdir -p "$OUT/$wl"
	i=0
	for s in $seedlist; do
		if [ $((i % 2)) -eq 0 ]; then
			runone base "$wl" "$s"
			runone head "$wl" "$s"
		else
			runone head "$wl" "$s"
			runone base "$wl" "$s"
		fi
		i=$((i + 1))
	done
done
compare "$OUT"
