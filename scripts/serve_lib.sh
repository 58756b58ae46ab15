# serve_lib.sh: the boot, readiness and teardown steps the lsiserve smoke
# scripts share. Set NAME to the smoke's name, which prefixes failure
# messages, and source it:
#
#   NAME=serve-smoke
#   . "$(dirname "$0")/serve_lib.sh"
#
# It makes WORK, a scratch directory every daemon log lands in, and arms a
# trap that stops every daemon boot started and removes WORK on exit.

WORK="$(mktemp -d)"
PIDS=""

cleanup() {
    for pid in $PIDS; do
        kill "$pid" 2>/dev/null || true
        wait "$pid" 2>/dev/null || true
    done
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

# fail MSG: report MSG and every daemon log, then exit 1.
fail() {
    echo "$NAME FAILED: $1" >&2
    for log in "$WORK"/*.log; do
        [ -e "$log" ] || continue
        echo "--- $log ---" >&2
        cat "$log" >&2
    done
    exit 1
}

# boot LOG CMD...: start CMD in the background with its output in
# $WORK/LOG, wait (up to ~10s) for the "listening on" line lsiserve prints
# once its listener is bound, and leave the base URL in ADDR.
boot() {
    log="$WORK/$1"
    shift
    "$@" >"$log" 2>&1 &
    pid=$!
    PIDS="$PIDS $pid"
    i=0
    while [ $i -lt 100 ]; do
        ADDR="$(sed -n 's/^lsiserve: listening on \(http:.*\)$/\1/p' "$log" | head -n1)"
        [ -n "$ADDR" ] && return 0
        kill -0 "$pid" 2>/dev/null || fail "daemon behind $log exited before listening"
        i=$((i + 1))
        sleep 0.1
    done
    fail "daemon behind $log never reported its address"
}

# status URL [CURL ARGS...]: print the HTTP status one request answers.
status() {
    curl -s -o /dev/null -w '%{http_code}' "$@"
}

# check_ready URL: fail unless URL/readyz answers 200 and URL/v1/stats
# reports "ready":true — readiness has one source.
check_ready() {
    code="$(status "$1/readyz")"
    [ "$code" = 200 ] || fail "$1/readyz returned $code"
    case "$(curl -s "$1/v1/stats")" in
    *'"ready":true'*) : ;;
    *) fail "$1/readyz answers 200 but its /v1/stats is not ready" ;;
    esac
}

# wait_ready URL: poll URL/readyz (up to ~10s) until it answers 200, then
# check_ready URL.
wait_ready() {
    i=0
    until [ "$(status "$1/readyz")" = 200 ]; do
        i=$((i + 1))
        [ $i -lt 100 ] || fail "$1/readyz never answered 200"
        sleep 0.1
    done
    check_ready "$1"
}
