#!/bin/sh
# Tier smoke: sample one balanced corpus from the paper's probabilistic
# model with corpusgen and gate the IVF ANN tier on it at m >= 100k
# documents, the scale where sublinear candidate work must show up as
# wall clock: annsmoke (the tier's acceptance bar) requires recall@10
# >= 0.95 at nprobe=8 AND the probed path faster than the exhaustive
# scan. Summary: ann-smoke.json, archived by CI.
#
# CI runs this via `make tier-smoke`; binary paths come in as $1
# (corpusgen) and $2 (annsmoke).
#
# The corpus shape is overridable for quick local runs, e.g.:
#   TIER_SMOKE_TOPICS=16 TIER_SMOKE_DOCS_PER_TOPIC=100 sh scripts/tier_smoke.sh ...
set -eu

usage="usage: tier_smoke.sh path/to/corpusgen path/to/annsmoke"
CORPUSGEN="${1:?$usage}"
ANNSMOKE="${2:?$usage}"

TOPICS="${TIER_SMOKE_TOPICS:-128}"
# 128 topics x 800 docs = 102400 documents: past the m >= 100k bar.
DOCS_PER_TOPIC="${TIER_SMOKE_DOCS_PER_TOPIC:-800}"
NPROBE="${TIER_SMOKE_NPROBE:-8}"

CORPUS="$(mktemp)"
trap 'rm -f "$CORPUS"' EXIT INT TERM

echo "tier-smoke: sampling ${TOPICS}x${DOCS_PER_TOPIC} balanced corpus"
"$CORPUSGEN" -topics "$TOPICS" -docs-per-topic "$DOCS_PER_TOPIC" \
    -terms-per-topic 25 -eps 0.1 -seed 1 -o "$CORPUS"

failed=""
"$ANNSMOKE" -corpus "$CORPUS" -rank 32 -nlist 128 -nprobe "$NPROBE" \
    -topn 10 -queries 200 -seed 1 \
    -min-recall 0.95 -min-speedup 1.0 -o ann-smoke.json \
    || failed="$failed ann(recall/speedup gate)"
cat ann-smoke.json || true

# Belt and braces on the summary shape: the gates above only bind if
# the smoke measured what this script thinks it measured.
check() { grep -q "$2" "$1" || failed="$failed $1(no $2)"; }
check ann-smoke.json '"nprobe": '"$NPROBE"
check ann-smoke.json '"recall"'
check ann-smoke.json '"speedup"'

if [ -n "$failed" ]; then
	echo "tier-smoke FAILED:$failed" >&2
	exit 1
fi
echo "tier-smoke: OK (gates held at nprobe=$NPROBE)"
