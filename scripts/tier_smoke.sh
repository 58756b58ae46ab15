#!/bin/sh
# Tier smokes: sample one balanced corpus from the paper's probabilistic
# model with corpusgen and gate both approximate tiers on it at
# m >= 100k documents, the scale where sublinear candidate work and the
# int8 bandwidth saving must show up as wall clock:
#
#   * IVF ANN tier (annsmoke, its acceptance bar): recall@10 >= 0.95
#     at nprobe=8 AND the probed path faster than the exhaustive scan.
#     Summary: ann-smoke.json.
#   * int8 quantized tier (quantsmoke, its acceptance bar): top-10
#     overlap with the exact float ranking >= 0.99 AND the two-stage scan
#     faster than the exact scan. Operating point rank 64, beta 64: the
#     corpus has 800 near-duplicate documents per topic, so hundreds of
#     docs sit inside the int8 quantization error band around the top-10
#     boundary; beta=64 (rerank 640 of 102400, 0.6%) is where overlap
#     crosses 0.999 on this shape while the two-stage path stays ~8x
#     faster than the float scan (AVX2 kernel; see EXPERIMENTS.md).
#     Summary: quant-smoke.json.
#
# Each smoke exits non-zero when either of its gates trips; both run
# even if the first fails, and CI archives both summaries. CI runs this
# via `make tier-smoke`; binary paths come in as $1 (corpusgen), $2
# (annsmoke) and $3 (quantsmoke).
#
# The corpus shape is overridable for quick local runs, e.g.:
#   TIER_SMOKE_TOPICS=16 TIER_SMOKE_DOCS_PER_TOPIC=100 sh scripts/tier_smoke.sh ...
set -eu

usage="usage: tier_smoke.sh path/to/corpusgen path/to/annsmoke path/to/quantsmoke"
CORPUSGEN="${1:?$usage}"
ANNSMOKE="${2:?$usage}"
QUANTSMOKE="${3:?$usage}"

TOPICS="${TIER_SMOKE_TOPICS:-128}"
# 128 topics x 800 docs = 102400 documents: past the m >= 100k bar.
DOCS_PER_TOPIC="${TIER_SMOKE_DOCS_PER_TOPIC:-800}"
NPROBE="${TIER_SMOKE_NPROBE:-8}"
BETA="${TIER_SMOKE_BETA:-64}"
RANK="${TIER_SMOKE_QUANT_RANK:-64}"

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
"$QUANTSMOKE" -corpus "$CORPUS" -rank "$RANK" -beta "$BETA" \
    -topn 10 -queries 200 -seed 1 \
    -min-overlap 0.99 -min-speedup 1.0 -o quant-smoke.json \
    || failed="$failed quant(overlap/speedup gate)"
cat ann-smoke.json quant-smoke.json || true

# Belt and braces on the summary shapes: the gates above only bind if
# the smokes measured what this script thinks they measured.
check() { grep -q "$2" "$1" || failed="$failed $1(no $2)"; }
check ann-smoke.json '"nprobe": '"$NPROBE"
check ann-smoke.json '"recall"'
check ann-smoke.json '"speedup"'
check quant-smoke.json '"beta": '"$BETA"
check quant-smoke.json '"overlap"'
check quant-smoke.json '"speedup"'

if [ -n "$failed" ]; then
	echo "tier-smoke FAILED:$failed" >&2
	exit 1
fi
echo "tier-smoke: OK (gates held at nprobe=$NPROBE and beta=$BETA)"
