#!/bin/sh
# Godoc-coverage gate for the public surface: every exported top-level
# declaration (func, method, type, var, const) in the packages operators
# and integrators consume must carry a doc comment. This is a
# line-oriented check, not a full go/doc parse: it looks at the line
# directly above each exported declaration, which is exactly where gofmt
# puts doc comments. Grouped var/const blocks are out of scope. It also
# fails on a DESIGN.md section number used twice, and on a DESIGN.md
# reference that names no section or heading. CI runs this (plus go vet)
# via `make docs-check`.
set -eu

GO="${GO:-go}"

# Packages whose godoc is the product: the public retrieval API, its
# cache/sharding/durability subsystems, the cluster tier, the HTTP
# layer, the metrics kit, the IVF ANN quantizer, the int8 scoring
# shadow and its fidelity metrics, and the fault-injection harness
# chaos tests and benches script against.
DIRS="retrieval retrieval/cache retrieval/shard retrieval/wal retrieval/cluster retrieval/httpapi internal/metrics internal/ivf internal/quant internal/eval internal/faultinject"

$GO vet $(for d in $DIRS; do printf './%s ' "$d"; done)

bad=0
for d in $DIRS; do
    for f in "$d"/*.go; do
        case "$f" in *_test.go) continue ;; esac
        # prev holds the previous line; a declaration is documented when
        # that line is a // comment or closes a /* */ block. Methods only
        # count when the receiver type is itself exported — methods on
        # unexported types never surface in godoc.
        awk '
            {
                flag = 0
                if ($0 ~ /^(type|func|var|const) [A-Z]/) {
                    flag = 1
                } else if ($0 ~ /^func \([^)]*\) [A-Z]/) {
                    rcv = $0
                    sub(/^func \(/, "", rcv); sub(/\).*/, "", rcv)
                    n = split(rcv, parts, " "); typ = parts[n]; sub(/^\*/, "", typ)
                    if (typ ~ /^[A-Z]/) flag = 1
                }
                if (flag && prev !~ /^\/\// && prev !~ /\*\/[[:space:]]*$/) {
                    printf "%s:%d: missing doc comment: %s\n", FILENAME, FNR, $0
                    bad = 1
                }
                prev = $0
            }
            END { exit bad }
        ' "$f" || bad=1
    done
done

if [ "$bad" -ne 0 ]; then
    echo "docs-check FAILED: exported identifiers above lack doc comments" >&2
    exit 1
fi
# DESIGN.md is cross-referenced by section number (§N) from code and
# docs, so a number may head only one section.
dups="$(grep -oE '^## [0-9]+\.' DESIGN.md | sort | uniq -d)"
if [ -n "$dups" ]; then
    echo "docs-check FAILED: DESIGN.md repeats section heading(s):" $dups >&2
    exit 1
fi
# Code and docs cite DESIGN.md by section number (the file name, then §
# and the number) or by heading (the file name, then the title in double
# quotes); each citation in a Go, shell or Markdown file must land on a
# `## N.` section or on a heading of exactly that title, its number aside.
dangling="$(grep -rnoE --include='*.go' --include='*.sh' --include='*.md' \
        --exclude-dir=.git --exclude-dir=.bench_build \
        'DESIGN\.md (§[0-9]+|"[A-Z0-9][^"]*")' . |
    while IFS= read -r ref; do
        target="${ref#*DESIGN.md }"
        case "$target" in
        §*) grep -qE "^## ${target#§}\." DESIGN.md ;;
        *) target="${target#\"}"
            sed -nE 's/^#+ ([0-9]+\. )?//p' DESIGN.md | grep -qFx "${target%\"}" ;;
        esac || echo "$ref"
    done)"
if [ -n "$dangling" ]; then
    echo "docs-check FAILED: DESIGN.md references name no section or heading:" >&2
    echo "$dangling" >&2
    exit 1
fi
echo "docs-check: OK (go vet clean, every exported identifier documented in: $DIRS; DESIGN.md section numbers unique, every DESIGN.md reference lands)"
