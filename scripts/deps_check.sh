#!/bin/sh
# One-factorisation-path gate: serving code (the daemon, the query CLI,
# the public retrieval packages) reaches an SVD only through lsi.Build.
# The paper's Section 5 two-step method and the experiment runners are the
# reproduction, not serving — if either shows up in the serving binaries'
# dependency closure, a second decomposition path has grown back. Fails
# with the import chain that pulled it in. In the same closure only
# internal/lsi, the reader of the legacy v1/v2 index files, may import
# encoding/gob itself: any other package that does names a second gob
# decoder, and is printed. CI runs this via `make lint`.
set -eu

GO="${GO:-go}"
ROOTS="./cmd/lsiserve ./cmd/lsiquery ./retrieval/..."
FORBIDDEN="repro/internal/randproj repro/internal/experiments"
GOB_READER="repro/internal/lsi"

# shellcheck disable=SC2086 # the package list is intentionally word-split
$GO list -deps -f '{{.ImportPath}} {{join .Imports " "}}' $ROOTS | awk -v forbidden="$FORBIDDEN" -v gobok="$GOB_READER" '
	{
		listed[$1] = 1
		for (i = 2; i <= NF; i++) {
			if (!($i in by)) by[$i] = $1
			if ($i == "encoding/gob" && $1 ~ /^repro\// && $1 != gobok) {
				print "deps-check: " $1 " imports encoding/gob; only " gobok " may"
				bad = 1
			}
		}
	}
	END {
		n = split(forbidden, f, " ")
		for (k = 1; k <= n; k++) {
			if (!(f[k] in listed)) continue
			chain = f[k]
			for (p = f[k]; p in by; p = by[p]) chain = by[p] " -> " chain
			print "deps-check: serving code imports " f[k] ": " chain
			bad = 1
		}
		exit bad
	}
'
