#!/bin/sh
# Dependency gates, run by CI via `make lint`; each failure prints the
# import chain that pulled the package in.
#
#   * One factorisation path: serving code (the daemon, the query CLI, the
#     public retrieval packages) reaches an SVD only through lsi.Build. The
#     paper's Section 5 two-step method and the experiment runners are the
#     reproduction, not serving.
#   * One index generation in serving: the daemon and the public retrieval
#     packages read only the internal/blob container. The gob decoder of
#     wire v1/v2 lives in internal/legacy, which only the offline
#     converter (lsiquery -upgrade) and tests may reach.
#   * One gob decoder: in the whole module only internal/legacy imports
#     encoding/gob itself.
set -eu

GO="${GO:-go}"

# forbid ROOTS PACKAGES: fail if the dependency closure of ROOTS lists any
# of PACKAGES.
forbid() {
	# shellcheck disable=SC2086 # the package list is intentionally word-split
	$GO list -deps -f '{{.ImportPath}} {{join .Imports " "}}' $1 | awk -v forbidden="$2" -v roots="$1" '
		{
			listed[$1] = 1
			for (i = 2; i <= NF; i++) if (!($i in by)) by[$i] = $1
		}
		END {
			n = split(forbidden, f, " ")
			for (k = 1; k <= n; k++) {
				if (!(f[k] in listed)) continue
				chain = f[k]
				for (p = f[k]; p in by; p = by[p]) chain = by[p] " -> " chain
				print "deps-check: " roots " reaches " f[k] ": " chain
				bad = 1
			}
			exit bad
		}
	'
}

status=0
forbid "./cmd/lsiserve ./cmd/lsiquery ./retrieval/..." "repro/internal/randproj repro/internal/experiments" || status=1
forbid "./cmd/lsiserve ./retrieval/..." "encoding/gob repro/internal/legacy" || status=1
$GO list -f '{{.ImportPath}} {{join .Imports " "}}' ./... | awk '
	{
		for (i = 2; i <= NF; i++) {
			if ($i == "encoding/gob" && $1 != "repro/internal/legacy") {
				print "deps-check: " $1 " imports encoding/gob; only repro/internal/legacy may"
				bad = 1
			}
		}
	}
	END { exit bad }
' || status=1
exit $status
