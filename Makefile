# Single source of truth for the commands CI runs — `make <target>` locally
# reproduces the corresponding workflow job exactly.

GO ?= go

# Base ref for the perf-regression gate (CI passes the PR's base branch).
BASE ?= origin/main

.PHONY: all build test lint vet fmt-check docs-check deps-check reach-check settings-check race bench-smoke bench bench-gate ledger-frozen loc loc-diff fuzz-short serve-smoke load-smoke cluster-smoke chaos-smoke tier-smoke

all: build test

# The second and third lines cross-compile for a platform without the
# assembly kernels (no download needed), so the portable stubs behind
# internal/mat's dispatch cannot rot unnoticed on an amd64-only CI. The
# last three do the same for internal/blob's two fallbacks to the streaming
# read: a platform without mmap, and a big-endian one.
build:
	$(GO) build ./...
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/mat
	GOOS=windows $(GO) build ./...
	GOARCH=s390x $(GO) build ./...
	GOARCH=s390x $(GO) vet ./internal/blob

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Fails (and lists the offenders) if any file needs gofmt.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

lint: vet fmt-check docs-check deps-check reach-check settings-check

# Godoc-coverage gate: go vet plus a doc-comment check over every
# exported identifier of the operator-facing packages (retrieval, its
# cache/shard subsystems, the HTTP layer, internal/metrics).
docs-check:
	sh scripts/docs_check.sh

# One factorisation path: the serving binaries and the public retrieval
# packages must not depend on internal/randproj (the paper's two-step
# method) or internal/experiments; one index generation in serving:
# lsiserve and retrieval must not reach encoding/gob or internal/legacy,
# and only internal/legacy imports encoding/gob. Prints the import chain.
deps-check:
	sh scripts/deps_check.sh

# Every exported name in internal/ is reached from code a program runs,
# and every unexported package-level name too (the root tier-1 test that
# type-checks this module and bench/; it names each offender), and the
# checker still holds to its fixture.
reach-check:
	$(GO) test -run '^(TestInternalNamesAreReached|TestReachabilityCheckerFixture)$$' .

# Every field of an exported *Options or *Config struct, and every
# retrieval With* option, is set by code a program runs, unless its pin
# lists it: a value only tests set is a constant (the root tier-1 test
# that type-checks this module and bench/; it names each offender), and
# the check still holds to its fixture.
settings-check:
	$(GO) test -run '^(TestSettingsAreSet|TestSettingsCheckerFixture)$$' .

# Race-detect the concurrency-bearing packages: the worker pool, the
# numeric + retrieval layers built on it (the randomized SVD's panel
# reductions and its MaxProcs-equality test included), the random
# projection that shares those kernels, the text pipeline and matrix
# assembly in front of them (TermDocMatrix tokenizes, counts and scatters chunks of
# documents concurrently), the public API + HTTP layer
# (including the admission-gate degradation tests), the WAL, the
# cluster router/replica (hedged fan-out, failover, breakers, the chaos
# suite), the fault-injection harness, the metrics registry, the IVF
# ANN quantizer and the int8 scoring shadow (both trained and probed
# concurrently by the compactor and searches), the one chunk-parallel
# selection loop under every search route, the fidelity metrics, the
# load generator, and the index-file container (mappings are released
# by the garbage collector under running searches; -race also turns on
# checkptr for its one unsafe view).
race:
	$(GO) test -race ./internal/blob ./internal/par ./internal/ir ./internal/corpus ./internal/sparse ./internal/mat ./internal/svd ./internal/randproj ./internal/topk ./internal/scan ./internal/lsi ./internal/vsm ./internal/segment ./internal/ivf ./internal/quant ./internal/idtable ./internal/eval ./internal/metrics ./internal/faultinject ./retrieval ./retrieval/cache ./retrieval/shard ./retrieval/wal ./retrieval/cluster ./retrieval/httpapi ./cmd/lsiserve ./cmd/lsiload

# Build the serving daemon, boot it on a free port, and curl the health
# and search endpoints — fails on any non-200.
serve-smoke:
	$(GO) build -o bin/lsiserve ./cmd/lsiserve
	sh scripts/serve_smoke.sh bin/lsiserve

# Boot lsiserve as a sharded live index and drive a short closed-loop
# lsiload Zipf trace against it; fails on any failed (non-2xx/429)
# request or a dead /metrics endpoint. The latency summary lands in
# load-smoke.json so CI can archive the under-load quantiles per commit.
load-smoke:
	$(GO) build -o bin/lsiserve ./cmd/lsiserve
	$(GO) build -o bin/lsiload ./cmd/lsiload
	sh scripts/load_smoke.sh bin/lsiserve bin/lsiload

# Stand up a 3-node local cluster (shard export + WAL'd nodes + router
# over a generated manifest) and drive an lsiload Zipf trace through
# the router; fails on any failed request, a degraded quorum, or
# missing lsi_cluster_* metrics. The summary lands in
# cluster-smoke.json (archived by CI).
cluster-smoke:
	$(GO) build -o bin/lsiserve ./cmd/lsiserve
	$(GO) build -o bin/lsiload ./cmd/lsiload
	sh scripts/cluster_smoke.sh bin/lsiserve bin/lsiload

# Chaos smoke: the 3-node cluster + router with lsiserve -chaos armed,
# driven by lsiload -faults on a schedule that flaps one node and
# partitions another. lsiload gates the resilience invariants (no stuck
# request, acked-write ledger exact); the script asserts the faults
# landed, the cluster healed, and the breaker/health metrics are live.
# The summary lands in chaos-smoke.json (archived by CI).
chaos-smoke:
	$(GO) build -o bin/lsiserve ./cmd/lsiserve
	$(GO) build -o bin/lsiload ./cmd/lsiload
	sh scripts/chaos_smoke.sh bin/lsiserve bin/lsiload

# Compile-and-run guard for every benchmark: one iteration each with
# allocation reporting, no tests. The output lands in bench-smoke.txt so
# CI can archive the per-commit perf trajectory as an artifact.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -benchmem -run='^$$' ./... > bench-smoke.txt 2>&1 || { cat bench-smoke.txt; exit 1; }
	cat bench-smoke.txt

# Full benchmark sweep (slow; for perf-trajectory measurements).
bench:
	$(GO) test -bench=. -benchmem -run='^$$' ./...

# Perf-regression gate: benchmark the tier-1 query hot-path subset and
# the index-build kernels on HEAD and on the merge-base with $(BASE),
# compare medians, and fail on
# a >20% ns/op regression or any allocs/op growth. The report lands in
# bench-gate.txt (archived by CI as an artifact).
bench-gate:
	sh scripts/bench_gate.sh -r "$(BASE)" -o bench-gate.txt

# The benchmark ledger (bench/ + BENCHMARK.json) is the yardstick every PR
# is measured with, so it is frozen: a PR must keep every name and
# signature bench/ compiles against and may not edit the ledger itself.
# Vets and tests the bench module against this tree (~15 s), then fails on
# any difference from $(BASE) — committed, staged, unstaged or untracked —
# under bench/ or in BENCHMARK.json.
ledger-frozen:
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...
	git diff --exit-code "$(BASE)" -- bench BENCHMARK.json
	@out="$$(git status --porcelain -- bench BENCHMARK.json)"; if [ -n "$$out" ]; then \
		echo "ledger-frozen: uncommitted changes in the frozen ledger:"; echo "$$out"; exit 1; \
	fi

# ROADMAP's simplicity measures, in non-test lines of Go: the search stack
# (retrieval, retrieval/shard, internal/{segment,ivf,quant}), then
# everything outside bench/.
loc:
	@ls retrieval/*.go retrieval/shard/*.go internal/segment/*.go internal/ivf/*.go internal/quant/*.go | grep -v _test.go | xargs cat | wc -l
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' | xargs cat | wc -l

# The two `make loc` lines on a `git archive` of $(BASE) and on the working
# tree, counted by this Makefile on both, with the difference: ROADMAP's
# rule that every PR is net non-positive on line 2, as one pasted output.
loc-diff:
	@tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	git archive "$(BASE)" | tar -x -C "$$tmp" || exit 1; \
	base="$$($(MAKE) -s --no-print-directory -C "$$tmp" -f "$(CURDIR)/Makefile" loc)" || exit 1; \
	head="$$($(MAKE) -s --no-print-directory loc)" || exit 1; \
	echo $$base $$head | awk '{ \
		printf "line 1 (search stack):     base %6d  head %6d  delta %+d\n", $$1, $$3, $$3 - $$1; \
		printf "line 2 (Go outside bench): base %6d  head %6d  delta %+d\n", $$2, $$4, $$4 - $$2 }'

# Sample one balanced >=100k-document corpus from the paper's model with
# corpusgen and gate the IVF ANN tier on it (recall@10 >= 0.95 at
# nprobe=8, ANN faster than exhaustive). The summary lands in
# ann-smoke.json (archived by CI).
tier-smoke:
	$(GO) build -o bin/corpusgen ./cmd/corpusgen
	$(GO) build -o bin/annsmoke ./cmd/annsmoke
	sh scripts/tier_smoke.sh bin/corpusgen bin/annsmoke

# Short local mirror of the nightly fuzz job: 30s per fuzz target (the
# checkpoint generation file's reader and its manifest decoder, the
# converter's old-manifest parser, the query tokenizer, the query-cache
# key encoder, the WAL record decoder, the IVF sidecar's cell decoder, the
# quantized sidecar decoder, the index file's section container and LSI
# decoder, the offline converter's gob decoder, the search routes' JSON
# bodies, and the decode of a node's answer to the router or a replica).
fuzz-short:
	$(GO) test -run='^$$' -fuzz=FuzzOpenCheckpoint -fuzztime=30s ./retrieval/shard
	$(GO) test -run='^$$' -fuzz=FuzzParseCheckpointManifest -fuzztime=30s ./retrieval/shard
	$(GO) test -run='^$$' -fuzz=FuzzParseManifest -fuzztime=30s ./internal/legacy
	$(GO) test -run='^$$' -fuzz=FuzzTokenize -fuzztime=30s ./internal/ir
	$(GO) test -run='^$$' -fuzz=FuzzQueryKeyInjective -fuzztime=30s ./retrieval/cache
	$(GO) test -run='^$$' -fuzz=FuzzScanRecords -fuzztime=30s ./retrieval/wal
	$(GO) test -run='^$$' -fuzz=FuzzDecodePostings -fuzztime=30s ./internal/ivf
	$(GO) test -run='^$$' -fuzz=FuzzDecodeQuant -fuzztime=30s ./internal/quant
	$(GO) test -run='^$$' -fuzz=FuzzBlobSections -fuzztime=30s ./internal/blob
	$(GO) test -run='^$$' -fuzz=FuzzLoadIndex -fuzztime=30s ./internal/lsi
	$(GO) test -run='^$$' -fuzz=FuzzLegacyIndex -fuzztime=30s -fuzzminimizetime=5s ./internal/legacy
	$(GO) test -run='^$$' -fuzz=FuzzSearchBody -fuzztime=30s ./retrieval/httpapi
	$(GO) test -run='^$$' -fuzz=FuzzNodeAnswer -fuzztime=30s ./retrieval/cluster
