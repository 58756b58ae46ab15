package main

import "time"

// scale fixes every size of a run. The default scale is the one measured
// scale: the issue's fallback corpus (64 topics x 800 documents at rank
// 64), with the measured time the driver's cap leaves (92 runs share
// 3420 s, so one run, its 11 s of set-up included, has to end in about
// half a minute). -quick is the smoke test's.
type scale struct {
	name          string
	topics        int
	docsPerTopic  int
	termsPerTopic int
	rank          int
	seconds       float64 // default measured time, shared by the boots
	warmup        time.Duration
	boots         int // boots of the servers per run, each measured for seconds/boots
	oracleQueries int // exact_scan: queries checked against the naive oracle
	checkQueries  int // the other workloads: queries checked against the index's own exact answer
	zipfSet       int // Zipf workloads: size of the fixed query set
	ladder        int // queries replayed per rung in a traced run
	sealEvery     int
	ingestBatch   int
	ingestEvery   time.Duration
	nprobe        int // IVF cells probed per search, of one cell per topic
	quantBeta     int // int8 over-fetch: topN·quantBeta candidates are reranked in float
}

const (
	topN     = 10
	zipfS    = 1.1
	epsilon  = 0.1
	minLen   = 50
	maxLen   = 100
	shortLen = 8
	// minTieredRecall is the floor tiered_ann_quant's served recall@10 must
	// keep for a run to count as correct: speed may not be bought below it.
	minTieredRecall = 0.95
)

var (
	scaleQuick = scale{name: "quick", topics: 8, docsPerTopic: 100, termsPerTopic: 25, rank: 8,
		seconds: 1, warmup: 200 * time.Millisecond, boots: 2,
		oracleQueries: 40, checkQueries: 40, zipfSet: 100, ladder: 20,
		sealEvery: 16, ingestBatch: 4, ingestEvery: 40 * time.Millisecond, nprobe: 2, quantBeta: 4}
	scaleDefault = scale{name: "default", topics: 64, docsPerTopic: 800, termsPerTopic: 25, rank: 64,
		seconds: 10, warmup: time.Second, boots: 4,
		oracleQueries: 250, checkQueries: 500, zipfSet: 2000, ladder: 300,
		sealEvery: 128, ingestBatch: 16, ingestEvery: 50 * time.Millisecond, nprobe: 4, quantBeta: 16}
)

func (s scale) numDocs() int { return s.topics * s.docsPerTopic }

// workload is one traffic mix and the server topology it runs against.
type workload struct {
	name   string
	why    string
	shards int  // 0 = one immutable index file
	tiered bool // IVF + int8 tiers on
	long   bool // whole held-out documents as queries, else 8-term queries
	zipf   bool // queries drawn Zipf from a fixed set, else all distinct
	ingest bool // one client searches while a paced writer posts batches
	fanout bool // router over one node process per shard
}

var workloads = []workload{
	{name: "exact_scan",
		why: "unsharded float scan, distinct short queries: mat.DotNorm, topk and par own the time, HTTP and the cache are noise"},
	{name: "tiered_ann_quant", shards: 2, tiered: true, long: true,
		why: "IVF + int8 + rerank on 2 shards, distinct long queries: the scan shrinks so ir, fold-in, JSON and the socket dominate; recall can fall"},
	{name: "ingest_mixed", shards: 2, zipf: true, ingest: true,
		why: "Zipf searches beside a paced /v1/docs:batch writer with a WAL: fold-in, fsync, cache invalidation and compaction stalls"},
	{name: "cluster_fanout", shards: 3, zipf: true, fanout: true,
		why: "router over 3 node processes, Zipf queries the node caches absorb: fan-out, exact merge and the second HTTP hop own the latency"},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricDef is one metric as BENCHMARK.json declares it. The lists below
// are the single source of the names this program emits; names_test.go
// holds BENCHMARK.json equal to them (and rewrites it under -update).
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: the share of the parent's median it may get worse by
}

// The end-to-end metrics, with the issue's bounds: 15 % for set-up, a
// tenth otherwise, 0.005 for recall, and no failure at all (one failed
// request in a run's ~30,000 is a share of 3e-5).
//
// search_qps, search_p50_ms, search_p99_ms and open_s are not here: over
// ten seeds of one build, twice, their spread on this box was 4–16 %,
// 4–20 %, 9–34 % and 12–35 % of the median, which a tenth (15 % for
// open_s) does not hold, and the issue's rule for that case is to move the metric to
// the per-layer list, not to widen its bound. They are bench.search_qps,
// bench.search_p50_ms, bench.search_p99_ms and lsiserve.boot_s, and every
// run prints them beside the end-to-end metrics. ingest_ack_* exist on one
// workload only and are ingest.ack_*; failed_share is ok_share turned
// round, because an end-to-end metric may not read 0.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.15},
	{"recall_at_10", "ratio", "higher", 0.005},
	{"ok_share", "ratio", "higher", 1e-6},
	{"rss_peak_mb", "MB", "lower", 0.10},
}

// layerGroup is a set of per-layer metrics with one predicted effect,
// written down before anything was measured: which of the run's top-level
// figures they should move, on which workload, and where the prediction
// is no change. A later perf_opt issue is held to it.
type layerGroup struct {
	moves   string
	on      string
	flat    string
	metrics []metricDef
}

const (
	speed   = "bench.search_p50_ms, bench.search_qps"
	readers = "exact_scan, tiered_ann_quant, cluster_fanout"
)

var layerGroups = []layerGroup{
	{moves: "nothing: the roofline the kernels are read against", on: "-", flat: "all",
		metrics: []metricDef{
			{"mat.stream_gbps", "GB/s", "higher", 0},
		}},
	{moves: speed, on: "exact_scan", flat: "tiered_ann_quant (at most the rerank's share), cluster_fanout (cache hits)",
		metrics: []metricDef{
			{"mat.dotnorm_ns_per_row", "ns", "lower", 0},
			{"mat.dotnorm_gbps", "GB/s", "higher", 0},
			{"mat.dotnorm_roofline_share", "ratio", "higher", 0},
			{"topk.select_ns_per_doc", "ns", "lower", 0},
			{"lsi.scan_ns_per_doc", "ns", "lower", 0},
			{"lsi.scan_us", "us", "lower", 0},
			{"lsi.search_us", "us", "lower", 0},
			{"par.scan_speedup", "ratio", "higher", 0},
		}},
	{moves: speed, on: "tiered_ann_quant", flat: "exact_scan",
		metrics: []metricDef{
			{"mat.dotint8_ns_per_row", "ns", "lower", 0},
			{"mat.dotint8_gbps", "GB/s", "higher", 0},
			{"mat.dotint8_roofline_share", "ratio", "higher", 0},
			{"mat.multvecsparse_ns_per_nnz", "ns", "lower", 0},
			{"lsi.project_us", "us", "lower", 0},
			{"ivf.probe_us", "us", "lower", 0},
			{"ivf.search_us", "us", "lower", 0},
			{"quant.scan_ns_per_doc", "ns", "lower", 0},
			{"quant.search_us", "us", "lower", 0},
			{"segment.exact_us", "us", "lower", 0},
			{"segment.ann_us", "us", "lower", 0},
			{"segment.quant_us", "us", "lower", 0},
			{"segment.composed_us", "us", "lower", 0},
			{"shard.search_us", "us", "lower", 0},
		}},
	{moves: "recall_at_10", on: "tiered_ann_quant", flat: "the three exact workloads (exactly 1)",
		metrics: []metricDef{
			{"ivf.cells_probed_per_query", "count", "lower", 0},
			{"ivf.docs_scored_per_query", "count", "lower", 0},
			{"ivf.recall_at_10", "ratio", "higher", 0},
			{"quant.reranked_per_query", "count", "lower", 0},
			{"quant.overlap_at_10", "ratio", "higher", 0},
		}},
	{moves: "setup_s, rss_peak_mb", on: "tiered_ann_quant", flat: "exact_scan",
		metrics: []metricDef{
			{"ivf.train_s", "s", "lower", 0},
			{"ivf.bytes_per_doc", "B", "lower", 0},
			{"quant.quantize_s", "s", "lower", 0},
			{"quant.bytes_per_doc", "B", "lower", 0},
		}},
	{moves: speed, on: "tiered_ann_quant, cluster_fanout (paid on both hops)", flat: "exact_scan (at most 5 %)",
		metrics: []metricDef{
			{"ir.pipeline_us", "us", "lower", 0},
			{"ir.tokens_per_query", "count", "lower", 0},
			{"retrieval.search_us", "us", "lower", 0},
			{"retrieval.self_us", "us", "lower", 0},
			{"retrieval.search_allocs", "count", "lower", 0},
			{"httpapi.search_us", "us", "lower", 0},
			{"httpapi.self_us", "us", "lower", 0},
			{"httpapi.allocs_per_req", "count", "lower", 0},
			{"httpapi.resp_bytes", "B", "lower", 0},
			{"httpapi.shed", "count", "lower", 0},
			{"httpapi.server_mean_us", "us", "lower", 0},
			{"lsiserve.loopback_us", "us", "lower", 0},
			{"lsiserve.self_us", "us", "lower", 0},
			{"lsiserve.cpu_ms_per_search", "ms", "lower", 0},
		}},
	{moves: "setup_s, lsiserve.boot_s, rss_peak_mb", on: "all", flat: "-",
		metrics: []metricDef{
			{"retrieval.build_s", "s", "lower", 0},
			{"retrieval.save_s", "s", "lower", 0},
			{"retrieval.open_s", "s", "lower", 0},
			{"retrieval.memory_bytes_per_doc", "B", "lower", 0},
			{"shard.savedir_s", "s", "lower", 0},
			{"shard.open_s", "s", "lower", 0},
			{"cluster.export_s", "s", "lower", 0},
			{"wal.replay_docs_per_s", "1/s", "higher", 0},
			{"lsiserve.boot_s", "s", "lower", 0},
		}},
	{moves: "bench.search_p50_ms", on: "cluster_fanout (mostly hits), ingest_mixed (hit ratio set by epoch invalidation)", flat: "exact_scan, tiered_ann_quant (exactly 0 hits)",
		metrics: []metricDef{
			{"cache.hit_ratio", "ratio", "higher", 0},
			{"cache.coalesced_share", "ratio", "higher", 0},
			{"cache.evictions", "count", "lower", 0},
			{"cache.hit_us", "us", "lower", 0},
		}},
	{moves: "ingest.ack_p50_ms, ingest.ack_p99_ms, bench.search_p99_ms", on: "ingest_mixed", flat: readers,
		metrics: []metricDef{
			{"shard.addbatch_us_per_doc", "us", "lower", 0},
			{"shard.compactions", "count", "lower", 0},
			{"shard.compacting_share", "ratio", "lower", 0},
			{"shard.segments_end", "count", "lower", 0},
			{"segment.extend_us_per_doc", "us", "lower", 0},
			{"segment.compact_s", "s", "lower", 0},
			{"wal.append_us", "us", "lower", 0},
			{"wal.bytes_per_doc", "B", "lower", 0},
		}},
	{moves: "bench.search_p50_ms, bench.search_p99_ms", on: "cluster_fanout", flat: "the other three",
		metrics: []metricDef{
			{"cluster.router_us", "us", "lower", 0},
			{"cluster.node_us", "us", "lower", 0},
			{"cluster.self_us", "us", "lower", 0},
			{"cluster.hedges", "count", "lower", 0},
			{"cluster.retries", "count", "lower", 0},
			{"cluster.partials", "count", "lower", 0},
			{"cluster.node_errors", "count", "lower", 0},
		}},
	{moves: "themselves: what the load of the run saw, and how far to trust the ladder", on: "all", flat: "-",
		metrics: []metricDef{
			{"ingest.ack_p50_ms", "ms", "lower", 0},
			{"ingest.ack_p99_ms", "ms", "lower", 0},
			{"ingest.docs_acked", "count", "higher", 0},
			{"bench.search_qps", "1/s", "higher", 0},
			{"bench.search_p50_ms", "ms", "lower", 0},
			{"bench.search_p99_ms", "ms", "lower", 0},
			{"bench.failed_share", "ratio", "lower", 0},
			{"bench.samples", "count", "higher", 0},
			{"bench.scan_share", "ratio", "higher", 0},
			{"bench.self_sum_share", "ratio", "lower", 0},
			{"bench.writer_late_share", "ratio", "lower", 0},
			{"bench.trace_overhead_share", "ratio", "lower", 0},
		}},
}

// perLayer is every per-layer metric, in the order BENCHMARK.json lists them.
var perLayer = func() []metricDef {
	var all []metricDef
	for _, g := range layerGroups {
		all = append(all, g.metrics...)
	}
	return all
}()
