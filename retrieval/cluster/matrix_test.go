package cluster_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/retrieval"
	"repro/retrieval/cluster"
	"repro/retrieval/httpapi"
)

// matrixRequests are the requests of TestHTTPContractMatrix, in the order
// each backend receives them (the docs append comes after the searches, so
// the search cells see the built index).
var matrixRequests = []struct{ name, method, path, body string }{
	{"query", "POST", "/v1/search", `{"query":"car engine","topN":3}`},
	{"vector", "POST", "/v1/search", `{"vector":%s,"topN":3}`},
	{"nprobe0", "POST", "/v1/search", `{"query":"car engine","topN":3,"nprobe":0}`},
	{"nprobe2", "POST", "/v1/search", `{"query":"car engine","topN":3,"nprobe":2}`},
	{"nprobe-1", "POST", "/v1/search", `{"query":"car engine","topN":3,"nprobe":-1}`},
	{"batch", "POST", "/v1/search:batch", `{"queries":["car engine","stars and galaxies"],"topN":3}`},
	{"docs", "POST", "/v1/docs", `{"id":"matrix-doc","text":"a car engine on the road"}`},
	{"stats", "GET", "/v1/stats", ""},
	{"readyz", "GET", "/readyz", ""},
	{"wal", "GET", "/v1/replicate/wal?from=0", ""},
}

// matrixCell renders one response as its status code and the headers the
// HTTP contract pins: Cache-Status, X-Partial-Results and the three
// freshness headers ("-" = absent).
func matrixCell(rec *httptest.ResponseRecorder) string {
	h := func(name string) string {
		if v := rec.Header().Get(name); v != "" {
			return v
		}
		return "-"
	}
	return fmt.Sprintf("%d cache=%s partial=%s epoch=%s gen=%s docs=%s", rec.Code,
		h("Cache-Status"), h("X-Partial-Results"), h("X-Index-Epoch"), h("X-Index-Generation"), h("X-Index-Docs"))
}

// metricFamilies lists the lsi_* family names a /metrics body declares,
// sorted, leaving out the handler's own lsi_http_* series (the same on
// every backend).
func metricFamilies(body string) string {
	var fams []string
	for _, line := range strings.Split(body, "\n") {
		if name, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name = strings.Fields(name)[0]
			if !strings.HasPrefix(name, "lsi_http_") {
				fams = append(fams, name)
			}
		}
	}
	sort.Strings(fams)
	return strings.Join(fams, " ")
}

// TestHTTPContractMatrix pins what httpapi serves over every backend it
// is given in production: for each request, the status and the contract
// headers; for each backend, the /metrics families, and that /v1/stats
// "ready" agrees with /readyz. A change to how the handler learns what a
// backend can do must leave every cell as it is, except where the
// contract changes on purpose; those cells say what they were.
func TestHTTPContractMatrix(t *testing.T) {
	ctx := context.Background()
	docs := corpus(48)
	tc := startCluster(t, 48, 2)
	if err := tc.router.Sync(ctx); err != nil {
		t.Fatal(err)
	}

	unsharded, err := retrieval.Build(docs, retrieval.WithRank(3), retrieval.WithSeed(7),
		retrieval.WithQueryCache(1<<20), retrieval.WithANN(4, 2), retrieval.WithQuantized(4))
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := retrieval.Build(docs, retrieval.WithRank(3), retrieval.WithSeed(7),
		retrieval.WithShards(2), retrieval.WithAutoCompact(false))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sharded.Close() })
	if _, err := sharded.AttachWAL(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	vsm, err := retrieval.BuildVSM(docs)
	if err != nil {
		t.Fatal(err)
	}
	fresh := cluster.NewReplica(tc.servers[0].URL, t.TempDir(), cluster.ReplicaOptions{})
	booted := cluster.NewReplica(tc.servers[1].URL, t.TempDir(), cluster.ReplicaOptions{})
	if err := booted.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}

	vec := make([]string, unsharded.NumTerms())
	for i := range vec {
		vec[i] = "0"
	}
	vec[0] = "1"
	vector := "[" + strings.Join(vec, ",") + "]"

	// The router and the replica register their own series on the
	// handler's registry, as lsiserve does.
	withReg := func(register func(*metrics.Registry)) httpapi.Options {
		reg := metrics.NewRegistry()
		register(reg)
		return httpapi.Options{Metrics: reg}
	}
	backends := []struct {
		name string
		ret  retrieval.Retriever
		opts httpapi.Options
		want []string // one cell per matrixRequests entry
		fams string
	}{
		{"unsharded", unsharded, httpapi.Options{}, []string{
			"200 cache=miss partial=- epoch=0 gen=0 docs=48",
			"200 cache=- partial=- epoch=0 gen=0 docs=48",
			"200 cache=- partial=- epoch=0 gen=0 docs=48",
			"200 cache=- partial=- epoch=0 gen=0 docs=48",
			"400 cache=- partial=- epoch=- gen=- docs=-",
			"200 cache=- partial=- epoch=0 gen=0 docs=48",
			"501 cache=- partial=- epoch=- gen=- docs=-",
			"200 cache=- partial=- epoch=0 gen=0 docs=48",
			"200 cache=- partial=- epoch=0 gen=0 docs=48",
			"404 cache=- partial=- epoch=- gen=- docs=-",
		}, "lsi_ann_cells_probed_total lsi_ann_docs lsi_ann_docs_scored_total lsi_ann_nlist lsi_ann_nprobe lsi_ann_searches_total lsi_ann_segments lsi_cache_bytes lsi_cache_capacity_bytes lsi_cache_entries lsi_cache_evictions_total lsi_cache_lookups_total lsi_cache_probation_bytes lsi_cache_probation_evictions_total lsi_cache_rejected_total lsi_cache_retired_total lsi_index_docs lsi_index_mapped_bytes lsi_index_mappings lsi_index_memory_bytes lsi_quant_beta lsi_quant_bytes lsi_quant_docs lsi_quant_docs_reranked_total lsi_quant_docs_scanned_total lsi_quant_searches_total lsi_quant_segments"},
		{"sharded+wal", sharded, httpapi.Options{}, []string{
			"200 cache=- partial=- epoch=0 gen=0 docs=48",
			"200 cache=- partial=- epoch=0 gen=0 docs=48",
			"200 cache=- partial=- epoch=0 gen=0 docs=48",
			"200 cache=- partial=- epoch=0 gen=0 docs=48",
			"400 cache=- partial=- epoch=- gen=- docs=-",
			"200 cache=- partial=- epoch=0 gen=0 docs=48",
			"200 cache=- partial=- epoch=1 gen=0 docs=49",
			"200 cache=- partial=- epoch=1 gen=0 docs=49",
			"200 cache=- partial=- epoch=1 gen=0 docs=49",
			"410 cache=- partial=- epoch=- gen=- docs=-",
		}, "lsi_index_compacting lsi_index_compaction_debt lsi_index_compaction_failures_total lsi_index_compactions_total lsi_index_docs lsi_index_docs_ingested_total lsi_index_epoch lsi_index_epoch_age_seconds lsi_index_mapped_bytes lsi_index_mappings lsi_index_memory_bytes lsi_index_sidecars_degraded_total lsi_shard_docs lsi_shard_segments"},
		{"vsm", vsm, httpapi.Options{}, []string{
			"200 cache=- partial=- epoch=- gen=- docs=48",
			"400 cache=- partial=- epoch=- gen=- docs=-",
			"400 cache=- partial=- epoch=- gen=- docs=-",
			"400 cache=- partial=- epoch=- gen=- docs=-",
			"400 cache=- partial=- epoch=- gen=- docs=-",
			"200 cache=- partial=- epoch=- gen=- docs=48",
			"501 cache=- partial=- epoch=- gen=- docs=-",
			"200 cache=- partial=- epoch=- gen=- docs=48",
			"200 cache=- partial=- epoch=- gen=- docs=48",
			"404 cache=- partial=- epoch=- gen=- docs=-",
		}, "lsi_index_docs lsi_index_mapped_bytes lsi_index_mappings lsi_index_memory_bytes"},
		{"router", tc.router, withReg(tc.router.RegisterMetrics), []string{
			"200 cache=- partial=- epoch=- gen=- docs=48",
			"400 cache=- partial=- epoch=- gen=- docs=-",
			"400 cache=- partial=- epoch=- gen=- docs=-",
			"400 cache=- partial=- epoch=- gen=- docs=-",
			"400 cache=- partial=- epoch=- gen=- docs=-",
			"200 cache=- partial=- epoch=- gen=- docs=48",
			"200 cache=- partial=- epoch=- gen=- docs=49",
			"200 cache=- partial=- epoch=- gen=- docs=49",
			"200 cache=- partial=- epoch=- gen=- docs=49",
			"404 cache=- partial=- epoch=- gen=- docs=-",
		}, "lsi_cluster_breaker_denied_total lsi_cluster_breaker_trips_total lsi_cluster_breakers_half_open lsi_cluster_breakers_open lsi_cluster_docs lsi_cluster_hedges_total lsi_cluster_ingest_synced lsi_cluster_manifest_reloads_total lsi_cluster_manifest_stale_reloads_total lsi_cluster_manifest_version lsi_cluster_node_errors_total lsi_cluster_node_sheds_total lsi_cluster_nodes_ejected lsi_cluster_partial_results_total lsi_cluster_probe_failures_total lsi_cluster_retries_total lsi_cluster_retry_budget_exhausted_total lsi_index_docs lsi_index_mapped_bytes lsi_index_mappings lsi_index_memory_bytes"},
		{"replica", fresh, withReg(fresh.RegisterMetrics), []string{
			"500 cache=- partial=- epoch=- gen=- docs=-",
			"500 cache=- partial=- epoch=- gen=- docs=-", // was 400: a replica accepts vectors
			"500 cache=- partial=- epoch=- gen=- docs=-", // was 400: and probe budgets
			"500 cache=- partial=- epoch=- gen=- docs=-", // was 400
			"400 cache=- partial=- epoch=- gen=- docs=-",
			"500 cache=- partial=- epoch=- gen=- docs=-",
			"501 cache=- partial=- epoch=- gen=- docs=-",
			"200 cache=- partial=- epoch=0 gen=0 docs=0",
			"503 cache=- partial=- epoch=0 gen=0 docs=0",
			"404 cache=- partial=- epoch=- gen=- docs=-",
		}, "lsi_index_docs lsi_index_mapped_bytes lsi_index_mappings lsi_index_memory_bytes lsi_replica_batches_total lsi_replica_docs lsi_replica_docs_applied_total lsi_replica_generation lsi_replica_resumed_pulls_total lsi_replica_snapshots_total"},
		{"replica+boot", booted, withReg(booted.RegisterMetrics), []string{
			"200 cache=- partial=- epoch=0 gen=0 docs=24",
			"200 cache=- partial=- epoch=0 gen=0 docs=24", // was 400: a replica accepts vectors
			"200 cache=- partial=- epoch=0 gen=0 docs=24", // was 400: and probe budgets
			"200 cache=- partial=- epoch=0 gen=0 docs=24", // was 400
			"400 cache=- partial=- epoch=- gen=- docs=-",
			"200 cache=- partial=- epoch=0 gen=0 docs=24",
			"501 cache=- partial=- epoch=- gen=- docs=-",
			"200 cache=- partial=- epoch=0 gen=0 docs=24",
			"200 cache=- partial=- epoch=0 gen=0 docs=24",
			"404 cache=- partial=- epoch=- gen=- docs=-",
		}, // and exports its index's series (the live block's, here)
			"lsi_index_compacting lsi_index_compaction_debt lsi_index_compaction_failures_total lsi_index_compactions_total lsi_index_docs lsi_index_docs_ingested_total lsi_index_epoch lsi_index_epoch_age_seconds lsi_index_mapped_bytes lsi_index_mappings lsi_index_memory_bytes lsi_index_sidecars_degraded_total lsi_replica_batches_total lsi_replica_docs lsi_replica_docs_applied_total lsi_replica_generation lsi_replica_resumed_pulls_total lsi_replica_snapshots_total lsi_shard_docs lsi_shard_segments"},
	}
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			h := httpapi.NewHandler(b.ret, b.opts)
			var stats retrieval.Stats
			readyz := 0
			for i, rq := range matrixRequests {
				body := rq.body
				if rq.name == "vector" {
					body = fmt.Sprintf(body, vector)
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(rq.method, rq.path, strings.NewReader(body)))
				got := matrixCell(rec)
				if i >= len(b.want) || got != b.want[i] {
					t.Errorf("%s %s: got %q", b.name, rq.name, got)
				}
				switch rq.name {
				case "stats":
					if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
						t.Fatalf("/v1/stats body: %v", err)
					}
				case "readyz":
					readyz = rec.Code
				}
			}
			// Readiness has one source: /v1/stats "ready" is /readyz.
			if stats.Ready != (readyz == http.StatusOK) {
				t.Errorf("%s: /v1/stats ready=%v but /readyz answered %d", b.name, stats.Ready, readyz)
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
			if rec.Code != http.StatusOK {
				t.Fatalf("/metrics: %d", rec.Code)
			}
			if got := metricFamilies(rec.Body.String()); got != b.fams {
				t.Errorf("%s /metrics families: got %q", b.name, got)
			}
		})
	}
}
