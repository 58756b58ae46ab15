package cluster_test

import (
	"context"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/retrieval"
	"repro/retrieval/cluster"
	"repro/retrieval/httpapi"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/stats_metrics.golden from this tree")

// maskedSeries are the /metrics families whose values the golden file
// does not pin: the epoch age is wall-clock time, the latency buckets and
// sums are timings, and the mapping count is process-wide (every other
// test's mappings, released when the collector gets to them).
var maskedSeries = []string{
	"lsi_index_epoch_age_seconds",
	"lsi_http_request_duration_seconds_bucket",
	"lsi_http_request_duration_seconds_sum",
	"lsi_index_mappings",
}

// maskMetrics replaces the value of every sample of a masked family
// with "~".
func maskMetrics(body string) string {
	lines := strings.Split(body, "\n")
	for i, line := range lines {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name := line[:strings.IndexAny(line, "{ ")]
		for _, m := range maskedSeries {
			if name == m {
				lines[i] = line[:strings.LastIndexByte(line, ' ')] + " ~"
			}
		}
	}
	return strings.Join(lines, "\n")
}

// TestStatsAndMetricsGolden pins, byte for byte, what GET /v1/stats and
// GET /metrics serve over each kind of backend: an unsharded index, a
// sharded live index with folded, sealed and compacted segments, a tiered
// one (IVF, int8 and the query cache), the VSM baseline, a replica and a
// router. Each handler first takes a fixed sequence of requests, so the
// counters read the same on every run. A change to what an index reports
// must leave these bytes as they are, except where it changes the
// contract on purpose; `go test ./retrieval/cluster -run
// TestStatsAndMetricsGolden -update` re-pins them.
func TestStatsAndMetricsGolden(t *testing.T) {
	ctx := context.Background()
	docs := corpus(48)
	build := func(opts ...retrieval.Option) *retrieval.Index {
		ix, err := retrieval.Build(docs, append([]retrieval.Option{retrieval.WithRank(3)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ix.Close() })
		return ix
	}
	unsharded := build()
	sharded := build(retrieval.WithShards(2), retrieval.WithSealEvery(2), retrieval.WithAutoCompact(false))
	// 300 documents a shard: past the 256 a segment needs for its tiers.
	tiered, err := retrieval.Build(corpus(600), retrieval.WithRank(3), retrieval.WithShards(2), retrieval.WithAutoCompact(false),
		retrieval.WithANN(4, 2), retrieval.WithQuantized(4), retrieval.WithQueryCache(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tiered.Close() })
	vsm, err := retrieval.BuildVSM(docs)
	if err != nil {
		t.Fatal(err)
	}
	tc := startCluster(t, 48, 2)
	if err := tc.router.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	replica := cluster.NewReplica(tc.servers[1].URL, t.TempDir(), cluster.ReplicaOptions{})
	if err := replica.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}

	search := `POST /v1/search {"query":"car engine","topN":3}`
	batch := func(tag string, n int) string {
		var ds []string
		for i := range n {
			ds = append(ds, fmt.Sprintf(`{"id":"%s-%d","text":"a car engine on the road %d"}`, tag, i, i))
		}
		return `POST /v1/docs:batch {"docs":[` + strings.Join(ds, ",") + `]}`
	}
	withReg := func(register func(*metrics.Registry)) httpapi.Options {
		reg := metrics.NewRegistry()
		register(reg)
		return httpapi.Options{Metrics: reg}
	}
	backends := []struct {
		name  string
		ret   retrieval.Retriever
		opts  httpapi.Options
		steps []string // "METHOD path body", or "compact"
	}{
		{"unsharded", unsharded, httpapi.Options{}, []string{search, search}},
		{"sharded", sharded, httpapi.Options{}, []string{search, batch("a", 5), "compact", batch("b", 3), search}},
		{"tiered", tiered, httpapi.Options{}, []string{search, search, batch("a", 3), search}},
		{"vsm", vsm, httpapi.Options{}, []string{search}},
		{"replica", replica, withReg(replica.RegisterMetrics), []string{search}},
		{"router", tc.router, withReg(tc.router.RegisterMetrics), []string{search, batch("a", 2), search}},
	}
	var out strings.Builder
	for _, b := range backends {
		h := httpapi.NewHandler(b.ret, b.opts)
		serve := func(method, path, body string) string {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
			if rec.Code != 200 {
				t.Fatalf("%s: %s %s: %d %s", b.name, method, path, rec.Code, rec.Body)
			}
			return rec.Body.String()
		}
		for _, step := range b.steps {
			if step == "compact" {
				if _, err := b.ret.(*retrieval.Index).Compact(); err != nil {
					t.Fatal(err)
				}
				continue
			}
			method, rest, _ := strings.Cut(step, " ")
			path, body, _ := strings.Cut(rest, " ")
			serve(method, path, body)
		}
		fmt.Fprintf(&out, "== %s GET /v1/stats\n%s", b.name, serve("GET", "/v1/stats", ""))
		fmt.Fprintf(&out, "== %s GET /metrics\n%s", b.name, maskMetrics(serve("GET", "/metrics", "")))
	}

	golden := filepath.Join("testdata", "stats_metrics.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < max(len(gl), len(wl)); i++ {
			g, w := "", ""
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Errorf("line %d:\n got  %s\n want %s", i+1, g, w)
			}
		}
	}
}
