package cluster_test

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/retrieval"
	"repro/retrieval/cluster"
	"repro/retrieval/httpapi"
)

func corpus(n int) []retrieval.Document {
	demo := retrieval.DemoCorpus()
	docs := make([]retrieval.Document, n)
	for i := range docs {
		d := demo[i%len(demo)]
		docs[i] = retrieval.Document{ID: fmt.Sprintf("%s-v%d", d.ID, i/len(demo)), Text: d.Text}
	}
	return docs
}

// series is every unlabelled series c registers, by name, as /metrics
// shows them: the one read path of the router's and the replica's
// counters.
func series(t testing.TB, c interface{ RegisterMetrics(*metrics.Registry) }) map[string]float64 {
	reg := metrics.NewRegistry()
	c.RegisterMetrics(reg)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Error(err)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if name, v, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
			if f, err := strconv.ParseFloat(v, 64); err == nil {
				out[name] = f
			}
		}
	}
	return out
}

// testCluster is an in-process cluster: a central single-process index
// (the bitwise reference), one serving node per shard opened from the
// central index's per-shard exports, and a router fanning over them.
type testCluster struct {
	central *retrieval.Index
	nodes   []*retrieval.Index
	servers []*httptest.Server
	dirs    []string
	man     *cluster.Manifest
	router  *cluster.Router
}

// startCluster builds the reference index, exports each shard, and
// serves every export behind a real HTTP listener with replication
// enabled and a WAL attached.
func startCluster(t *testing.T, nDocs, shards int) *testCluster {
	t.Helper()
	docs := corpus(nDocs)
	central, err := retrieval.Build(docs,
		retrieval.WithRank(3), retrieval.WithShards(shards),
		retrieval.WithAutoCompact(false))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { central.Close() })
	root := t.TempDir()
	if err := central.SaveShardDirs(root); err != nil {
		t.Fatal(err)
	}
	tc := &testCluster{central: central}
	man := &cluster.Manifest{Version: 1, Shards: shards}
	for s := 0; s < shards; s++ {
		dir := filepath.Join(root, fmt.Sprintf("shard-%d", s))
		node, err := retrieval.OpenDir(dir, retrieval.WithAutoCompact(false))
		if err != nil {
			t.Fatalf("open shard %d export: %v", s, err)
		}
		t.Cleanup(func() { node.Close() })
		if _, err := node.AttachWAL(filepath.Join(root, fmt.Sprintf("wal-%d", s))); err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(httpapi.NewHandler(node, httpapi.Options{ReplicateDir: dir}))
		t.Cleanup(srv.Close)
		tc.nodes = append(tc.nodes, node)
		tc.servers = append(tc.servers, srv)
		tc.dirs = append(tc.dirs, dir)
		man.Nodes = append(man.Nodes, cluster.Node{Name: fmt.Sprintf("n%d", s), URL: srv.URL, Shard: s})
	}
	tc.man = man
	r, err := cluster.NewRouter(man, cluster.RouterOptions{NodeTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	tc.router = r
	return tc
}

// search is one text query through r's Query: its one result list and
// whether a fan-out answered it from a degraded quorum.
func search(ctx context.Context, r retrieval.Retriever, q string, topN int) ([]retrieval.Result, bool, error) {
	ans, err := r.Query(ctx, retrieval.Query{Texts: []string{q}, TopN: topN})
	if err != nil {
		return nil, ans.Partial, err
	}
	return ans.Results[0], ans.Partial, nil
}

func sameResults(t *testing.T, got, want []retrieval.Result, context string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", context, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: result %d = %+v, want %+v (bitwise)", context, i, got[i], want[i])
		}
	}
}

var testQueries = []string{
	"car engine", "stars and galaxies", "fresh tomatoes", "car", "space telescope engine",
}

// TestRouterMergeBitwise: the router's fan-out merge over per-shard
// nodes — JSON round trip and all — is bit-for-bit the single-process
// sharded index's answer, for single and batch searches.
func TestRouterMergeBitwise(t *testing.T) {
	tc := startCluster(t, 31, 3)
	ctx := context.Background()
	for _, q := range testQueries {
		want, err := tc.central.Search(ctx, q, 10)
		if err != nil {
			t.Fatal(err)
		}
		got, partial, err := search(ctx, tc.router, q, 10)
		if err != nil || partial {
			t.Fatalf("router search %q: partial=%v err=%v", q, partial, err)
		}
		sameResults(t, got, want, "query "+q)
	}

	wantB, err := tc.central.SearchBatch(ctx, testQueries, 7)
	if err != nil {
		t.Fatal(err)
	}
	gotB, err := tc.router.Query(ctx, retrieval.Query{Texts: testQueries, TopN: 7})
	if err != nil || gotB.Partial {
		t.Fatalf("router batch: partial=%v err=%v", gotB.Partial, err)
	}
	for i := range wantB {
		sameResults(t, gotB.Results[i], wantB[i], fmt.Sprintf("batch query %d", i))
	}

	// A query with no in-vocabulary terms is a clean empty answer, as it
	// is on the nodes.
	if res, partial, err := search(ctx, tc.router, "zzzz qqqq", 5); err != nil || partial || len(res) != 0 {
		t.Fatalf("unknown-vocabulary query: %d results, partial=%v, err=%v", len(res), partial, err)
	}
}

// TestRouterIngestRouting: documents added through the router land on
// the shard global numbering dictates, so after identical live adds
// the cluster still merges bitwise-identically to the central index.
func TestRouterIngestRouting(t *testing.T) {
	tc := startCluster(t, 20, 3)
	ctx := context.Background()
	if err := tc.router.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if got, want := tc.router.NumDocs(), tc.central.NumDocs(); got != want {
		t.Fatalf("synced NumDocs = %d, want %d", got, want)
	}

	live := []retrieval.Document{
		{ID: "live-0", Text: "a shiny new car with a powerful engine"},
		{ID: "live-1", Text: "stars and galaxies in deep space"},
		{ID: "live-2", Text: "cooking recipes with fresh tomatoes"},
		{ID: "live-3", Text: "the car engine roared across the galaxy"},
		{ID: "live-4", Text: "telescopes observing distant galaxies"},
	}
	wantFirst := tc.central.NumDocs()
	if _, err := tc.central.Add(ctx, live); err != nil {
		t.Fatal(err)
	}
	first, err := tc.router.Add(ctx, live[:2])
	if err != nil {
		t.Fatal(err)
	}
	if first != wantFirst {
		t.Fatalf("router add landed at %d, want %d", first, wantFirst)
	}
	if _, err := tc.router.Add(ctx, live[2:]); err != nil {
		t.Fatal(err)
	}
	if got, want := tc.router.NumDocs(), tc.central.NumDocs(); got != want {
		t.Fatalf("post-add NumDocs = %d, want %d", got, want)
	}

	for _, q := range testQueries {
		want, err := tc.central.Search(ctx, q, 10)
		if err != nil {
			t.Fatal(err)
		}
		got, partial, err := search(ctx, tc.router, q, 10)
		if err != nil || partial {
			t.Fatalf("router search %q after adds: partial=%v err=%v", q, partial, err)
		}
		sameResults(t, got, want, "post-add query "+q)
	}
}

// TestRouterPartialResults: with one shard down the router still
// answers — correctly merged over the shards that responded, and
// honestly marked partial. With every shard down it errors.
func TestRouterPartialResults(t *testing.T) {
	tc := startCluster(t, 20, 2)
	ctx := context.Background()
	tc.servers[1].Close()

	res, partial, err := search(ctx, tc.router, "car engine", 10)
	if err != nil {
		t.Fatal(err)
	}
	if !partial {
		t.Fatal("one shard down: response not marked partial")
	}
	if len(res) == 0 {
		t.Fatal("surviving shard contributed nothing")
	}
	for _, r := range res {
		if r.Doc%2 != 0 {
			t.Fatalf("result %+v belongs to the dead shard", r)
		}
	}
	if m := series(t, tc.router); m["lsi_cluster_partial_results_total"] == 0 || m["lsi_cluster_node_errors_total"] == 0 {
		t.Fatalf("metrics do not reflect the degraded quorum: %v", m)
	}

	tc.servers[0].Close()
	if _, _, err := search(ctx, tc.router, "car engine", 10); err == nil {
		t.Fatal("whole cluster down: search succeeded")
	}
}

// TestRouterIngestFreezesOnFailure: a write that cannot reach a shard
// primary fails, freezes ingest, and Sync against a healed cluster
// unfreezes it.
func TestRouterIngestFreezesOnFailure(t *testing.T) {
	tc := startCluster(t, 20, 2)
	ctx := context.Background()
	if err := tc.router.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if !tc.router.Ready() {
		t.Fatal("synced router not ready")
	}
	url1 := tc.servers[1].URL
	tc.servers[1].Close()

	// A 2-doc batch spans both shards; shard 1 is dead.
	_, err := tc.router.Add(ctx, corpus(2))
	if err == nil {
		t.Fatal("add with a dead primary succeeded")
	}
	if tc.router.Ready() {
		t.Fatal("failed add left ingest live")
	}

	// Heal: serve shard 1 again on the old node, reload the manifest
	// with its new address, and sync.
	srv := httptest.NewServer(httpapi.NewHandler(tc.nodes[1], httpapi.Options{ReplicateDir: tc.dirs[1]}))
	t.Cleanup(srv.Close)
	man2 := *tc.man
	man2.Version = 2
	man2.Nodes = append([]cluster.Node(nil), tc.man.Nodes...)
	for i := range man2.Nodes {
		if man2.Nodes[i].URL == url1 {
			man2.Nodes[i].URL = srv.URL
		}
	}
	if err := tc.router.Reload(&man2); err != nil {
		t.Fatal(err)
	}
	if err := tc.router.Sync(ctx); err != nil {
		t.Fatalf("sync after heal: %v", err)
	}
	if _, err := tc.router.Add(ctx, corpus(3)); err != nil {
		t.Fatalf("add after heal: %v", err)
	}
}

// TestManifestValidate is the manifest validation table.
func TestManifestValidate(t *testing.T) {
	ok := cluster.Manifest{Version: 1, Shards: 2, Nodes: []cluster.Node{
		{Name: "a", URL: "http://h1:8080", Shard: 0},
		{Name: "b", URL: "http://h2:8080", Shard: 1},
		{Name: "b2", URL: "http://h3:8080", Shard: 1, Replica: true},
	}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid manifest rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(m *cluster.Manifest)
		want   string
	}{
		{"zero version", func(m *cluster.Manifest) { m.Version = 0 }, "version"},
		{"no shards", func(m *cluster.Manifest) { m.Shards = 0 }, "shards"},
		{"dup name", func(m *cluster.Manifest) { m.Nodes[1].Name = "a" }, "duplicate"},
		{"bad url", func(m *cluster.Manifest) { m.Nodes[0].URL = "h1:8080:x" }, "URL"},
		{"shard out of range", func(m *cluster.Manifest) { m.Nodes[0].Shard = 2 }, "out of range"},
		{"unnamed", func(m *cluster.Manifest) { m.Nodes[0].Name = "" }, "no name"},
		{"orphan shard", func(m *cluster.Manifest) { m.Nodes[1].Replica = true }, "primaries"},
		{"two primaries", func(m *cluster.Manifest) { m.Nodes[2].Replica = false }, "primaries"},
	}
	for _, c := range cases {
		m := ok
		m.Nodes = append([]cluster.Node(nil), ok.Nodes...)
		c.mutate(&m)
		err := m.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want mention of %q", c.name, err, c.want)
		}
	}
}

// TestReloadVersioning: reloads must strictly increase the version and
// keep the shard count.
func TestReloadVersioning(t *testing.T) {
	man := &cluster.Manifest{Version: 3, Shards: 1, Nodes: []cluster.Node{{Name: "a", URL: "http://h:1", Shard: 0}}}
	r, err := cluster.NewRouter(man, cluster.RouterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	stale := *man
	stale.Version = 3
	if err := r.Reload(&stale); err == nil {
		t.Fatal("same-version reload accepted")
	}
	resharded := *man
	resharded.Version = 4
	resharded.Shards = 2
	resharded.Nodes = []cluster.Node{{Name: "a", URL: "http://h:1", Shard: 0}, {Name: "b", URL: "http://h:2", Shard: 1}}
	if err := r.Reload(&resharded); err == nil {
		t.Fatal("shard-count-changing reload accepted")
	}
	next := *man
	next.Version = 4
	if err := r.Reload(&next); err != nil {
		t.Fatalf("valid reload rejected: %v", err)
	}
	if got := r.Manifest().Version; got != 4 {
		t.Fatalf("serving version %d, want 4", got)
	}
	if m := series(t, r); m["lsi_cluster_manifest_stale_reloads_total"] != 1 || m["lsi_cluster_manifest_reloads_total"] != 1 {
		t.Fatalf("reload counters: %v", m)
	}
}

// TestRouterStatsAndReadyz: the router behind an httpapi handler
// serves cluster-level stats and readiness.
func TestRouterStatsAndReadyz(t *testing.T) {
	tc := startCluster(t, 14, 2)
	h := httpapi.NewHandler(tc.router, httpapi.Options{})
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)

	resp, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("unsynced router readyz = %d, want 503", resp.StatusCode)
	}
	if err := tc.router.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("synced router readyz = %d", resp.StatusCode)
	}
	// A search through the full HTTP stack answers with the cluster's
	// document count in the freshness header.
	sresp, err := http.Post(srv.URL+"/v1/search", "application/json", strings.NewReader(`{"query":"car engine","topN":3}`))
	if err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if got := sresp.Header.Get("X-Index-Docs"); got != fmt.Sprint(tc.central.NumDocs()) {
		t.Fatalf("X-Index-Docs %q, want %d", got, tc.central.NumDocs())
	}
}

// TestANNProbeFindsMatchesPastEmptyCells: on the demo corpus repeated 50
// times (12 distinct documents, so k-means leaves cells without members),
// a one-cell probe must land in a cell that holds documents and answer
// like the exact scan, not spend its budget on an empty cell and return
// nothing.
func TestANNProbeFindsMatchesPastEmptyCells(t *testing.T) {
	ix, err := retrieval.Build(corpus(600), retrieval.WithRank(3), retrieval.WithANN(8, 1))
	if err != nil {
		t.Fatal(err)
	}
	const q = "space telescope engine"
	probed, err := ix.Search(context.Background(), q, 10)
	if err != nil {
		t.Fatal(err)
	}
	exhaustive := 0
	ans, err := ix.Query(context.Background(), retrieval.Query{Texts: []string{q}, TopN: 10, NProbe: &exhaustive})
	if err != nil {
		t.Fatal(err)
	}
	exact := ans.Results[0]
	if len(exact) == 0 || len(probed) == 0 || probed[0].Score != exact[0].Score {
		t.Fatalf("nprobe 1 returned %d results (best %v), the exact scan %d (best %v)", len(probed), probed, len(exact), exact)
	}
}
