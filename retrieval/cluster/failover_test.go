package cluster_test

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/retrieval"
	"repro/retrieval/cluster"
	"repro/retrieval/httpapi"
)

// TestClusterFailoverEndToEnd is the acceptance scenario: a 2-shard
// cluster with a replica on shard 1 serves a concurrent query trace
// while nodes are killed and restarted around it.
//
//  1. The replica is killed mid-trace: zero failed queries (the
//     primary owns the shard), then it rejoins and catches up over the
//     WAL tail.
//  2. The primary is killed mid-trace: zero failed queries again — the
//     router hedges shard 1 to the replica. Partial responses are
//     allowed but must not occur while the replica covers the shard.
//  3. After a checkpoint rotates the primary's WAL past the replica,
//     catch-up re-snapshots: the replica converges to the primary's
//     (generation, numDocs).
func TestClusterFailoverEndToEnd(t *testing.T) {
	docs := corpus(24)
	central, err := retrieval.Build(docs,
		retrieval.WithRank(3), retrieval.WithShards(2),
		retrieval.WithAutoCompact(false), retrieval.WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	defer central.Close()
	root := t.TempDir()
	if err := central.SaveShardDirs(root); err != nil {
		t.Fatal(err)
	}

	// Two primaries, WAL'd and replication-enabled.
	nodes := make([]*retrieval.Index, 2)
	servers := make([]*httptest.Server, 2)
	dirs := make([]string, 2)
	for s := 0; s < 2; s++ {
		dirs[s] = filepath.Join(root, fmt.Sprintf("shard-%d", s))
		nodes[s], err = retrieval.OpenDir(dirs[s], retrieval.WithAutoCompact(false))
		if err != nil {
			t.Fatal(err)
		}
		defer nodes[s].Close()
		if _, err := nodes[s].AttachWAL(filepath.Join(root, fmt.Sprintf("wal-%d", s))); err != nil {
			t.Fatal(err)
		}
		servers[s] = httptest.NewServer(httpapi.NewHandler(nodes[s], httpapi.Options{ReplicateDir: dirs[s]}))
		defer servers[s].Close()
	}

	// A replica of shard 1, bootstrapped from the primary's checkpoint.
	ctx := context.Background()
	rep := cluster.NewReplica(servers[1].URL, filepath.Join(root, "replica"), cluster.ReplicaOptions{})
	if err := rep.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	if rep.Generation() != nodes[1].Generation() || rep.NumDocs() != nodes[1].NumDocs() {
		t.Fatalf("bootstrap: replica at (gen %d, %d docs), primary at (gen %d, %d docs)",
			rep.Generation(), rep.NumDocs(), nodes[1].Generation(), nodes[1].NumDocs())
	}
	repSrv := httptest.NewServer(httpapi.NewHandler(rep, httpapi.Options{}))
	defer repSrv.Close()

	man := &cluster.Manifest{Version: 1, Shards: 2, Nodes: []cluster.Node{
		{Name: "n0", URL: servers[0].URL, Shard: 0},
		{Name: "n1", URL: servers[1].URL, Shard: 1},
		{Name: "n1-replica", URL: repSrv.URL, Shard: 1, Replica: true},
	}}
	router, err := cluster.NewRouter(man, cluster.RouterOptions{HedgeAfter: 25 * time.Millisecond, NodeTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if err := router.Sync(ctx); err != nil {
		t.Fatal(err)
	}

	// trace runs queries through the router until stopped, failing the
	// test on any errored query, and reports how many were served.
	trace := func(kill func()) (served int64) {
		var wg sync.WaitGroup
		var count int64
		stop := make(chan struct{})
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					q := testQueries[(w+i)%len(testQueries)]
					res, _, err := search(ctx, router, q, 10)
					if err != nil {
						t.Errorf("query %q failed during failover: %v", q, err)
						return
					}
					if len(res) == 0 {
						t.Errorf("query %q returned nothing during failover", q)
						return
					}
					atomic.AddInt64(&count, 1)
				}
			}(w)
		}
		// Let the trace get going, strike, then let it run on the
		// degraded cluster before stopping.
		time.Sleep(50 * time.Millisecond)
		kill()
		time.Sleep(150 * time.Millisecond)
		close(stop)
		wg.Wait()
		return atomic.LoadInt64(&count)
	}

	// Phase 1: kill the replica mid-trace. The primary owns the shard,
	// so nothing fails and nothing is partial.
	before := router.RouterStats()
	if served := trace(repSrv.Close); served == 0 {
		t.Fatal("phase 1 trace served nothing")
	}
	if st := router.RouterStats(); st.Partials != before.Partials {
		t.Fatalf("replica death degraded the quorum: %+v", st)
	}

	// The replica rejoins (same state, new listener) and catches up on
	// writes that happened while it was down.
	live := []retrieval.Document{
		{ID: "f-0", Text: "a shiny new car with a powerful engine"},
		{ID: "f-1", Text: "stars and galaxies in deep space"},
		{ID: "f-2", Text: "the car engine roared across the galaxy"},
	}
	if _, err := central.Add(ctx, live); err != nil {
		t.Fatal(err)
	}
	if _, err := router.Add(ctx, live); err != nil {
		t.Fatal(err)
	}
	if _, err := rep.CatchUp(ctx); err != nil {
		t.Fatal(err)
	}
	if rep.NumDocs() != nodes[1].NumDocs() {
		t.Fatalf("replica caught up to %d docs, primary holds %d", rep.NumDocs(), nodes[1].NumDocs())
	}
	repSrv = httptest.NewServer(httpapi.NewHandler(rep, httpapi.Options{}))
	defer repSrv.Close()
	man2 := *man
	man2.Version = 2
	man2.Nodes = append([]cluster.Node(nil), man.Nodes...)
	man2.Nodes[2].URL = repSrv.URL
	if err := router.Reload(&man2); err != nil {
		t.Fatal(err)
	}

	// The rejoined cluster still merges bitwise with the reference.
	for _, q := range testQueries {
		want, err := central.Search(ctx, q, 10)
		if err != nil {
			t.Fatal(err)
		}
		got, partial, err := search(ctx, router, q, 10)
		if err != nil || partial {
			t.Fatalf("post-rejoin %q: partial=%v err=%v", q, partial, err)
		}
		sameResults(t, got, want, "post-rejoin "+q)
	}

	// Phase 2: kill the primary mid-trace. The router hedges shard 1 to
	// the caught-up replica; zero queries fail. (The X-Partial-Results
	// contract allows partial answers here, but with a live replica the
	// quorum never actually degrades — assert served > 0, not partial
	// counts, since whether any search raced the kill is timing.)
	if served := trace(servers[1].Close); served == 0 {
		t.Fatal("phase 2 trace served nothing")
	}
	if st := router.RouterStats(); st.NodeErrors == 0 {
		t.Fatalf("primary death left no trace in stats: %+v", st)
	}

	// Phase 3: the primary returns; a checkpoint rotates its WAL while
	// the replica is behind, forcing the 410 re-snapshot path.
	servers[1] = httptest.NewServer(httpapi.NewHandler(nodes[1], httpapi.Options{ReplicateDir: dirs[1]}))
	defer servers[1].Close()
	rep.SetPrimary(servers[1].URL)
	man3 := man2
	man3.Version = 3
	man3.Nodes = append([]cluster.Node(nil), man2.Nodes...)
	man3.Nodes[1].URL = servers[1].URL
	if err := router.Reload(&man3); err != nil {
		t.Fatal(err)
	}
	if err := router.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	more := []retrieval.Document{
		{ID: "g-0", Text: "telescopes observing distant galaxies"},
		{ID: "g-1", Text: "cooking recipes with fresh tomatoes"},
	}
	if _, err := central.Add(ctx, more); err != nil {
		t.Fatal(err)
	}
	if _, err := router.Add(ctx, more); err != nil {
		t.Fatal(err)
	}
	if err := nodes[1].Checkpoint(dirs[1]); err != nil {
		t.Fatal(err)
	}
	repBefore := rep.ReplicaStats().Snapshots
	if _, err := rep.CatchUp(ctx); err != nil {
		t.Fatal(err)
	}
	if got := rep.ReplicaStats().Snapshots; got != repBefore+1 {
		t.Fatalf("rotated WAL did not force a re-snapshot (snapshots %d -> %d)", repBefore, got)
	}
	if rep.Generation() != nodes[1].Generation() || rep.NumDocs() != nodes[1].NumDocs() {
		t.Fatalf("after re-snapshot: replica at (gen %d, %d docs), primary at (gen %d, %d docs)",
			rep.Generation(), rep.NumDocs(), nodes[1].Generation(), nodes[1].NumDocs())
	}

	// And the full cluster — primary restored, replica re-snapshotted —
	// still matches the reference bitwise.
	for _, q := range testQueries {
		want, err := central.Search(ctx, q, 10)
		if err != nil {
			t.Fatal(err)
		}
		got, partial, err := search(ctx, router, q, 10)
		if err != nil || partial {
			t.Fatalf("final %q: partial=%v err=%v", q, partial, err)
		}
		sameResults(t, got, want, "final "+q)
	}
}

// TestReplicaServesBitwise: a bootstrapped replica answers text
// queries bit-for-bit like its primary.
func TestReplicaServesBitwise(t *testing.T) {
	tc := startCluster(t, 18, 2)
	ctx := context.Background()
	rep := cluster.NewReplica(tc.servers[0].URL, t.TempDir(), cluster.ReplicaOptions{})
	if err := rep.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	if !rep.Stats().Ready {
		t.Fatal("bootstrapped replica not ready")
	}
	for _, q := range testQueries {
		want, err := tc.nodes[0].Search(ctx, q, 8)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := search(ctx, rep, q, 8)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, got, want, "replica query "+q)
	}
	st := rep.ReplicaStats()
	if st.Snapshots != 1 {
		t.Fatalf("bootstrap took %d snapshots, want 1", st.Snapshots)
	}
}

// TestReplicaRunLoop: the background loop converges a replica onto
// live primary writes without explicit CatchUp calls.
func TestReplicaRunLoop(t *testing.T) {
	tc := startCluster(t, 12, 2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rep := cluster.NewReplica(tc.servers[1].URL, t.TempDir(), cluster.ReplicaOptions{PollInterval: 10 * time.Millisecond})
	if err := rep.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	go rep.Run(ctx)

	if err := tc.router.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := tc.router.Add(ctx, corpus(6)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for rep.NumDocs() != tc.nodes[1].NumDocs() {
		if time.Now().After(deadline) {
			t.Fatalf("replica stuck at %d docs, primary holds %d", rep.NumDocs(), tc.nodes[1].NumDocs())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestReplicaBootstrapsFromTieredPrimary: a primary whose segment
// carries an IVF quantizer and an int8 shadow checkpoints them as
// sidecar files, and a replica must pull those too — its snapshot opens,
// serves bit-for-bit like the primary, and reports both tiers.
func TestReplicaBootstrapsFromTieredPrimary(t *testing.T) {
	// 600 documents on one shard clear the 256-document tier threshold.
	primary, err := retrieval.Build(corpus(600),
		retrieval.WithRank(3), retrieval.WithShards(1),
		retrieval.WithAutoCompact(false), retrieval.WithSeed(9),
		retrieval.WithANN(8, 2), retrieval.WithQuantized(4))
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	if st := primary.Stats(); st.ANN == nil || st.ANN.Segments != 1 || st.Quant == nil || st.Quant.Segments != 1 {
		t.Fatalf("primary is not tiered: ann %+v quant %+v", st.ANN, st.Quant)
	}
	dir := t.TempDir()
	if err := primary.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(httpapi.NewHandler(primary, httpapi.Options{ReplicateDir: dir}))
	defer srv.Close()

	ctx := context.Background()
	rep := cluster.NewReplica(srv.URL, t.TempDir(), cluster.ReplicaOptions{})
	if err := rep.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	for _, q := range testQueries {
		want, err := primary.Search(ctx, q, 8)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := search(ctx, rep, q, 8)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, got, want, "tiered replica query "+q)
	}
	if st := rep.Stats(); st.ANN == nil || st.ANN.Segments != 1 || st.Quant == nil || st.Quant.Segments != 1 {
		t.Fatalf("replica lost the sidecars: ann %+v quant %+v", st.ANN, st.Quant)
	}
}

// TestReplicaKeepsOneSnapshot: every bootstrap removes the snapshot
// directory it replaces, a bootstrap that fails removes its own, and an
// index obtained before a re-bootstrap keeps answering bit for bit after
// its files are gone (its pages are mapped, or were read whole).
func TestReplicaKeepsOneSnapshot(t *testing.T) {
	tc := startCluster(t, 18, 2)
	ctx := context.Background()
	dir := t.TempDir()
	snapshots := func() []string {
		names, err := filepath.Glob(filepath.Join(dir, "snap-*"))
		if err != nil {
			t.Fatal(err)
		}
		return names
	}
	rep := cluster.NewReplica(tc.servers[0].URL, dir, cluster.ReplicaOptions{})
	if err := rep.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	first := rep.Index()
	var want [][]retrieval.Result
	for _, q := range testQueries {
		res, err := first.Search(ctx, q, 8)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, res)
	}
	if err := rep.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	if got := snapshots(); len(got) != 1 || filepath.Base(got[0]) != "snap-2" || rep.Index() == first {
		t.Fatalf("after two bootstraps the replica keeps %v", got)
	}
	runtime.GC()
	for i, q := range testQueries {
		got, err := first.Search(ctx, q, 8)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, got, want[i], "first snapshot's index after its directory was removed: "+q)
	}
	// A primary that serves its manifest and then fails the segment file
	// leaves a torn snap-3, were it not removed.
	node := httpapi.NewHandler(tc.nodes[0], httpapi.Options{ReplicateDir: tc.dirs[0]})
	torn := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Query().Get("name"), "seg-") {
			http.Error(w, "disk on fire", http.StatusInternalServerError)
			return
		}
		node.ServeHTTP(w, r)
	}))
	defer torn.Close()
	rep.SetPrimary(torn.URL)
	if err := rep.Bootstrap(ctx); err == nil {
		t.Fatal("bootstrap without the segment file succeeded")
	}
	if got := snapshots(); len(got) != 1 || filepath.Base(got[0]) != "snap-2" || rep.ReplicaStats().Snapshots != 3 {
		t.Fatalf("after a failed third bootstrap the replica keeps %v", got)
	}
}
