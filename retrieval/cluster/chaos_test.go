package cluster_test

// Chaos suite: the router driven against live nodes through a
// faultinject.Transport with seeded, scripted fault schedules — node
// flaps, partitions, slow nodes, write-path faults — on an injected
// clock. Every scenario asserts the resilience invariants from the
// operator's point of view:
//
//   - no acked write is lost, and no unacked write is counted;
//   - no request gets stuck: every call returns within its bounds;
//   - degraded answers are marked partial, never silently wrong;
//   - breakers trip on sustained failure and recover after cooldown.
//
// No assertion is calibrated by a wall-clock sleep: timing-sensitive
// transitions run on a faultinject.FakeClock advanced explicitly, and
// the only wall-clock waits are request timeouts bounding blackholed
// calls.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/metrics"
	"repro/retrieval"
	"repro/retrieval/cluster"
	"repro/retrieval/httpapi"
)

// hostOf extracts the "host:port" a faultinject.Rule selects on.
func hostOf(t *testing.T, rawURL string) string {
	t.Helper()
	u, err := url.Parse(rawURL)
	if err != nil {
		t.Fatal(err)
	}
	return u.Host
}

// mirrorPair serves one shard from two nodes — a primary and a replica
// opened from the same export — behind a router whose client routes
// through the given Transport. The pair is the smallest cluster where
// single-node faults must not cost availability.
type mirrorPair struct {
	central          *retrieval.Index
	router           *cluster.Router
	priHost, repHost string
}

func startMirrorPair(t *testing.T, ft *faultinject.Transport, opts cluster.RouterOptions) *mirrorPair {
	t.Helper()
	central, err := retrieval.Build(corpus(18),
		retrieval.WithRank(3), retrieval.WithShards(1),
		retrieval.WithAutoCompact(false), retrieval.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { central.Close() })
	root := t.TempDir()
	if err := central.SaveShardDirs(root); err != nil {
		t.Fatal(err)
	}
	dir := root + "/shard-0"
	var servers [2]*httptest.Server
	for i := range servers {
		node, err := retrieval.OpenDir(dir, retrieval.WithAutoCompact(false))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { node.Close() })
		servers[i] = httptest.NewServer(httpapi.NewHandler(node, httpapi.Options{}))
		t.Cleanup(servers[i].Close)
	}
	man := &cluster.Manifest{Version: 1, Shards: 1, Nodes: []cluster.Node{
		{Name: "pri", URL: servers[0].URL, Shard: 0},
		{Name: "rep", URL: servers[1].URL, Shard: 0, Replica: true},
	}}
	opts.Client = httpClient(ft)
	router, err := cluster.NewRouter(man, opts)
	if err != nil {
		t.Fatal(err)
	}
	return &mirrorPair{
		central: central,
		router:  router,
		priHost: hostOf(t, servers[0].URL),
		repHost: hostOf(t, servers[1].URL),
	}
}

func httpClient(ft *faultinject.Transport) *http.Client {
	return &http.Client{Transport: ft}
}

// TestChaosFlappingNodeBreakerTripsAndRecovers: a primary that starts
// failing every request costs latency, never availability — the
// replica covers, the primary's breaker trips to fail-fast, and after
// the flap ends one cooldown probe re-closes it.
func TestChaosFlappingNodeBreakerTripsAndRecovers(t *testing.T) {
	clk := faultinject.NewFakeClock(time.Unix(0, 0))
	ft := &faultinject.Transport{Clock: clk}
	mp := startMirrorPair(t, ft, cluster.RouterOptions{
		Clock:            clk,
		Breaker:          cluster.BreakerOptions{ConsecutiveFailures: 3, OpenFor: time.Second},
		RetryBudgetRatio: 0.01, RetryBudgetBurst: 0.5, // no same-node retries: pure failover
	})
	ctx := context.Background()

	want, err := mp.central.Search(ctx, "car engine", 8)
	if err != nil {
		t.Fatal(err)
	}
	assertServes := func(phase string) {
		t.Helper()
		got, partial, err := search(ctx, mp.router, "car engine", 8)
		if err != nil || partial {
			t.Fatalf("%s: partial=%v err=%v", phase, partial, err)
		}
		sameResults(t, got, want, phase)
	}
	assertServes("healthy")

	// The primary begins failing every request at the connection level.
	ft.SetRules(&faultinject.Rule{Host: mp.priHost, Err: errors.New("chaos: flap")})
	for i := 0; i < 6; i++ {
		assertServes(fmt.Sprintf("during flap, query %d", i))
	}
	st := mp.router.RouterStats()
	if st.BreakerTrips != 1 || st.BreakersOpen != 1 {
		t.Fatalf("flapping primary: trips=%d open=%d, want 1 and 1 (%+v)", st.BreakerTrips, st.BreakersOpen, st)
	}
	if st.NodeErrors < 3 {
		t.Fatalf("flap produced only %d node errors, want >= 3", st.NodeErrors)
	}
	if st.BreakerDenied == 0 {
		t.Fatal("open breaker never failed fast — every request still hit the dead node")
	}
	if st.Retries != 0 {
		t.Fatalf("retry budget of 0.5 granted %d retries", st.Retries)
	}

	// Flap ends; after the cooldown the next request is the half-open
	// probe and re-closes the breaker.
	ft.Clear()
	clk.Advance(time.Second)
	assertServes("after recovery")
	if st := mp.router.RouterStats(); st.BreakersOpen != 0 || st.BreakersHalfOpen != 0 {
		t.Fatalf("breaker did not re-close: %+v", st)
	}
}

// TestChaosCanceledProbeReleasesBreaker: a request canceled while it
// holds the half-open probe slot must hand the slot back. The outcome
// is rightly unrecorded (cancellation says nothing about the node),
// but an unsettled claim would wedge the breaker half-open — denying
// every future request with no probe left to re-close it, a permanent
// outage of a healthy node.
func TestChaosCanceledProbeReleasesBreaker(t *testing.T) {
	clk := faultinject.NewFakeClock(time.Unix(0, 0))
	ft := &faultinject.Transport{Clock: clk}
	mp := startMirrorPair(t, ft, cluster.RouterOptions{
		Clock:            clk,
		HedgeAfter:       100 * time.Millisecond,
		Breaker:          cluster.BreakerOptions{ConsecutiveFailures: 3, OpenFor: time.Second},
		RetryBudgetRatio: 0.01, RetryBudgetBurst: 0.5,
	})
	ctx := context.Background()
	want, err := mp.central.Search(ctx, "car engine", 8)
	if err != nil {
		t.Fatal(err)
	}

	// Trip the primary's breaker, then heal the node and let the
	// cooldown elapse: the next request is the half-open probe.
	ft.SetRules(&faultinject.Rule{Host: mp.priHost, Err: errors.New("chaos: flap")})
	for i := 0; i < 3; i++ {
		if _, _, err := search(ctx, mp.router, "car engine", 8); err != nil {
			t.Fatalf("query %d during flap: %v", i, err)
		}
	}
	if st := mp.router.RouterStats(); st.BreakersOpen != 1 {
		t.Fatalf("breaker did not trip: %+v", st)
	}
	// Healed, but slow: the half-open probe will hang in injected
	// latency while the hedge races past it — the winner's return
	// cancels the probe while it holds the slot.
	ft.SetRules(&faultinject.Rule{Host: mp.priHost, Class: faultinject.ClassSearch, Latency: time.Hour})
	clk.Advance(time.Second)

	done := make(chan error, 1)
	go func() {
		_, partial, err := search(ctx, mp.router, "car engine", 8)
		if err == nil && partial {
			err = errors.New("hedged answer marked partial")
		}
		done <- err
	}()
	// Two timers pending — the hedge and the probe's injected latency —
	// means the probe slot is already claimed. Fire the hedge: the
	// replica wins and the returning call cancels the in-flight probe.
	clk.BlockUntil(2)
	clk.Advance(100 * time.Millisecond)
	if err := <-done; err != nil {
		t.Fatalf("search while probe hangs: %v", err)
	}
	ft.Clear()

	// The canceled attempt settles asynchronously (its goroutine may
	// outlive the caller), so the re-close is polled — a bounded wait,
	// not a calibrated one: with the slot released, the first search
	// that reaches the primary re-closes the breaker.
	deadline := time.Now().Add(2 * time.Second)
	for {
		got, partial, err := search(ctx, mp.router, "car engine", 8)
		if err != nil || partial {
			t.Fatalf("healed pair answered partial=%v err=%v", partial, err)
		}
		sameResults(t, got, want, "after canceled probe")
		st := mp.router.RouterStats()
		if st.BreakersOpen == 0 && st.BreakersHalfOpen == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("breaker wedged by the canceled probe: %+v", st)
		}
	}
}

// TestChaosPartitionMarksPartial: a blackholed shard degrades the
// answer — bounded by the node timeout, honestly marked partial — and
// heals completely when the partition does.
func TestChaosPartitionMarksPartial(t *testing.T) {
	tc := startCluster(t, 20, 2)
	ft := &faultinject.Transport{}
	router, err := cluster.NewRouter(tc.man, cluster.RouterOptions{
		Client:           httpClient(ft),
		NodeTimeout:      150 * time.Millisecond,
		HedgeAfter:       30 * time.Millisecond,
		RetryBudgetRatio: 0.01, RetryBudgetBurst: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	ft.SetRules(&faultinject.Rule{Host: hostOf(t, tc.servers[1].URL), Drop: true})
	start := time.Now()
	res, partial, err := search(ctx, router, "car engine", 10)
	if err != nil {
		t.Fatalf("partitioned search errored: %v", err)
	}
	if !partial {
		t.Fatal("partitioned search not marked partial")
	}
	if len(res) == 0 {
		t.Fatal("surviving shard contributed nothing")
	}
	for _, r := range res {
		if r.Doc%2 != 0 {
			t.Fatalf("result %+v belongs to the partitioned shard", r)
		}
	}
	// "No stuck request": the call returned within a small multiple of
	// the node timeout, not the test's deadline.
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("partitioned search took %v — request effectively stuck", took)
	}
	if st := router.RouterStats(); st.Partials == 0 || st.NodeErrors == 0 {
		t.Fatalf("partition left no stats trace: %+v", st)
	}

	ft.Clear()
	want, err := tc.central.Search(ctx, "car engine", 10)
	if err != nil {
		t.Fatal(err)
	}
	got, partial, err := search(ctx, router, "car engine", 10)
	if err != nil || partial {
		t.Fatalf("healed search: partial=%v err=%v", partial, err)
	}
	sameResults(t, got, want, "after partition heals")
}

// TestChaosWritePathNoAckedWriteLost: scripted write-path faults make
// some Adds fail; the ledger of acks must match the cluster exactly —
// every acked document present, every refused one absent — and a
// pre-write breaker denial must not freeze ingest.
func TestChaosWritePathNoAckedWriteLost(t *testing.T) {
	tc := startCluster(t, 10, 1)
	clk := faultinject.NewFakeClock(time.Unix(0, 0))
	ft := &faultinject.Transport{} // faults are connection-level; no latency, real inner
	router, err := cluster.NewRouter(tc.man, cluster.RouterOptions{
		Client:           httpClient(ft),
		Clock:            clk,
		Breaker:          cluster.BreakerOptions{ConsecutiveFailures: 3, OpenFor: time.Second},
		RetryBudgetRatio: 0.01, RetryBudgetBurst: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := router.Sync(ctx); err != nil {
		t.Fatal(err)
	}

	var acked, refused int
	addOne := func(i int) {
		t.Helper()
		_, err := router.Add(ctx, []retrieval.Document{
			{ID: fmt.Sprintf("chaos-%d", i), Text: "car engine maintenance under chaos"},
		})
		if err != nil {
			refused++
		} else {
			acked++
		}
		if !router.Ready() {
			t.Fatalf("add %d (err=%v): ingest froze although nothing landed partially", i, err)
		}
	}

	// Every third write is refused at the connection level (Remaining: 1
	// so the fault hits exactly one request; the breaker sees isolated
	// failures and stays closed).
	for i := 0; i < 12; i++ {
		if i%3 == 0 {
			ft.SetRules(&faultinject.Rule{Class: faultinject.ClassDocs, Err: errors.New("chaos: write fault"), Remaining: 1})
		}
		addOne(i)
	}
	if refused == 0 || acked == 0 {
		t.Fatalf("schedule produced acked=%d refused=%d; want both > 0", acked, refused)
	}

	// Sustained write faults trip the primary's breaker; the next write
	// is denied BEFORE any byte lands, so ingest must stay live.
	ft.SetRules(&faultinject.Rule{Class: faultinject.ClassDocs, Err: errors.New("chaos: sustained"), Remaining: 3})
	for i := 12; i < 15; i++ {
		addOne(i)
	}
	_, err = router.Add(ctx, []retrieval.Document{{ID: "denied", Text: "never sent"}})
	if err == nil {
		t.Fatal("add through an open breaker succeeded")
	}
	refused++
	if !router.Ready() {
		t.Fatal("breaker denial froze ingest")
	}
	if st := router.RouterStats(); st.BreakerTrips != 1 || st.BreakerDenied == 0 {
		t.Fatalf("sustained write faults: %+v", st)
	}

	// Chaos over: cooldown, recover, and write once more.
	ft.Clear()
	clk.Advance(time.Second)
	addOne(99)

	// The ledger must match the cluster exactly: acked in, refused out.
	if got, want := tc.nodes[0].NumDocs(), 10+acked; got != want {
		t.Fatalf("node holds %d docs after chaos; %d acked over base 10", got, want-10)
	}
	if err := router.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if got, want := router.NumDocs(), 10+acked; got != want {
		t.Fatalf("cluster count %d, want %d", got, want)
	}
}

// TestChaosSlowNodeHedgesDeterministically: a slow (not failing)
// primary is raced after HedgeAfter and the replica's answer wins —
// driven entirely by explicit clock advances — and the canceled
// straggler is not punished as a node failure.
func TestChaosSlowNodeHedgesDeterministically(t *testing.T) {
	clk := faultinject.NewFakeClock(time.Unix(0, 0))
	ft := &faultinject.Transport{Clock: clk}
	mp := startMirrorPair(t, ft, cluster.RouterOptions{
		Clock:      clk,
		HedgeAfter: 100 * time.Millisecond,
	})
	ctx := context.Background()
	want, err := mp.central.Search(ctx, "stars and galaxies", 8)
	if err != nil {
		t.Fatal(err)
	}

	ft.SetRules(&faultinject.Rule{Host: mp.priHost, Class: faultinject.ClassSearch, Latency: time.Hour})
	type answer struct {
		res     []retrieval.Result
		partial bool
		err     error
	}
	done := make(chan answer, 1)
	go func() {
		res, partial, err := search(ctx, mp.router, "stars and galaxies", 8)
		done <- answer{res, partial, err}
	}()
	// Two timers must be pending: the router's hedge timer and the
	// injected latency. Fire the hedge; the replica answers and wins.
	clk.BlockUntil(2)
	clk.Advance(100 * time.Millisecond)
	a := <-done
	if a.err != nil || a.partial {
		t.Fatalf("hedged search: partial=%v err=%v", a.partial, a.err)
	}
	sameResults(t, a.res, want, "hedged answer")
	st := mp.router.RouterStats()
	if st.Hedges != 1 {
		t.Fatalf("hedges = %d, want 1", st.Hedges)
	}
	// The straggler was canceled, not failed: no breaker movement, no
	// error counted against the slow-but-healthy primary.
	if st.NodeErrors != 0 || st.BreakerTrips != 0 || st.BreakersOpen != 0 {
		t.Fatalf("canceled straggler punished: %+v", st)
	}
}

// TestChaosProbeEjectionReordersCandidates: a primary whose health
// probe fails is deprioritized (the replica serves first) but never
// banned, and rejoins the preference order when probes recover.
func TestChaosProbeEjectionReordersCandidates(t *testing.T) {
	ft := &faultinject.Transport{}
	mp := startMirrorPair(t, ft, cluster.RouterOptions{})
	ctx := context.Background()

	ft.SetRules(&faultinject.Rule{Host: mp.priHost, Class: faultinject.ClassProbe, Err: errors.New("chaos: probe blackout")})
	mp.router.ProbeOnce(ctx)
	st := mp.router.RouterStats()
	if st.NodesEjected != 1 || st.ProbeFailures == 0 {
		t.Fatalf("failed probe: ejected=%d probeFailures=%d, want 1 and > 0", st.NodesEjected, st.ProbeFailures)
	}
	// Ejection is advisory: the search never touches the (healthy)
	// primary's request path, and still answers in full.
	if _, partial, err := search(ctx, mp.router, "car engine", 5); err != nil || partial {
		t.Fatalf("search with ejected primary: partial=%v err=%v", partial, err)
	}

	ft.Clear()
	mp.router.ProbeOnce(ctx)
	if st := mp.router.RouterStats(); st.NodesEjected != 0 {
		t.Fatalf("recovered probe left %d nodes ejected", st.NodesEjected)
	}
}

// TestRouterReloadRaceWithTraffic: manifest hot-reloads racing a query
// storm (run under -race in CI) — every query answers correctly on
// whichever manifest it started with, and the router converges to the
// last version.
func TestRouterReloadRaceWithTraffic(t *testing.T) {
	tc := startCluster(t, 20, 2)
	ctx := context.Background()
	want, err := tc.central.Search(ctx, "car engine", 10)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				got, partial, err := search(ctx, tc.router, "car engine", 10)
				if err != nil || partial {
					t.Errorf("query during reloads: partial=%v err=%v", partial, err)
					return
				}
				sameResults(t, got, want, "during reloads")
			}
		}()
	}
	// Stats readers and probe rounds race the reloads too.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = tc.router.RouterStats()
			tc.router.ProbeOnce(ctx)
		}
	}()

	const lastVersion = 40
	for v := 2; v <= lastVersion; v++ {
		m := *tc.man
		m.Version = v
		m.Nodes = append([]cluster.Node(nil), tc.man.Nodes...)
		if err := tc.router.Reload(&m); err != nil {
			t.Fatalf("reload v%d: %v", v, err)
		}
	}
	close(stop)
	wg.Wait()
	if got := tc.router.Manifest().Version; got != lastVersion {
		t.Fatalf("router converged to version %d, want %d", got, lastVersion)
	}
}

// TestRouterBreakerMetricsExposition: the breaker/health series render
// in the Prometheus exposition with the values the incident produced —
// what the failure-modes matrix in OPERATIONS.md points operators at.
func TestRouterBreakerMetricsExposition(t *testing.T) {
	clk := faultinject.NewFakeClock(time.Unix(0, 0))
	ft := &faultinject.Transport{Clock: clk}
	mp := startMirrorPair(t, ft, cluster.RouterOptions{
		Clock:            clk,
		Breaker:          cluster.BreakerOptions{ConsecutiveFailures: 3, OpenFor: time.Second},
		RetryBudgetRatio: 0.01, RetryBudgetBurst: 0.5,
	})
	ctx := context.Background()

	// Trip the primary's breaker, fail one probe round, and take one
	// shed, so every series has something to say.
	ft.SetRules(
		&faultinject.Rule{Host: mp.priHost, Class: faultinject.ClassProbe, Err: errors.New("chaos: probe out")},
		&faultinject.Rule{Host: mp.priHost, Err: errors.New("chaos: down")},
	)
	for i := 0; i < 4; i++ {
		if _, _, err := search(ctx, mp.router, "car engine", 5); err != nil {
			t.Fatalf("query %d during incident: %v", i, err)
		}
	}
	mp.router.ProbeOnce(ctx)

	reg := metrics.NewRegistry()
	mp.router.RegisterMetrics(reg)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	for _, want := range []string{
		"lsi_cluster_breakers_open 1",
		"lsi_cluster_breakers_half_open 0",
		"lsi_cluster_breaker_trips_total 1",
		"lsi_cluster_nodes_ejected 1",
		"lsi_cluster_node_sheds_total 0",
		"lsi_cluster_retries_total 0",
		"lsi_cluster_retry_budget_exhausted_total",
		"lsi_cluster_breaker_denied_total 1",
		"lsi_cluster_probe_failures_total 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", body)
	}
}
