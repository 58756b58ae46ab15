package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
	"repro/internal/metrics"
	"repro/internal/topk"
	"repro/retrieval"
	"repro/retrieval/httpapi"
)

// RouterOptions configures a Router; zero values pick the documented
// defaults.
type RouterOptions struct {
	// NodeTimeout bounds each per-node request (default 2s). The
	// caller's context still applies on top.
	NodeTimeout time.Duration
	// HedgeAfter is how long the router waits on a node before also
	// trying the shard's next candidate (default 150ms). A node that
	// fails outright is hedged immediately, without waiting. The first
	// success wins; stragglers are canceled.
	HedgeAfter time.Duration
	// Client is the HTTP client for node requests (default: a dedicated
	// client with sane connection reuse).
	Client *http.Client

	// Clock is the router's time source for hedge timers, retry
	// backoff, breaker cooldowns, and the probe loop (default
	// faultinject.Real); chaos tests inject a FakeClock and drive every
	// timing decision deterministically.
	Clock faultinject.Clock
	// Breaker configures the per-node circuit breakers; its Clock
	// defaults to the router's.
	Breaker BreakerOptions
	// MaxRetries caps same-node retries of a transport-level failure
	// (default 2); HTTP status errors fail over via hedging instead of
	// retrying. Every retry also needs retry-budget approval.
	MaxRetries int
	// RetryBase and RetryMaxDelay bound the jittered exponential
	// backoff between retries (defaults 25ms and 500ms).
	RetryBase     time.Duration
	RetryMaxDelay time.Duration
	// RetryBudgetRatio is the retry budget's refill per logical node
	// request (default 0.1): across the router, retries cannot exceed
	// ~this fraction of traffic, so a dead cluster sees failing
	// requests, not a retry storm. RetryBudgetBurst caps (and seeds)
	// the saved-up budget (default 10).
	RetryBudgetRatio float64
	RetryBudgetBurst float64
	// RetrySeed seeds the backoff jitter (default 1); chaos tests pin
	// it so retry schedules are reproducible.
	RetrySeed int64
	// ProbeInterval is RunProbes' background health-probe cadence
	// (default 2s).
	ProbeInterval time.Duration
	// FreshnessLagDocs ejects a node whose probed document count lags
	// the freshest same-shard candidate by more than this (0 =
	// freshness never ejects; probe failures and not-ready still do).
	FreshnessLagDocs int
}

func (o RouterOptions) withDefaults() RouterOptions {
	if o.NodeTimeout <= 0 {
		o.NodeTimeout = 2 * time.Second
	}
	if o.HedgeAfter <= 0 {
		o.HedgeAfter = 150 * time.Millisecond
	}
	if o.Client == nil {
		o.Client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}}
	}
	if o.Clock == nil {
		o.Clock = faultinject.Real
	}
	if o.Breaker.Clock == nil {
		o.Breaker.Clock = o.Clock
	}
	if o.MaxRetries <= 0 {
		o.MaxRetries = 2
	}
	if o.RetryBase <= 0 {
		o.RetryBase = 25 * time.Millisecond
	}
	if o.RetryMaxDelay <= 0 {
		o.RetryMaxDelay = 500 * time.Millisecond
	}
	if o.RetrySeed == 0 {
		o.RetrySeed = 1
	}
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = 2 * time.Second
	}
	return o
}

// manifestState is the router's compiled topology, swapped atomically
// on Reload so queries in flight keep the manifest they started with.
type manifestState struct {
	man     *Manifest
	byShard [][]Node
}

// Router fans queries out to the shard-owning nodes of a cluster
// manifest and merges their answers into the single-process result
// order. It implements retrieval.Retriever and httpapi.Live, so
// httpapi.NewHandler(router, ...) is a complete cluster front door.
//
// Reads degrade, writes don't: a shard whose every candidate node
// failed is simply absent from a search's merge — the response is
// marked partial (X-Partial-Results through httpapi) and counted — but
// an Add that cannot reach a shard primary fails and freezes ingest
// until Sync re-derives the cluster's document count, because global
// numbering (g mod S owns g) leaves no correct place to put a skipped
// document.
type Router struct {
	opts   RouterOptions
	client *http.Client
	clock  faultinject.Clock
	man    atomic.Pointer[manifestState]

	// ingestMu serializes writers: round-robin numbering means each
	// batch's shard split depends on the exact global position where the
	// batch starts.
	ingestMu   sync.Mutex
	nextGlobal int
	synced     bool

	// Health view: per-node breakers + probe observations (health.go),
	// and the router-wide retry budget.
	healthMu   sync.Mutex
	nodeHealth map[string]*nodeHealth
	budget     *RetryBudget
	rngMu      sync.Mutex
	rng        *rand.Rand // backoff jitter; guarded by rngMu

	docs       atomic.Int64 // published nextGlobal, for lock-free NumDocs
	partials   atomic.Int64
	hedges     atomic.Int64
	nodeErrs   atomic.Int64
	nodeSheds  atomic.Int64
	denied     atomic.Int64 // requests failed fast by an open breaker
	probeFails atomic.Int64
	reloads    atomic.Int64
	staleRels  atomic.Int64
}

// NewRouter compiles a validated manifest into a Router. Call Sync
// before ingesting (Add also syncs lazily); searches need no sync.
func NewRouter(m *Manifest, opts RouterOptions) (*Router, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	r := &Router{opts: opts.withDefaults()}
	r.client = r.opts.Client
	r.clock = r.opts.Clock
	r.nodeHealth = make(map[string]*nodeHealth)
	r.budget = NewRetryBudget(r.opts.RetryBudgetRatio, r.opts.RetryBudgetBurst)
	r.rng = rand.New(rand.NewSource(r.opts.RetrySeed))
	r.man.Store(&manifestState{man: m, byShard: m.byShard()})
	return r, nil
}

// Reload hot-swaps the cluster topology. The new manifest must validate,
// keep the shard count (resharding is a rebuild, not a reload), and
// strictly increase the version — a stale file can never roll the
// topology back. Queries in flight finish on the manifest they started
// with.
func (r *Router) Reload(m *Manifest) error {
	if err := m.Validate(); err != nil {
		return err
	}
	cur := r.man.Load()
	if m.Version <= cur.man.Version {
		r.staleRels.Add(1)
		return fmt.Errorf("cluster: reload version %d is not newer than the serving version %d", m.Version, cur.man.Version)
	}
	if m.Shards != cur.man.Shards {
		return fmt.Errorf("cluster: reload changes the shard count %d -> %d; resharding requires a rebuild", cur.man.Shards, m.Shards)
	}
	r.man.Store(&manifestState{man: m, byShard: m.byShard()})
	r.reloads.Add(1)
	return nil
}

// Manifest returns the serving topology.
func (r *Router) Manifest() *Manifest { return r.man.Load().man }

// nodeStatusError is a non-2xx node response: the node answered, so
// the failure carries HTTP semantics the router branches on — a shed
// (429/503 + Retry-After) propagates backpressure, anything else is a
// plain failure handled by hedging.
type nodeStatusError struct {
	node, path string
	code       int
	retryAfter time.Duration
	msg        string
}

func (e *nodeStatusError) Error() string {
	return fmt.Sprintf("cluster: node %q: %s: status %d: %s", e.node, e.path, e.code, e.msg)
}

// shed reports whether the response was load shedding (queue-full 429
// or debt/drain 503) rather than a malfunction.
func (e *nodeStatusError) shed() bool {
	return e.code == http.StatusTooManyRequests || e.code == http.StatusServiceUnavailable
}

// shedOf extracts a shed from an error chain (nil when the error is
// not a shed).
func shedOf(err error) *nodeStatusError {
	var nse *nodeStatusError
	if errors.As(err, &nse) && nse.shed() {
		return nse
	}
	return nil
}

// breakerDeniedError is a request failed fast by an open breaker — no
// bytes hit the network.
type breakerDeniedError struct{ node string }

func (e *breakerDeniedError) Error() string {
	return fmt.Sprintf("cluster: node %q: circuit breaker open", e.node)
}

// post runs one JSON request against one node, decoding a 2xx body
// into out. Non-2xx responses become *nodeStatusError carrying the
// node's name, the status, the Retry-After hint, and the body's error
// message.
func (r *Router) post(ctx context.Context, node Node, path string, body, out any) error {
	ctx, cancel := context.WithTimeout(ctx, r.opts.NodeTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return fmt.Errorf("cluster: encoding request for node %q: %w", node.Name, err)
		}
		rd = bytes.NewReader(b)
	}
	method := http.MethodPost
	if body == nil {
		method = http.MethodGet
	}
	req, err := http.NewRequestWithContext(ctx, method, node.URL+path, rd)
	if err != nil {
		return fmt.Errorf("cluster: node %q: %w", node.Name, err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return fmt.Errorf("cluster: node %q: %w", node.Name, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		var e httpapi.ErrorResponse
		json.NewDecoder(io.LimitReader(resp.Body, 4<<10)).Decode(&e)
		var after time.Duration
		if secs, aerr := strconv.Atoi(resp.Header.Get("Retry-After")); aerr == nil && secs > 0 {
			after = time.Duration(secs) * time.Second
		}
		return &nodeStatusError{node: node.Name, path: path, code: resp.StatusCode, retryAfter: after, msg: e.Error}
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("cluster: node %q: decoding %s response: %w", node.Name, path, err)
	}
	return nil
}

// jitter draws one backoff delay for a retry attempt from the seeded
// jitter source.
func (r *Router) jitter(attempt int) time.Duration {
	r.rngMu.Lock()
	defer r.rngMu.Unlock()
	return backoff(attempt, r.opts.RetryBase, r.opts.RetryMaxDelay, r.rng)
}

// do is post behind the resilience controls: the node's breaker gates
// admission (denied requests fail fast without touching the network
// and are NOT recorded as breaker outcomes), every allowed outcome is
// recorded, and transport-level failures — the node never answered —
// are retried against the same node with jittered exponential backoff,
// each retry approved by the router-wide retry budget. Status errors
// are not retried here: the node is alive and said no; hedging decides
// whether another candidate should be tried.
func (r *Router) do(ctx context.Context, node Node, path string, body, out any) error {
	h := r.health(node)
	r.budget.OnRequest()
	for attempt := 0; ; attempt++ {
		if !h.breaker.Allow() {
			r.denied.Add(1)
			return &breakerDeniedError{node: node.Name}
		}
		err := r.post(ctx, node, path, body, out)
		var nse *nodeStatusError
		isStatus := errors.As(err, &nse)
		if err != nil && !isStatus && ctx.Err() != nil {
			// Canceled mid-flight — a hedge winner elsewhere, or the
			// caller gave up. Says nothing about the node: don't record
			// a breaker outcome, don't count an error. But if Allow
			// claimed the half-open probe slot, hand it back — an
			// unsettled probe would deny every future request.
			h.breaker.Cancel()
			return err
		}
		// A shed or client-level status is a healthy node answering;
		// only transport failures and 5xx malfunctions feed the breaker.
		h.breaker.Record(err == nil || (isStatus && (nse.code < 500 || nse.shed())))
		if err != nil {
			// Counted at the source so hedge losers and retries show up
			// even when a winner returns before their outcome drains.
			if shedOf(err) != nil {
				r.nodeSheds.Add(1)
			} else {
				r.nodeErrs.Add(1)
			}
		}
		if err == nil || isStatus {
			return err
		}
		if attempt >= r.opts.MaxRetries || !r.budget.TryRetry() {
			return err
		}
		select {
		case <-r.clock.After(r.jitter(attempt)):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// hedged runs call against a shard's candidates, primary first. A
// candidate that errors is replaced immediately; one that is merely
// slow is raced against the next candidate after HedgeAfter. The first
// success wins and cancels the stragglers; when every candidate has
// failed the last error is returned.
func hedged[T any](r *Router, ctx context.Context, nodes []Node, call func(context.Context, Node) (T, error)) (T, error) {
	var zero T
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type outcome struct {
		v   T
		err error
	}
	ch := make(chan outcome, len(nodes))
	launched, pending := 0, 0
	launch := func() {
		node := nodes[launched]
		launched++
		pending++
		go func() {
			v, err := call(hctx, node)
			ch <- outcome{v, err}
		}()
	}
	launch()
	hedge := r.clock.After(r.opts.HedgeAfter)
	var lastErr error
	for {
		select {
		case out := <-ch:
			pending--
			if out.err == nil {
				return out.v, nil
			}
			// Counting happens in do (sheds/errors) and at the breaker
			// (denied), so outcomes draining after a winner still show
			// up in stats. A shed outranks transport noise as the error
			// to surface: it carries the backpressure hint.
			if lastErr == nil || shedOf(lastErr) == nil {
				lastErr = out.err
			}
			if launched < len(nodes) {
				launch()
			} else if pending == 0 {
				return zero, lastErr
			}
		case <-hedge:
			if launched < len(nodes) {
				r.hedges.Add(1)
				launch()
				hedge = r.clock.After(r.opts.HedgeAfter)
			}
		case <-ctx.Done():
			return zero, ctx.Err()
		}
	}
}

// shardResults is one shard's answer to a fan-out, remapped to global
// document numbers.
type shardResults struct {
	shard   int
	perQ    [][]retrieval.Result
	failed  bool
	lastErr error
}

// fanout runs one batch of queries against every shard concurrently
// and returns the per-shard outcomes. Queries and merge stay strictly
// deterministic; only availability varies.
func (r *Router) fanout(ctx context.Context, queries []string, topN int) ([]shardResults, *manifestState) {
	ms := r.man.Load()
	S := ms.man.Shards
	out := make([]shardResults, S)
	var wg sync.WaitGroup
	for s := 0; s < S; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			// The health view orders candidates (outliers last) before
			// hedging walks them.
			perQ, err := hedged(r, ctx, r.orderCandidates(ms.byShard[s]), func(ctx context.Context, node Node) ([][]retrieval.Result, error) {
				if len(queries) == 1 {
					var resp httpapi.SearchResponse
					if err := r.do(ctx, node, "/v1/search", httpapi.SearchRequest{Query: queries[0], TopN: topN}, &resp); err != nil {
						return nil, err
					}
					return [][]retrieval.Result{resp.Results}, nil
				}
				var resp httpapi.BatchSearchResponse
				if err := r.do(ctx, node, "/v1/search:batch", httpapi.BatchSearchRequest{Queries: queries, TopN: topN}, &resp); err != nil {
					return nil, err
				}
				if len(resp.Results) != len(queries) {
					return nil, fmt.Errorf("cluster: node %q answered %d of %d queries", node.Name, len(resp.Results), len(queries))
				}
				return resp.Results, nil
			})
			out[s] = shardResults{shard: s, perQ: perQ, failed: err != nil, lastErr: err}
		}(s)
	}
	wg.Wait()
	return out, ms
}

// mergeQuery merges one query's per-shard answers into the
// single-process result order: remap each shard-local document l to
// global l*S + s, then sort with the exact comparator the in-process
// index uses (internal/topk: score desc, global asc) and truncate to
// topN. Because each node returns its own top-topN superset of the
// global top-topN's members on that shard, the merge is exact — not an
// approximation.
func mergeQuery(parts []shardResults, q, topN, S int) []retrieval.Result {
	var ms []topk.Match
	ids := make(map[int]string)
	for _, p := range parts {
		if p.failed {
			continue
		}
		for _, res := range p.perQ[q] {
			g := res.Doc*S + p.shard
			ms = append(ms, topk.Match{Doc: g, Score: res.Score})
			ids[g] = res.ID
		}
	}
	topk.SortMatches(ms)
	if topN > 0 && len(ms) > topN {
		ms = ms[:topN]
	}
	out := make([]retrieval.Result, len(ms))
	for i, m := range ms {
		out[i] = retrieval.Result{Doc: m.Doc, ID: ids[m.Doc], Score: m.Score}
	}
	return out
}

// allFailedErr shapes the no-shard-reachable error. When the decisive
// failure was a shed, it propagates as httpapi.ShedError, so the
// router's client receives the nodes' 429/503 and Retry-After hint
// instead of a flattened 500 — backpressure survives the router hop.
func allFailedErr(lastErr error) error {
	if nse := shedOf(lastErr); nse != nil {
		return &httpapi.ShedError{StatusCode: nse.code, RetryAfter: nse.retryAfter, Msg: nse.Error()}
	}
	return fmt.Errorf("cluster: no shard reachable: %w", lastErr)
}

// Query implements retrieval.Retriever: the texts fan out to every
// shard, one round trip per shard whatever their number, and merge
// exactly. Partial reports a degraded quorum: at least one shard
// answered and at least one did not, so the lists are a correct merge of
// the shards that did. When no shard answers, the error of the last
// failure is returned. The nodes answer at their configured budget, so a
// vector or a probe budget fails with retrieval.ErrUnsupported.
func (r *Router) Query(ctx context.Context, q retrieval.Query) (retrieval.Answer, error) {
	if q.Vector != nil || q.NProbe != nil {
		return retrieval.Answer{}, fmt.Errorf("%w: the cluster router forwards text queries at the nodes' configured budget", retrieval.ErrUnsupported)
	}
	parts, ms := r.fanout(ctx, q.Texts, q.TopN)
	failed := 0
	var lastErr error
	for _, p := range parts {
		if p.failed {
			failed++
			if lastErr == nil || shedOf(lastErr) == nil {
				lastErr = p.lastErr
			}
		}
	}
	if failed == len(parts) {
		return retrieval.Answer{}, allFailedErr(lastErr)
	}
	ans := retrieval.Answer{Results: make([][]retrieval.Result, len(q.Texts)), Partial: failed > 0}
	if ans.Partial {
		r.partials.Add(1)
	}
	for i := range q.Texts {
		ans.Results[i] = mergeQuery(parts, i, q.TopN, ms.man.Shards)
	}
	return ans, nil
}

// NumDocs returns the cluster's document count as of the last
// Sync/Add (0 before the first sync).
func (r *Router) NumDocs() int { return int(r.docs.Load()) }

// Stats implements retrieval.Retriever with a cluster-level summary;
// Ready is the router's, what /readyz answers.
func (r *Router) Stats() retrieval.Stats {
	ms := r.man.Load()
	return retrieval.Stats{
		Backend:     "cluster",
		Sharded:     true,
		Shards:      ms.man.Shards,
		NumDocs:     r.NumDocs(),
		TextQueries: true,
		Ready:       r.Ready(),
	}
}

// Ready reports whether the router is ready: once ingest is synced
// (searches work regardless; readiness gates traffic that may include
// writes).
func (r *Router) Ready() bool {
	r.ingestMu.Lock()
	defer r.ingestMu.Unlock()
	return r.synced
}

// docsOnShard is the round-robin partition arithmetic: how many of N
// global documents shard s of S holds.
func docsOnShard(s, N, S int) int {
	if N <= s {
		return 0
	}
	return (N - s + S - 1) / S
}

// Sync derives the cluster's next global document position from the
// shard primaries' document counts and verifies they form a consistent
// round-robin prefix (shard s of S holding ceil((N-s)/S) documents).
// Inconsistent counts — the wreckage of a partially failed write —
// leave ingest frozen with a descriptive error; searches still work.
func (r *Router) Sync(ctx context.Context) error {
	r.ingestMu.Lock()
	defer r.ingestMu.Unlock()
	return r.syncLocked(ctx)
}

func (r *Router) syncLocked(ctx context.Context) error {
	r.synced = false
	ms := r.man.Load()
	S := ms.man.Shards
	counts := make([]int, S)
	total := 0
	for s := 0; s < S; s++ {
		primary := ms.byShard[s][0]
		var st retrieval.Stats
		if err := r.post(ctx, primary, "/v1/stats", nil, &st); err != nil {
			return fmt.Errorf("cluster: sync: %w", err)
		}
		counts[s] = st.NumDocs
		total += st.NumDocs
	}
	for s := 0; s < S; s++ {
		if want := docsOnShard(s, total, S); counts[s] != want {
			return fmt.Errorf("cluster: sync: shard %d holds %d documents, want %d of a consistent %d-document round-robin — a write landed partially; see OPERATIONS.md",
				s, counts[s], want, total)
		}
	}
	r.nextGlobal = total
	r.docs.Store(int64(total))
	r.synced = true
	return nil
}

// Add implements live ingest through the router: documents are
// numbered from the cluster's next global position and routed to their
// owning shards (global g to shard g mod S), preserving the exact
// placement a single-process sharded index would have chosen. Writes
// go to primaries only. Any failure freezes ingest (synced=false)
// until Sync verifies what actually landed, because a partially
// applied batch would otherwise shift every later document's shard.
func (r *Router) Add(ctx context.Context, docs []retrieval.Document) (int, error) {
	if len(docs) == 0 {
		return 0, fmt.Errorf("cluster: empty add batch")
	}
	r.ingestMu.Lock()
	defer r.ingestMu.Unlock()
	if !r.synced {
		if err := r.syncLocked(ctx); err != nil {
			return 0, err
		}
	}
	ms := r.man.Load()
	S := ms.man.Shards
	first := r.nextGlobal

	// Split the batch by owning shard. Globals are assigned in order, so
	// each shard's sub-batch lands at consecutive locals starting at the
	// local position of its first global.
	type sub struct {
		docs       []httpapi.AddDocRequest
		firstLocal int
	}
	subs := make([]sub, S)
	for i, d := range docs {
		g := first + i
		s := g % S
		if subs[s].docs == nil {
			subs[s].firstLocal = g / S
		}
		subs[s].docs = append(subs[s].docs, httpapi.AddDocRequest{ID: d.ID, Text: d.Text})
	}
	// Consult the health view BEFORE the first byte lands: a primary
	// whose breaker is open would fail this batch anyway, but failing it
	// now — with no shard written — means ingest need not freeze.
	for s := 0; s < S; s++ {
		if subs[s].docs == nil {
			continue
		}
		primary := ms.byShard[s][0]
		if !r.health(primary).breaker.Ready() {
			r.denied.Add(1)
			return 0, &breakerDeniedError{node: primary.Name}
		}
		// Ready is a side-effect-free check: the real request below
		// claims (and settles) any half-open probe slot itself. A claim
		// here could leak — a later shard's denial returns before this
		// shard's request ever runs.
	}
	landed := false // a failure before any shard write needs no freeze
	for s := 0; s < S; s++ {
		if subs[s].docs == nil {
			continue
		}
		primary := ms.byShard[s][0]
		var resp httpapi.AddDocsResponse
		if err := r.do(ctx, primary, "/v1/docs:batch", httpapi.AddDocsRequest{Docs: subs[s].docs}, &resp); err != nil {
			if nse := shedOf(err); nse != nil {
				err = &httpapi.ShedError{StatusCode: nse.code, RetryAfter: nse.retryAfter, Msg: nse.Error()}
			}
			if !landed {
				return 0, fmt.Errorf("cluster: add: %w", err)
			}
			r.synced = false
			return 0, fmt.Errorf("cluster: add: ingest frozen until Sync: %w", err)
		}
		if resp.First != subs[s].firstLocal {
			r.synced = false
			return 0, fmt.Errorf("cluster: add: shard %d appended at local %d, expected %d — cluster out of sync, ingest frozen until Sync",
				s, resp.First, subs[s].firstLocal)
		}
		landed = true
	}
	r.nextGlobal += len(docs)
	r.docs.Store(int64(r.nextGlobal))
	return first, nil
}

// TailWAL implements httpapi.Live: the router keeps no write-ahead log
// (each node logs its own shard), so it always returns retrieval.ErrNoWAL.
func (r *Router) TailWAL(from int) ([]retrieval.Document, error) {
	return nil, retrieval.ErrNoWAL
}

// RouterStats is the router's observability snapshot.
type RouterStats struct {
	// ManifestVersion is the serving topology's version.
	ManifestVersion int
	// Synced reports whether ingest is live (see Sync).
	Synced bool
	// Docs is the cluster document count as of the last Sync/Add.
	Docs int64
	// Partials counts quorum-degraded search responses served.
	Partials int64
	// Hedges counts hedged requests launched because a node was slow.
	Hedges int64
	// NodeErrors counts failed node requests (including hedge losers).
	NodeErrors int64
	// Reloads and StaleReloads count accepted and version-rejected
	// manifest reloads.
	Reloads      int64
	StaleReloads int64
	// NodeSheds counts node responses that shed load (429/503) — healthy
	// backpressure, split from NodeErrors so a dashboard can tell
	// overload from failure.
	NodeSheds int64
	// Retries and RetryBudgetExhausted count same-node retries granted
	// and refused by the retry budget.
	Retries              int64
	RetryBudgetExhausted int64
	// BreakerDenied counts requests failed fast by an open breaker.
	BreakerDenied int64
	// BreakersOpen/HalfOpen gauge the current breaker states across
	// known nodes; BreakerTrips totals closed→open transitions.
	BreakersOpen     int
	BreakersHalfOpen int
	BreakerTrips     int64
	// NodesEjected gauges nodes the probe loop currently marks as
	// outliers; ProbeFailures counts failed background probes.
	NodesEjected  int
	ProbeFailures int64
}

// RouterStats snapshots the router's counters.
func (r *Router) RouterStats() RouterStats {
	r.ingestMu.Lock()
	synced := r.synced
	r.ingestMu.Unlock()
	open, halfOpen, ejected, trips := r.healthSnapshot()
	return RouterStats{
		ManifestVersion:      r.man.Load().man.Version,
		Synced:               synced,
		Docs:                 r.docs.Load(),
		Partials:             r.partials.Load(),
		Hedges:               r.hedges.Load(),
		NodeErrors:           r.nodeErrs.Load(),
		Reloads:              r.reloads.Load(),
		StaleReloads:         r.staleRels.Load(),
		NodeSheds:            r.nodeSheds.Load(),
		Retries:              r.budget.Retries(),
		RetryBudgetExhausted: r.budget.Exhausted(),
		BreakerDenied:        r.denied.Load(),
		BreakersOpen:         open,
		BreakersHalfOpen:     halfOpen,
		BreakerTrips:         trips,
		NodesEjected:         ejected,
		ProbeFailures:        r.probeFails.Load(),
	}
}

// RegisterMetrics exports the router's counters on reg under the
// lsi_cluster_* namespace (distinct from the per-node lsi_* series, so
// a router can share a Prometheus job with the nodes it fronts).
func (r *Router) RegisterMetrics(reg *metrics.Registry) {
	reg.GaugeFunc("lsi_cluster_manifest_version", "Version of the serving cluster manifest.",
		func() float64 { return float64(r.man.Load().man.Version) })
	reg.GaugeFunc("lsi_cluster_docs", "Cluster document count as of the last ingest sync.",
		func() float64 { return float64(r.docs.Load()) })
	reg.GaugeFunc("lsi_cluster_ingest_synced", "1 while ingest is synced and accepting writes.",
		func() float64 {
			if r.Ready() {
				return 1
			}
			return 0
		})
	reg.CounterFunc("lsi_cluster_partial_results_total", "Search responses served from a degraded quorum.",
		func() float64 { return float64(r.partials.Load()) })
	reg.CounterFunc("lsi_cluster_hedges_total", "Hedged node requests launched because a primary was slow.",
		func() float64 { return float64(r.hedges.Load()) })
	reg.CounterFunc("lsi_cluster_node_errors_total", "Failed node requests, including hedge losers.",
		func() float64 { return float64(r.nodeErrs.Load()) })
	reg.CounterFunc("lsi_cluster_manifest_reloads_total", "Accepted manifest hot reloads.",
		func() float64 { return float64(r.reloads.Load()) })
	reg.CounterFunc("lsi_cluster_manifest_stale_reloads_total", "Manifest reloads refused by the version gate.",
		func() float64 { return float64(r.staleRels.Load()) })
	reg.CounterFunc("lsi_cluster_node_sheds_total", "Node responses that shed load (429/503) — backpressure, not failure.",
		func() float64 { return float64(r.nodeSheds.Load()) })
	reg.CounterFunc("lsi_cluster_retries_total", "Same-node retries granted by the retry budget.",
		func() float64 { return float64(r.budget.Retries()) })
	reg.CounterFunc("lsi_cluster_retry_budget_exhausted_total", "Retries refused because the retry budget was empty.",
		func() float64 { return float64(r.budget.Exhausted()) })
	reg.CounterFunc("lsi_cluster_breaker_denied_total", "Requests failed fast by an open circuit breaker.",
		func() float64 { return float64(r.denied.Load()) })
	reg.GaugeFunc("lsi_cluster_breakers_open", "Nodes whose circuit breaker is currently open.",
		func() float64 { open, _, _, _ := r.healthSnapshot(); return float64(open) })
	reg.GaugeFunc("lsi_cluster_breakers_half_open", "Nodes whose circuit breaker is probing recovery.",
		func() float64 { _, half, _, _ := r.healthSnapshot(); return float64(half) })
	reg.CounterFunc("lsi_cluster_breaker_trips_total", "Circuit-breaker closed-to-open transitions across all nodes.",
		func() float64 { _, _, _, trips := r.healthSnapshot(); return float64(trips) })
	reg.GaugeFunc("lsi_cluster_nodes_ejected", "Nodes the probe loop currently marks as outliers.",
		func() float64 { _, _, ej, _ := r.healthSnapshot(); return float64(ej) })
	reg.CounterFunc("lsi_cluster_probe_failures_total", "Failed background health probes.",
		func() float64 { return float64(r.probeFails.Load()) })
}
