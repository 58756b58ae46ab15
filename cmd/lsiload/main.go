// Command lsiload is a closed-loop load generator for a running
// lsiserve: N workers each keep exactly one request in flight against
// the server for a fixed duration, and the tool reports client-observed
// latency quantiles (p50/p99/p999), throughput, and error/shed rates as
// JSON. Closed-loop means offered load adapts to the server — when the
// admission gate sheds or latency grows, workers slow down instead of
// stacking an unbounded backlog, which keeps the quantiles honest.
//
// Usage:
//
//	lsiload -addr localhost:8080 [-duration 10s] [-concurrency 8] [-trace zipf]
//	lsiload -addr localhost:8080 -trace ingest -o load-ingest.json -l load-ingest
//	lsiload -addr host1:8080,host2:8080   # round-robin over several targets
//
// -addr accepts a comma-separated target list; each worker rotates
// through them request by request, which spreads a trace across the
// nodes of a cluster (or compares a router against its nodes).
//
// Shed accounting counts both admission-gate statuses: 429 (queue
// full) and 503 (compaction debt). Both are the server protecting
// itself, not a failure, and both back the closed loop off briefly.
//
// Traces:
//
//	zipf    searches drawn from the query set with a Zipfian rank-
//	        frequency law (-zipf-s), the cache-friendly steady state
//	burst   the zipf trace gated by a square wave: 200ms full load,
//	        300ms idle — exercises queue fill/drain and shed recovery
//	ingest  alternates POST /v1/docs appends with searches — exercises
//	        epoch invalidation and the compaction-debt backpressure
//	ann     the zipf query stream with a per-request "nprobe" override
//	        cycling through -nprobe-sweep — reports latency quantiles
//	        per probe budget (the "ann_sweep" summary block), so the
//	        p99-under-probe-pressure story is one run. The target must
//	        serve a *retrieval.Index (a node, not the cluster router);
//	        budget 0 is the exhaustive baseline the others compare to
//
// -exact forces nprobe=0 on every search request — the fully exact
// per-request escape hatch — so a server running with ANN or quantized
// tiers (-ann-nlist / -quant-beta on lsiserve) can be load-tested
// against its own exhaustive float baseline with the same trace.
//
// The query set defaults to terms drawn from the built-in demo corpus
// (what `lsiserve` with no arguments serves); -queries points at a file
// with one query per line for real corpora. The run's summary — request
// counts, qps, error and shed rates, latency quantiles — is printed to
// stdout as JSON, which is what the smoke scripts read.
//
// Exit status is 0 even when requests failed — the error rate is data,
// not a tool failure; CI gates assert on the JSON instead. Only flag
// errors or an empty query set fail the run.
//
// -faults turns the tool into a chaos driver: it reads a JSON schedule
// of fault steps and posts each step's InjectSpec to a node's
// /debug/faults admin endpoint (lsiserve -chaos) at its offset, while
// the trace keeps running. The schedule format:
//
//	{"steps": [
//	  {"at_ms": 0,    "node": "http://127.0.0.1:8081",
//	   "spec": {"seed": 1, "faults": [{"class": "search", "err_rate": 1}]}},
//	  {"at_ms": 2000, "node": "http://127.0.0.1:8081", "clear": true}
//	]}
//
// Under -faults the run also checks resilience invariants and exits 1
// when one is violated, which is what the CI chaos-smoke job gates on:
//
//   - no stuck request: every request completes (any status) within
//     -deadline; a client-side deadline expiry is a violation
//   - no acked write lost, none invented: the target's /v1/stats
//     numDocs must end at exactly its starting value plus the acked
//     (2xx) /v1/docs appends this run made
//
// Responses carrying X-Partial-Results (degraded fan-outs honestly
// marked) are counted in the summary as "partials" — evidence the
// faults landed, not a violation.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/faultinject"
	"repro/internal/metrics"
	"repro/retrieval"
)

type loadConfig struct {
	addr        string
	addrs       []string // normalized base URLs parsed from addr
	duration    time.Duration
	concurrency int
	trace       string
	topN        int
	zipfS       float64
	queriesFile string
	seed        int64
	nprobeSweep []int // parsed from -nprobe-sweep (trace "ann" only)
	exact       bool  // force nprobe=0 on searches (the fully exact escape hatch)

	// Chaos driving (-faults).
	faultsFile string
	deadline   time.Duration
}

func parseFlags(args []string, stderr io.Writer) (loadConfig, error) {
	cfg := loadConfig{}
	fs := flag.NewFlagSet("lsiload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.addr, "addr", "localhost:8080", "lsiserve address (host:port or http:// base URL; comma-separate several to round-robin)")
	fs.DurationVar(&cfg.duration, "duration", 10*time.Second, "how long to run the trace")
	fs.IntVar(&cfg.concurrency, "concurrency", 8, "closed-loop workers (each keeps one request in flight)")
	fs.StringVar(&cfg.trace, "trace", "zipf", "workload trace: zipf, burst, ingest, or ann")
	sweep := fs.String("nprobe-sweep", "0,1,2,4,8,16", "trace ann: comma-separated probe budgets cycled per request (0 = exhaustive baseline)")
	fs.IntVar(&cfg.topN, "topn", 10, "results requested per search")
	fs.Float64Var(&cfg.zipfS, "zipf-s", 1.1, "Zipf exponent for query popularity (>1; larger = more skewed, more cache hits)")
	fs.StringVar(&cfg.queriesFile, "queries", "", "file with one query per line (default: terms from the built-in demo corpus)")
	fs.Int64Var(&cfg.seed, "seed", 1, "PRNG seed (per-worker streams derive from it)")
	fs.BoolVar(&cfg.exact, "exact", false, "send nprobe=0 with every search: the fully exact escape hatch, bypassing the server's ANN and quantized tiers (baseline for -quant-beta / ANN runs; not with -trace ann)")
	fs.StringVar(&cfg.faultsFile, "faults", "", "chaos mode: apply this JSON fault schedule to lsiserve -chaos nodes and gate on resilience invariants (exit 1 on violation)")
	fs.DurationVar(&cfg.deadline, "deadline", 0, "per-request stuck bound; expiring it is an invariant violation (default 5s under -faults, unset otherwise)")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if cfg.faultsFile != "" && cfg.deadline == 0 {
		cfg.deadline = 5 * time.Second
	}
	if fs.NArg() > 0 {
		return cfg, fmt.Errorf("lsiload: unexpected arguments: %v", fs.Args())
	}
	switch cfg.trace {
	case "zipf", "burst", "ingest":
	case "ann":
		for _, part := range strings.Split(*sweep, ",") {
			part = strings.TrimSpace(part)
			if part == "" {
				continue
			}
			np, err := strconv.Atoi(part)
			if err != nil || np < 0 {
				return cfg, fmt.Errorf("lsiload: bad -nprobe-sweep entry %q (want integers >= 0)", part)
			}
			cfg.nprobeSweep = append(cfg.nprobeSweep, np)
		}
		if len(cfg.nprobeSweep) == 0 {
			return cfg, fmt.Errorf("lsiload: -nprobe-sweep names no budgets")
		}
	default:
		return cfg, fmt.Errorf("lsiload: unknown trace %q (want zipf, burst, ingest, or ann)", cfg.trace)
	}
	if cfg.exact && cfg.trace == "ann" {
		return cfg, fmt.Errorf("lsiload: -exact conflicts with -trace ann (the sweep sets nprobe per request)")
	}
	if cfg.zipfS <= 1 {
		return cfg, fmt.Errorf("lsiload: -zipf-s must be > 1, got %v", cfg.zipfS)
	}
	if cfg.concurrency <= 0 {
		cfg.concurrency = 1
	}
	for _, a := range strings.Split(cfg.addr, ",") {
		if a = strings.TrimSpace(a); a == "" {
			continue
		}
		if !strings.Contains(a, "://") {
			a = "http://" + a
		}
		cfg.addrs = append(cfg.addrs, strings.TrimRight(a, "/"))
	}
	if len(cfg.addrs) == 0 {
		return cfg, fmt.Errorf("lsiload: -addr names no targets")
	}
	return cfg, nil
}

// defaultQueries derives a deterministic query set from the demo corpus:
// every word of length >= 4, lowercased and deduplicated. Zipf ranks
// follow this order, so runs are reproducible.
func defaultQueries() []string {
	seen := map[string]bool{}
	var qs []string
	for _, d := range retrieval.DemoCorpus() {
		for _, w := range strings.Fields(strings.ToLower(d.Text)) {
			w = strings.Trim(w, ".,;:!?\"'")
			if len(w) >= 4 && !seen[w] {
				seen[w] = true
				qs = append(qs, w)
			}
		}
	}
	sort.Strings(qs)
	return qs
}

func readQueries(path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var qs []string
	for _, line := range strings.Split(string(data), "\n") {
		if line = strings.TrimSpace(line); line != "" {
			qs = append(qs, line)
		}
	}
	return qs, nil
}

// collector aggregates client-observed outcomes across workers. The
// latency histogram only records completed requests (any status);
// transport errors have no meaningful latency.
type collector struct {
	latency *metrics.Histogram // seconds
	ok      atomic.Int64       // 2xx
	shed    atomic.Int64       // 429/503 (the admission gates working as designed)
	failed  atomic.Int64       // other statuses and transport errors

	// Per-probe-budget latency for the ann trace, keyed by nprobe.
	// Populated before the workers start; Observe is concurrency-safe.
	annLatency map[int]*metrics.Histogram

	// Chaos-mode accounting (-faults).
	stuck    atomic.Int64 // requests that blew the -deadline bound
	partials atomic.Int64 // 2xx responses marked X-Partial-Results
	acked    atomic.Int64 // documents acked (2xx) on /v1/docs
}

// isShed reports whether a status is an admission-gate response: 429
// for a full queue, 503 for compaction debt on ingest.
func isShed(status int) bool {
	return status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable
}

func (c *collector) observe(elapsed time.Duration, status int, err error) {
	if err != nil {
		c.failed.Add(1)
		return
	}
	c.latency.Observe(elapsed.Seconds())
	switch {
	case status >= 200 && status < 300:
		c.ok.Add(1)
	case isShed(status):
		c.shed.Add(1)
	default:
		c.failed.Add(1)
	}
}

// burst timing: full load for onPhase, idle for offPhase, repeating.
const (
	onPhase  = 200 * time.Millisecond
	offPhase = 300 * time.Millisecond
)

type worker struct {
	cfg     loadConfig
	client  *http.Client
	queries []string
	col     *collector
	rng     *rand.Rand
	zipf    *rand.Zipf
	begin   time.Time
	seq     int
}

func (w *worker) run(ctx context.Context) {
	// The trace duration bounds request STARTS; ctx (cut at duration +
	// drain grace) is only the backstop. In-flight requests at the
	// cutoff drain to completion, so an append the server acks is
	// always counted — canceling mid-flight would strand applied writes
	// outside the acked-write ledger and fail the chaos gate on a
	// healthy cluster.
	for ctx.Err() == nil && time.Since(w.begin) < w.cfg.duration {
		if w.cfg.trace == "burst" {
			phase := time.Since(w.begin) % (onPhase + offPhase)
			if phase >= onPhase {
				idle := onPhase + offPhase - phase
				select {
				case <-time.After(idle):
				case <-ctx.Done():
					return
				}
				continue
			}
		}
		w.seq++
		switch {
		case w.cfg.trace == "ann":
			np := w.cfg.nprobeSweep[w.seq%len(w.cfg.nprobeSweep)]
			w.do(ctx, "/v1/search", w.annBody(np), w.col.annLatency[np])
		case w.cfg.trace == "ingest" && w.seq%2 == 0:
			w.do(ctx, "/v1/docs", w.ingestBody(), nil)
		default:
			w.do(ctx, "/v1/search", w.searchBody(), nil)
		}
	}
}

func (w *worker) searchBody() []byte {
	q := w.queries[int(w.zipf.Uint64())]
	req := map[string]any{"query": q, "topN": w.cfg.topN}
	if w.cfg.exact {
		// nprobe=0 is the per-request fully exact escape hatch: float
		// kernels over every document, no ANN probing, no int8 scan.
		req["nprobe"] = 0
	}
	body, _ := json.Marshal(req)
	return body
}

// annBody is searchBody with an explicit per-request probe budget.
func (w *worker) annBody(nprobe int) []byte {
	q := w.queries[int(w.zipf.Uint64())]
	body, _ := json.Marshal(map[string]any{"query": q, "topN": w.cfg.topN, "nprobe": nprobe})
	return body
}

func (w *worker) ingestBody() []byte {
	// A few random query terms make a plausible document that overlaps
	// the search vocabulary, so ingested documents influence results.
	words := make([]string, 6)
	for i := range words {
		words[i] = w.queries[w.rng.Intn(len(w.queries))]
	}
	body, _ := json.Marshal(map[string]any{"text": strings.Join(words, " ")})
	return body
}

// target rotates through the configured base URLs request by request.
func (w *worker) target() string {
	return w.cfg.addrs[w.seq%len(w.cfg.addrs)]
}

// do issues one request; extra, when non-nil, additionally records the
// latency of successful (2xx) responses — the ann trace's per-budget
// histogram.
func (w *worker) do(ctx context.Context, path string, body []byte, extra *metrics.Histogram) {
	reqCtx := ctx
	if w.cfg.deadline > 0 {
		var cancel context.CancelFunc
		reqCtx, cancel = context.WithTimeout(ctx, w.cfg.deadline)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(reqCtx, "POST", w.target()+path, bytes.NewReader(body))
	if err != nil {
		w.col.failed.Add(1)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := w.client.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return // shutdown, not a server failure
		}
		if errors.Is(err, context.DeadlineExceeded) {
			// The request was still in flight when the stuck bound expired —
			// the invariant the chaos gate exists to catch.
			w.col.stuck.Add(1)
		}
		w.col.observe(0, 0, err)
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	elapsed := time.Since(start)
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		if resp.Header.Get("X-Partial-Results") == "true" {
			w.col.partials.Add(1)
		}
		if path == "/v1/docs" {
			w.col.acked.Add(1)
		}
		if extra != nil {
			extra.Observe(elapsed.Seconds())
		}
	}
	w.col.observe(elapsed, resp.StatusCode, nil)
	if isShed(resp.StatusCode) {
		// Back off briefly; a closed loop that instantly retries turns
		// shedding into a busy-wait against the gate.
		select {
		case <-time.After(5 * time.Millisecond):
		case <-ctx.Done():
		}
	}
}

// Summary is the JSON report printed on stdout.
type Summary struct {
	Trace       string  `json:"trace"`
	DurationS   float64 `json:"duration_s"`
	Concurrency int     `json:"concurrency"`
	Requests    int64   `json:"requests"`
	QPS         float64 `json:"qps"`
	OK          int64   `json:"ok"`
	Shed        int64   `json:"shed"`
	Failed      int64   `json:"failed"`
	ErrorRate   float64 `json:"error_rate"`
	ShedRate    float64 `json:"shed_rate"`
	MeanNs      float64 `json:"mean_ns"`
	P50Ns       float64 `json:"p50_ns"`
	P99Ns       float64 `json:"p99_ns"`
	P999Ns      float64 `json:"p999_ns"`

	// Chaos-mode fields (-faults only).
	FaultSteps int   `json:"fault_steps,omitempty"`
	Stuck      int64 `json:"stuck,omitempty"`
	Partials   int64 `json:"partials,omitempty"`
	AckedDocs  int64 `json:"acked_docs,omitempty"`

	// ANNSweep reports per-probe-budget latency for the ann trace, in
	// -nprobe-sweep order (budget 0 is the exhaustive baseline).
	ANNSweep []ANNBucket `json:"ann_sweep,omitempty"`
}

// ANNBucket is one probe budget's slice of an ann-trace run; only
// successful (2xx) searches count toward its quantiles.
type ANNBucket struct {
	NProbe   int     `json:"nprobe"`
	Requests int64   `json:"requests"`
	P50Ns    float64 `json:"p50_ns"`
	P99Ns    float64 `json:"p99_ns"`
}

// faultStep is one timed entry of a -faults schedule: at at_ms from run
// start, install spec on node's /debug/faults (or clear it).
type faultStep struct {
	AtMS  int64                  `json:"at_ms"`
	Node  string                 `json:"node"`
	Clear bool                   `json:"clear,omitempty"`
	Spec  faultinject.InjectSpec `json:"spec,omitempty"`
}

type faultSchedule struct {
	Steps []faultStep `json:"steps"`
}

func readFaultSchedule(path string) (*faultSchedule, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sched faultSchedule
	if err := json.Unmarshal(data, &sched); err != nil {
		return nil, fmt.Errorf("lsiload: bad fault schedule %s: %v", path, err)
	}
	if len(sched.Steps) == 0 {
		return nil, fmt.Errorf("lsiload: fault schedule %s has no steps", path)
	}
	sort.SliceStable(sched.Steps, func(i, j int) bool { return sched.Steps[i].AtMS < sched.Steps[j].AtMS })
	for i, s := range sched.Steps {
		if s.Node == "" {
			return nil, fmt.Errorf("lsiload: fault step %d names no node", i)
		}
	}
	return &sched, nil
}

// applyFaultStep drives one node's /debug/faults admin endpoint.
func applyFaultStep(ctx context.Context, client *http.Client, step faultStep) error {
	url := strings.TrimRight(step.Node, "/") + "/debug/faults"
	var req *http.Request
	var err error
	if step.Clear {
		req, err = http.NewRequestWithContext(ctx, http.MethodDelete, url, nil)
	} else {
		body, _ := json.Marshal(step.Spec)
		req, err = http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
		if req != nil {
			req.Header.Set("Content-Type", "application/json")
		}
	}
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode >= 300 {
		return fmt.Errorf("%s %s: status %d (is the node running lsiserve -chaos?)", req.Method, url, resp.StatusCode)
	}
	return nil
}

// runFaultSchedule fires each step at its offset from begin until ctx
// ends. Failures to reach an admin endpoint are reported, not fatal —
// the invariant gate at the end is what fails the run.
func runFaultSchedule(ctx context.Context, client *http.Client, sched *faultSchedule, begin time.Time, stderr io.Writer) {
	for _, step := range sched.Steps {
		wait := time.Until(begin.Add(time.Duration(step.AtMS) * time.Millisecond))
		if wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
				return
			}
		}
		if err := applyFaultStep(ctx, client, step); err != nil {
			fmt.Fprintf(stderr, "lsiload: fault step at %dms: %v\n", step.AtMS, err)
			continue
		}
		what := "spec installed"
		if step.Clear {
			what = "cleared"
		}
		fmt.Fprintf(stderr, "lsiload: fault step at %dms: %s on %s\n", step.AtMS, what, step.Node)
	}
}

// clearAllFaults disarms every node the schedule touched, so a crashed
// or interrupted run does not leave a bench flapping.
func clearAllFaults(client *http.Client, sched *faultSchedule, stderr io.Writer) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	seen := map[string]bool{}
	for _, step := range sched.Steps {
		if seen[step.Node] {
			continue
		}
		seen[step.Node] = true
		if err := applyFaultStep(ctx, client, faultStep{Node: step.Node, Clear: true}); err != nil {
			fmt.Fprintf(stderr, "lsiload: clearing faults on %s: %v\n", step.Node, err)
		}
	}
}

// fetchNumDocs reads the target's document count from /v1/stats,
// retrying briefly (the post-run probe can race the last fault clear).
func fetchNumDocs(base string, client *http.Client) (int, error) {
	var lastErr error
	for attempt := 0; attempt < 5; attempt++ {
		if attempt > 0 {
			time.Sleep(200 * time.Millisecond)
		}
		resp, err := client.Get(base + "/v1/stats")
		if err != nil {
			lastErr = err
			continue
		}
		var body struct {
			NumDocs *int `json:"numDocs"`
		}
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil || body.NumDocs == nil {
			lastErr = fmt.Errorf("%s/v1/stats: no numDocs in response (err=%v)", base, err)
			continue
		}
		return *body.NumDocs, nil
	}
	return 0, lastErr
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		return err
	}
	queries := defaultQueries()
	if cfg.queriesFile != "" {
		if queries, err = readQueries(cfg.queriesFile); err != nil {
			return err
		}
	}
	if len(queries) == 0 {
		return fmt.Errorf("lsiload: empty query set")
	}

	col := &collector{latency: metrics.NewHistogram(metrics.DefLatencyBuckets)}
	if cfg.trace == "ann" {
		col.annLatency = make(map[int]*metrics.Histogram, len(cfg.nprobeSweep))
		for _, np := range cfg.nprobeSweep {
			if col.annLatency[np] == nil {
				col.annLatency[np] = metrics.NewHistogram(metrics.DefLatencyBuckets)
			}
		}
	}
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        cfg.concurrency,
		MaxIdleConnsPerHost: cfg.concurrency,
	}}
	var sched *faultSchedule
	baseDocs := 0
	if cfg.faultsFile != "" {
		if sched, err = readFaultSchedule(cfg.faultsFile); err != nil {
			return err
		}
		// The acked-write ledger starts from the target's pre-run count.
		if baseDocs, err = fetchNumDocs(cfg.addrs[0], client); err != nil {
			return fmt.Errorf("lsiload: pre-run document count: %w", err)
		}
	}
	// Workers stop STARTING requests at cfg.duration (they watch the
	// clock themselves); the context leaves a drain grace on top so the
	// last in-flight requests resolve — by response or by their own
	// -deadline — instead of being canceled mid-flight with the ack
	// undelivered.
	grace := cfg.deadline
	if grace <= 0 {
		grace = 5 * time.Second
	}
	runCtx, cancel := context.WithTimeout(ctx, cfg.duration+grace)
	defer cancel()
	begin := time.Now()
	if sched != nil {
		go runFaultSchedule(runCtx, client, sched, begin, stderr)
	}
	var wg sync.WaitGroup
	for i := 0; i < cfg.concurrency; i++ {
		rng := rand.New(rand.NewSource(cfg.seed + int64(i)))
		w := &worker{
			cfg: cfg, client: client, queries: queries, col: col,
			rng:   rng,
			zipf:  rand.NewZipf(rng, cfg.zipfS, 1, uint64(len(queries)-1)),
			begin: begin,
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.run(runCtx)
		}()
	}
	wg.Wait()
	elapsed := time.Since(begin)
	if sched != nil {
		clearAllFaults(client, sched, stderr)
	}

	ok, shed, failed := col.ok.Load(), col.shed.Load(), col.failed.Load()
	total := ok + shed + failed
	s := Summary{
		Trace:       cfg.trace,
		DurationS:   elapsed.Seconds(),
		Concurrency: cfg.concurrency,
		Requests:    total,
		OK:          ok,
		Shed:        shed,
		Failed:      failed,
		MeanNs:      mean(col) * 1e9,
		P50Ns:       col.latency.Quantile(0.50) * 1e9,
		P99Ns:       col.latency.Quantile(0.99) * 1e9,
		P999Ns:      col.latency.Quantile(0.999) * 1e9,
	}
	if total > 0 {
		s.QPS = float64(total) / elapsed.Seconds()
		s.ErrorRate = float64(failed) / float64(total)
		s.ShedRate = float64(shed) / float64(total)
	}
	if sched != nil {
		s.FaultSteps = len(sched.Steps)
		s.Stuck = col.stuck.Load()
		s.Partials = col.partials.Load()
		s.AckedDocs = col.acked.Load()
	}
	if cfg.trace == "ann" {
		seen := map[int]bool{}
		for _, np := range cfg.nprobeSweep {
			if seen[np] {
				continue
			}
			seen[np] = true
			h := col.annLatency[np]
			s.ANNSweep = append(s.ANNSweep, ANNBucket{
				NProbe:   np,
				Requests: int64(h.Count()),
				P50Ns:    h.Quantile(0.50) * 1e9,
				P99Ns:    h.Quantile(0.99) * 1e9,
			})
		}
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s); err != nil {
		return err
	}

	// The chaos gate: under -faults the run itself passes judgment, so
	// CI can assert "survived the schedule" with a plain exit status.
	if sched != nil {
		var violations []string
		if s.Stuck > 0 {
			violations = append(violations, fmt.Sprintf("%d requests stuck past the %v deadline", s.Stuck, cfg.deadline))
		}
		finalDocs, err := fetchNumDocs(cfg.addrs[0], client)
		if err != nil {
			violations = append(violations, fmt.Sprintf("post-run document count unreadable: %v", err))
		} else if int64(finalDocs) != int64(baseDocs)+s.AckedDocs {
			violations = append(violations, fmt.Sprintf(
				"acked-write ledger mismatch: started at %d docs, acked %d appends, target reports %d",
				baseDocs, s.AckedDocs, finalDocs))
		}
		if len(violations) > 0 {
			return fmt.Errorf("invariant violations under faults:\n  - %s", strings.Join(violations, "\n  - "))
		}
		fmt.Fprintf(stderr, "lsiload: fault invariants held: %d steps, %d stuck, ledger %d+%d docs verified\n",
			s.FaultSteps, s.Stuck, baseDocs, s.AckedDocs)
	}
	return nil
}

func mean(c *collector) float64 {
	n := c.latency.Count()
	if n == 0 {
		return 0
	}
	return c.latency.Sum() / float64(n)
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintf(os.Stderr, "lsiload: %v\n", err)
		os.Exit(1)
	}
}
