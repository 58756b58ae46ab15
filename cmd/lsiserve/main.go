// Command lsiserve is the HTTP/JSON retrieval daemon: it builds (or
// loads) an index through the public retrieval package and serves it via
// the retrieval/httpapi endpoints:
//
//	POST /v1/search        one query (text or raw vector)
//	POST /v1/search:batch  many queries in one call
//	POST /v1/docs          live append (sharded indexes, -shards)
//	POST /v1/docs:batch    live append, batched
//	GET  /v1/stats         index description, segment/compaction stats
//	GET  /v1/replicate/*   replication pull endpoints (serving from an
//	                       index directory; see retrieval/httpapi)
//	GET  /metrics          Prometheus text exposition (see OPERATIONS.md)
//	GET  /healthz          liveness probe
//	GET  /readyz           readiness probe (503 while compaction is owed)
//	GET  /debug/pprof/*    runtime profiles (only with -pprof)
//	*    /debug/faults     chaos fault-script admin (only with -chaos)
//
// Usage:
//
//	lsiserve [-addr :8080] [-k 0] [-backend lsi] [-weighting log] [-shards 0] [-cache-mb 64] [file1.txt ...]
//	lsiserve -index saved.idx       # single-stream index file
//	lsiserve -index saved-dir/      # sharded index directory
//	lsiserve -index dir/ -wal-dir wal/ [-checkpoint-every 30s]   # durable cluster node
//	lsiserve -save-cluster out/ -shards 3 [file1.txt ...]        # export per-shard node dirs
//	lsiserve -cluster manifest.json                              # cluster router
//	lsiserve -replica-of http://primary:8080 [-data-dir dir]     # catch-up replica
//
// The last four forms are the distributed tier (retrieval/cluster):
// -save-cluster exports each shard of a sharded index as a standalone
// 1-shard node directory and exits; a node serves one such directory
// with a write-ahead log (-wal-dir) so acked appends survive SIGKILL,
// checkpointing back into its -index directory every -checkpoint-every
// when documents arrived; -cluster serves the routing tier over the
// nodes in a manifest file (SIGHUP re-reads it — the version must
// strictly increase); -replica-of mirrors a node by snapshot pull +
// WAL tail and serves read traffic for it.
//
// Each file argument is one document; with no files (and no -index) the
// built-in demo corpus is served, which is what the CI smoke test and
// the quickstart curl examples use. With -shards N the daemon serves a
// sharded live index that accepts POST /v1/docs appends; a sharded
// index saved with SaveDir is served by pointing -index at its
// directory. Repeated queries are answered from an epoch-keyed result
// cache (-cache-mb, default 64 MiB, 0 disables; the Cache-Status
// response header and /v1/stats expose its behavior) that live appends
// and compactions invalidate instantly.
//
// -backend vsm serves the vector-space baseline instead (see
// retrieval.BuildVSM): read-only and uncached, so it refuses -shards, the
// tier flags, -cache-mb, -wal-dir, -checkpoint-every and -save-cluster.
//
// -ann-nlist N trains an IVF ANN tier over the LSI space (see
// retrieval.WithANN): searches score only the -ann-nprobe cells nearest
// the query instead of scanning every document, and requests may
// override the budget per call with the "nprobe" body field. Both flags
// are runtime knobs like -cache-mb — they apply to prebuilt -index
// loads too (sharded directories reuse their persisted ann-*.ivf
// quantizer sidecars). The /v1/stats "ann" block and the lsi_ann_*
// metrics expose the tier's probe behavior.
//
// -quant-beta B enables the quantized scoring tier (see
// retrieval.WithQuantized): searches scan an int8 shadow of the document
// matrix (~4x smaller, memory-bandwidth-optimal) and exact-rerank the
// topN*B best candidates, so every served score is still a true float64
// cosine. Also a runtime knob: prebuilt -index loads reuse persisted
// quant-*.qnt sidecars or rebuild the shadow in place. The "nprobe":0
// request override stays the fully exact escape hatch. The /v1/stats
// "quant" block and the lsi_quant_* metrics expose the tier's scan
// behavior.
//
// Under overload the daemon sheds rather than collapses: at most
// -max-inflight search/docs requests execute concurrently, up to
// -max-queue more wait, and the rest are answered 429 with Retry-After;
// ingest is shed 503 + Retry-After while compaction debt exceeds
// -max-debt.
// Every request is measured on GET /metrics, -access-log adds a
// structured JSON line per request, and -pprof mounts the runtime
// profilers. The daemon shuts down gracefully on SIGINT/SIGTERM,
// draining in-flight replication downloads and WAL tails, then ordinary
// requests, within -drain-timeout, and stopping the background
// compactor.
//
// -chaos arms the fault injector (internal/faultinject): POST an
// InjectSpec to /debug/faults to script per-class latency, error rates,
// and connection drops; /debug/faults and /metrics are mounted outside
// the injected path so a drop-everything fault cannot lock the operator
// out. In router mode, -probe-every runs background /readyz probes over
// the manifest nodes to feed outlier ejection. lsiload -faults drives
// this endpoint on a timed schedule; see the chaos suite in
// retrieval/cluster and scripts/chaos_smoke.sh.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"repro/internal/faultinject"
	"repro/internal/metrics"
	"repro/retrieval"
	"repro/retrieval/cluster"
	"repro/retrieval/httpapi"
)

type serveConfig struct {
	addr        string
	indexPath   string
	rank        int
	backend     string
	weighting   string
	shards      int
	cacheMB     int
	annNList    int
	annNProbe   int
	quantBeta   int
	timeout     time.Duration
	maxTopN     int
	maxInFlight int
	maxQueue    int
	maxDebt     int
	pprof       bool
	accessLog   bool
	files       []string

	// Distributed tier (retrieval/cluster).
	clusterPath     string
	replicaOf       string
	dataDir         string
	walDir          string
	checkpointEvery time.Duration
	saveCluster     string
	probeEvery      time.Duration
	breakerOpenFor  time.Duration

	// Resilience and chaos.
	chaos        bool
	drainTimeout time.Duration
}

func parseFlags(args []string, stderr io.Writer) (serveConfig, error) {
	cfg := serveConfig{}
	fs := flag.NewFlagSet("lsiserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.addr, "addr", ":8080", "listen address (host:port; port 0 picks a free port)")
	fs.StringVar(&cfg.indexPath, "index", "", "serve a saved index instead of building one")
	fs.IntVar(&cfg.rank, "k", 0, "LSI rank (0 = auto)")
	fs.StringVar(&cfg.backend, "backend", "lsi", "retrieval backend: lsi, or vsm for the read-only, uncached vector-space baseline")
	fs.StringVar(&cfg.weighting, "weighting", "log", "term weighting: count, binary, log, or tfidf")
	fs.IntVar(&cfg.shards, "shards", 0, "serve a sharded live index over N shards (accepts POST /v1/docs; 0 = single immutable index)")
	fs.IntVar(&cfg.cacheMB, "cache-mb", 64, "query result cache budget in MiB (0 disables; epoch-keyed, so live appends/compactions invalidate instantly)")
	fs.IntVar(&cfg.annNList, "ann-nlist", 0, "train an IVF ANN tier with this many k-means cells over the LSI space (0 disables; requires -backend lsi)")
	fs.IntVar(&cfg.annNProbe, "ann-nprobe", 0, "default ANN probe budget: cells scored per search (0 = exhaustive default; requests override via \"nprobe\")")
	fs.IntVar(&cfg.quantBeta, "quant-beta", 0, "quantized scoring tier: int8 scan selects topN*beta candidates for exact rerank (0 disables; requires -backend lsi)")
	fs.DurationVar(&cfg.timeout, "timeout", 10*time.Second, "per-request search timeout")
	fs.IntVar(&cfg.maxTopN, "top-max", 100, "cap on per-query result count")
	fs.IntVar(&cfg.maxInFlight, "max-inflight", 256, "max concurrently executing search/docs requests; excess requests queue, then shed with 429 (0 = unlimited)")
	fs.IntVar(&cfg.maxQueue, "max-queue", 0, "max requests waiting for an in-flight slot before shedding (0 = 4x max-inflight)")
	fs.IntVar(&cfg.maxDebt, "max-debt", 8, "shed ingest (POST /v1/docs) with 503 while more than this many sealed segments await compaction (0 = never)")
	fs.BoolVar(&cfg.pprof, "pprof", false, "mount /debug/pprof/ profiling endpoints (do not expose to untrusted networks)")
	fs.BoolVar(&cfg.accessLog, "access-log", false, "emit one structured JSON log line per request on stderr")
	fs.StringVar(&cfg.clusterPath, "cluster", "", "serve as the routing tier over the cluster manifest at this path (SIGHUP reloads)")
	fs.StringVar(&cfg.replicaOf, "replica-of", "", "serve as a catch-up replica of the node at this base URL")
	fs.StringVar(&cfg.dataDir, "data-dir", "", "local snapshot directory for -replica-of (default: a fresh temp dir)")
	fs.StringVar(&cfg.walDir, "wal-dir", "", "attach a write-ahead log in this directory: appends are fsync'd before they are acked and replayed on boot (sharded indexes)")
	fs.DurationVar(&cfg.checkpointEvery, "checkpoint-every", 0, "checkpoint the index into its -index directory at this cadence when documents arrived, rotating the WAL (0 = never; requires -wal-dir and -index DIR)")
	fs.StringVar(&cfg.saveCluster, "save-cluster", "", "export each shard as a standalone node directory under this path and exit (requires a sharded index)")
	fs.DurationVar(&cfg.probeEvery, "probe-every", 2*time.Second, "router mode: probe every node's /readyz at this cadence to feed outlier ejection (0 disables)")
	fs.DurationVar(&cfg.breakerOpenFor, "breaker-open-for", 0, "router mode: cooldown before an open per-node circuit breaker admits its half-open probe (0 = the cluster default, 5s)")
	fs.BoolVar(&cfg.chaos, "chaos", false, "arm the fault injector: /debug/faults scripts server-side latency/errors/drops per request class (never expose outside a test bench)")
	fs.DurationVar(&cfg.drainTimeout, "drain-timeout", 10*time.Second, "graceful-shutdown budget for draining in-flight requests, replication downloads, and WAL tails")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	cfg.files = fs.Args()
	// given lists, as "-name", which of names were set explicitly.
	given := func(names ...string) []string {
		var set []string
		fs.Visit(func(f *flag.Flag) {
			if slices.Contains(names, f.Name) {
				set = append(set, "-"+f.Name)
			}
		})
		return set
	}
	// The three serving modes are exclusive, and the router/replica modes
	// build no index of their own — reject flags they would ignore.
	if cfg.clusterPath != "" || cfg.replicaOf != "" {
		if cfg.clusterPath != "" && cfg.replicaOf != "" {
			return cfg, fmt.Errorf("-cluster and -replica-of are exclusive serving modes")
		}
		mode := "-cluster"
		if cfg.replicaOf != "" {
			mode = "-replica-of"
		}
		conflicts := given("k", "backend", "weighting", "shards", "index", "wal-dir", "checkpoint-every", "save-cluster",
			"ann-nlist", "ann-nprobe", "quant-beta", "cache-mb")
		if cfg.replicaOf == "" {
			conflicts = append(conflicts, given("data-dir")...)
		}
		if len(cfg.files) > 0 {
			conflicts = append(conflicts, "file arguments")
		}
		if len(conflicts) > 0 {
			return cfg, fmt.Errorf("%s serves no local index; %s cannot apply", mode, strings.Join(conflicts, ", "))
		}
	}
	if cfg.checkpointEvery > 0 && cfg.walDir == "" {
		return cfg, fmt.Errorf("-checkpoint-every needs -wal-dir: a checkpoint without a WAL rotation would not shorten replay")
	}
	if cfg.backend == "vsm" {
		if conflicts := given("shards", "ann-nlist", "ann-nprobe", "quant-beta", "cache-mb", "wal-dir", "checkpoint-every", "save-cluster"); len(conflicts) > 0 {
			return cfg, fmt.Errorf("-backend vsm serves a read-only, uncached index; %s cannot apply", strings.Join(conflicts, ", "))
		}
	}
	// A saved index fixes its backend, rank, and weighting at build time;
	// refuse invocations that would silently discard build flags or files.
	if cfg.indexPath != "" {
		conflicts := given("k", "backend", "weighting", "shards")
		if len(cfg.files) > 0 {
			conflicts = append(conflicts, "file arguments")
		}
		if len(conflicts) > 0 {
			return cfg, fmt.Errorf("-index serves a prebuilt index; %s cannot apply (rebuild and re-save instead)",
				strings.Join(conflicts, ", "))
		}
	}
	return cfg, nil
}

// buildInput is what the build flags ask for: the weighting, and the
// documents (one per file argument, or the demo corpus).
func buildInput(cfg serveConfig) ([]retrieval.Document, retrieval.Weighting, error) {
	weighting, err := retrieval.ParseWeighting(cfg.weighting)
	if err != nil {
		return nil, 0, err
	}
	if len(cfg.files) == 0 {
		return retrieval.DemoCorpus(), weighting, nil
	}
	docs, err := retrieval.ReadFiles(cfg.files)
	return docs, weighting, err
}

// newRetriever builds or loads the LSI index the daemon serves (run
// serves -backend vsm before it gets here).
func newRetriever(cfg serveConfig) (*retrieval.Index, error) {
	cacheOpt := retrieval.WithQueryCache(int64(cfg.cacheMB) << 20)
	annOpt := retrieval.WithANN(cfg.annNList, cfg.annNProbe)
	quantOpt := retrieval.WithQuantized(cfg.quantBeta)
	if cfg.indexPath != "" {
		// Open handles both forms: a directory is a sharded index, a
		// file a single-stream one. The cache, the ANN tier, and the
		// quantized tier are runtime knobs, so they apply to prebuilt
		// indexes too (sharded directories load their ann-*.ivf and
		// quant-*.qnt sidecars; missing ones are rebuilt in place when
		// -ann-nlist or -quant-beta asks for them).
		return retrieval.Open(cfg.indexPath, cacheOpt, annOpt, quantOpt)
	}
	if cfg.backend != "lsi" {
		return nil, fmt.Errorf("unknown backend %q (want lsi or vsm)", cfg.backend)
	}
	docs, weighting, err := buildInput(cfg)
	if err != nil {
		return nil, err
	}
	opts := []retrieval.Option{
		retrieval.WithRank(cfg.rank),
		retrieval.WithWeighting(weighting),
		cacheOpt,
		annOpt,
		quantOpt,
	}
	if cfg.shards > 0 {
		opts = append(opts, retrieval.WithShards(cfg.shards))
	}
	return retrieval.Build(docs, opts...)
}

// serve runs the daemon on ln until ctx is canceled, then drains for up
// to shutdownTimeout: first the replication tier (in-flight snapshot
// downloads and WAL tails stop admitting and run to completion), then
// the HTTP server's ordinary in-flight requests. It reports the bound
// address on out before accepting traffic (the smoke script and the e2e
// test parse that line).
func serve(ctx context.Context, ln net.Listener, handler http.Handler, api *httpapi.Handler, shutdownTimeout time.Duration, out io.Writer) error {
	srv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	fmt.Fprintf(out, "lsiserve: listening on http://%s\n", ln.Addr())
	select {
	case err := <-errc:
		return err // listener failed before shutdown was requested
	case <-ctx.Done():
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	// Drain replication before closing the listener: a replica that is
	// mid-download finishes intact, new pulls are shed 503 + Retry-After
	// and fail over; killing the listener first would tear both.
	if api != nil {
		if err := api.DrainReplication(shutdownCtx); err != nil {
			fmt.Fprintf(out, "lsiserve: replication drain incomplete: %v\n", err)
		}
	}
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("lsiserve: shutdown: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// mountChaos arms the -chaos fault injector in front of h. The admin
// endpoint and the metrics exposition are mounted OUTSIDE the wrapped
// handler: a drop-everything fault must not lock the operator out of
// /debug/faults or blind the dashboards watching the incident.
func mountChaos(in *faultinject.Injector, h http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/debug/faults", in.AdminHandler())
	mux.Handle("/metrics", h)
	mux.Handle("/", in.Wrap(h))
	return mux
}

// chaosWrap applies -chaos to a serving handler (transparent when the
// flag is off).
func chaosWrap(cfg serveConfig, h http.Handler) http.Handler {
	if !cfg.chaos {
		return h
	}
	return mountChaos(&faultinject.Injector{}, h)
}

// listen serves ret on cfg.addr through the HTTP API (see serve).
func listen(ctx context.Context, cfg serveConfig, ret retrieval.Retriever, opts httpapi.Options, stdout io.Writer) error {
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	api := httpapi.NewHandler(ret, opts)
	return serve(ctx, ln, chaosWrap(cfg, api), api, cfg.drainTimeout, stdout)
}

// announce prints the boot line: what is served, and which tiers are on.
func announce(w io.Writer, stats retrieval.Stats) {
	fmt.Fprintf(w, "lsiserve: %s index, %d documents, %d terms", stats.Backend, stats.NumDocs, stats.NumTerms)
	if stats.Rank > 0 {
		fmt.Fprintf(w, ", rank %d", stats.Rank)
	}
	if stats.Sharded {
		fmt.Fprintf(w, ", %d shards (live: POST /v1/docs enabled)", stats.Shards)
	}
	if stats.Cache != nil {
		fmt.Fprintf(w, ", query cache %d MiB", stats.Cache.CapBytes>>20)
	}
	if stats.ANN != nil {
		fmt.Fprintf(w, ", ann nlist=%d nprobe=%d", stats.ANN.NList, stats.ANN.NProbe)
	}
	if stats.Quant != nil {
		fmt.Fprintf(w, ", quant beta=%d", stats.Quant.Beta)
	}
	fmt.Fprintln(w)
}

// serveOptions translates the shared flag block into handler options.
func serveOptions(cfg serveConfig, stderr io.Writer) httpapi.Options {
	opts := httpapi.Options{
		Timeout:           cfg.timeout,
		MaxTopN:           cfg.maxTopN,
		MaxInFlight:       cfg.maxInFlight,
		MaxQueue:          cfg.maxQueue,
		MaxCompactionDebt: cfg.maxDebt,
		EnablePprof:       cfg.pprof,
	}
	if cfg.accessLog {
		opts.AccessLog = slog.New(slog.NewJSONHandler(stderr, nil))
	}
	return opts
}

// runRouter serves the cluster routing tier over the manifest at
// cfg.clusterPath. SIGHUP re-reads the manifest; a reload only takes
// effect when its version strictly increases and the shard count is
// unchanged, so a stale or truncated file can never regress the
// topology.
func runRouter(ctx context.Context, cfg serveConfig, stdout, stderr io.Writer) error {
	man, err := cluster.LoadManifest(cfg.clusterPath)
	if err != nil {
		return err
	}
	router, err := cluster.NewRouter(man, cluster.RouterOptions{
		NodeTimeout:   cfg.timeout,
		ProbeInterval: cfg.probeEvery,
		Breaker:       cluster.BreakerOptions{OpenFor: cfg.breakerOpenFor},
	})
	if err != nil {
		return err
	}
	reg := metrics.NewRegistry()
	router.RegisterMetrics(reg)
	if cfg.probeEvery > 0 {
		go router.RunProbes(ctx)
	}
	if err := router.Sync(ctx); err != nil {
		// The router can serve reads without a synced write path; ingest
		// stays frozen until a later Sync (a SIGHUP reload retries).
		fmt.Fprintf(stderr, "lsiserve: WARNING: cluster sync failed, ingest frozen: %v\n", err)
	}
	fmt.Fprintf(stdout, "lsiserve: cluster router, manifest v%d, %d shards over %d nodes, %d documents (SIGHUP reloads %s)\n",
		man.Version, man.Shards, len(man.Nodes), router.NumDocs(), cfg.clusterPath)
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	go func() {
		for {
			select {
			case <-ctx.Done():
				return
			case <-hup:
				m, err := cluster.LoadManifest(cfg.clusterPath)
				if err == nil {
					err = router.Reload(m)
				}
				if err != nil {
					fmt.Fprintf(stderr, "lsiserve: manifest reload rejected: %v\n", err)
					continue
				}
				if err := router.Sync(ctx); err != nil {
					fmt.Fprintf(stderr, "lsiserve: WARNING: cluster sync failed, ingest frozen: %v\n", err)
				}
				fmt.Fprintf(stderr, "lsiserve: manifest reloaded, now v%d over %d nodes\n", m.Version, len(m.Nodes))
			}
		}
	}()
	opts := serveOptions(cfg, stderr)
	opts.Metrics = reg
	return listen(ctx, cfg, router, opts, stdout)
}

// runReplica bootstraps a replica from its primary, keeps it caught up
// in the background, and serves read traffic from the local snapshot.
func runReplica(ctx context.Context, cfg serveConfig, stdout, stderr io.Writer) error {
	dir := cfg.dataDir
	if dir == "" {
		var err error
		if dir, err = os.MkdirTemp("", "lsireplica-*"); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "lsiserve: no -data-dir given, snapshots go to %s\n", dir)
	}
	rep := cluster.NewReplica(cfg.replicaOf, dir, cluster.ReplicaOptions{NodeTimeout: cfg.timeout})
	if err := rep.Bootstrap(ctx); err != nil {
		return fmt.Errorf("replica bootstrap from %s: %w", cfg.replicaOf, err)
	}
	reg := metrics.NewRegistry()
	rep.RegisterMetrics(reg)
	go rep.Run(ctx)
	fmt.Fprintf(stdout, "lsiserve: replica of %s, %d documents at generation %d\n",
		cfg.replicaOf, rep.NumDocs(), rep.Generation())
	opts := serveOptions(cfg, stderr)
	opts.Metrics = reg
	return listen(ctx, cfg, rep, opts, stdout)
}

// checkpointLoop folds WAL'd appends back into the index directory at a
// fixed cadence, but only when documents actually arrived — an idle
// node never churns its segment files.
func checkpointLoop(ctx context.Context, ix *retrieval.Index, dir string, every time.Duration, stderr io.Writer) {
	t := time.NewTicker(every)
	defer t.Stop()
	last := ix.NumDocs()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			n := ix.NumDocs()
			if n == last {
				continue
			}
			if err := ix.Checkpoint(dir); err != nil {
				fmt.Fprintf(stderr, "lsiserve: checkpoint: %v\n", err)
				continue
			}
			last = n
		}
	}
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		return err
	}
	if cfg.clusterPath != "" {
		return runRouter(ctx, cfg, stdout, stderr)
	}
	if cfg.replicaOf != "" {
		return runReplica(ctx, cfg, stdout, stderr)
	}
	if cfg.backend == "vsm" {
		docs, weighting, err := buildInput(cfg)
		if err != nil {
			return err
		}
		ret, err := retrieval.BuildVSM(docs, retrieval.WithWeighting(weighting))
		if err != nil {
			return err
		}
		announce(stdout, ret.Stats())
		return listen(ctx, cfg, ret, serveOptions(cfg, stderr), stdout)
	}
	ret, err := newRetriever(cfg)
	if err != nil {
		return err
	}
	defer ret.Close() // stops the sharded compactor; no-op otherwise
	if cfg.saveCluster != "" {
		if err := ret.SaveShardDirs(cfg.saveCluster); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "lsiserve: exported %d node directories under %s\n", ret.NumShards(), cfg.saveCluster)
		return nil
	}
	stats := ret.Stats()
	announce(stdout, stats)
	if !stats.TextQueries {
		// A v1-format file carries no vocabulary: the daemon can answer
		// vector queries but every text search will 400. Say so at boot
		// instead of looking healthy and failing per request.
		fmt.Fprintln(stderr, "lsiserve: WARNING: index has no vocabulary (v1 format?); text queries will fail — re-save it with a current build to upgrade")
	}
	opts := serveOptions(cfg, stderr)
	if cfg.walDir != "" {
		replayed, err := ret.AttachWAL(cfg.walDir)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "lsiserve: wal attached (%s), %d documents replayed\n", cfg.walDir, replayed)
	}
	if cfg.indexPath != "" {
		if st, err := os.Stat(cfg.indexPath); err == nil && st.IsDir() {
			// Serving from an index directory makes this process a valid
			// replication primary: replicas pull the checkpoint files and
			// tail the WAL.
			opts.ReplicateDir = cfg.indexPath
		}
	}
	if cfg.checkpointEvery > 0 {
		if opts.ReplicateDir == "" {
			return fmt.Errorf("-checkpoint-every needs -index pointing at an index directory to checkpoint into")
		}
		go checkpointLoop(ctx, ret, cfg.indexPath, cfg.checkpointEvery, stderr)
	}
	return listen(ctx, cfg, ret, opts, stdout)
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintf(os.Stderr, "lsiserve: %v\n", err)
		os.Exit(1)
	}
}
