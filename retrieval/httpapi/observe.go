package httpapi

// Observability and admission control: the middleware every route runs
// through. Three concerns live here, in request order:
//
//  1. Admission gate — a concurrency limit (Options.MaxInFlight) with a
//     bounded wait queue (Options.MaxQueue). A request that finds the
//     limit reached and the queue full is shed immediately with
//     429 + Retry-After instead of piling onto a saturated backend;
//     ingest routes are additionally shed with 503 + Retry-After while
//     the index's compaction debt exceeds Options.MaxCompactionDebt
//     (503, not 429: the client did nothing wrong — the server owes
//     background work). Probe and scrape routes (/healthz, /readyz,
//     /metrics, pprof) never queue and are never shed — an overloaded
//     server must stay observable.
//  2. Instrumentation — per-route latency histograms, request counters
//     by status code, in-flight/queued gauges, and shed counters, all
//     registered on the handler's metrics.Registry and served by
//     GET /metrics in the Prometheus text format, alongside collectors
//     for the index itself (documents, memory, cache counters, and the
//     live-index segment/compaction/freshness gauges).
//  3. Access logs — one structured (slog) line per request when
//     Options.AccessLog is set.
//
// The shed path is deliberately cheap: no body read, no backend work,
// one counter increment — the property the degradation tests pin
// (during overload, accepted requests stay correct and shed requests
// cost almost nothing).

import (
	"context"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/blob"
	"repro/internal/metrics"
	"repro/retrieval"
	"repro/retrieval/shard"
)

// gateClass says how the admission gate treats a route.
type gateClass int

const (
	// gateNone: never queued, never shed (probes, scrapes, pprof).
	gateNone gateClass = iota
	// gateQuery: bounded by the concurrency limit + queue.
	gateQuery
	// gateIngest: bounded like gateQuery, and additionally shed while
	// compaction debt exceeds the budget.
	gateIngest
)

// gate is the admission controller: a counting semaphore of in-flight
// slots plus a bounded count of waiters. nil means admission is
// unlimited (Options.MaxInFlight <= 0).
type gate struct {
	sem      chan struct{}
	queued   atomic.Int64
	maxQueue int64
}

func newGate(maxInFlight, maxQueue int) *gate {
	if maxInFlight <= 0 {
		return nil
	}
	return &gate{sem: make(chan struct{}, maxInFlight), maxQueue: int64(maxQueue)}
}

// acquire claims an in-flight slot, waiting in the bounded queue if the
// limit is reached. ok=false means the request must be shed: the queue
// was full, or the caller's context ended while waiting.
func (g *gate) acquire(ctx context.Context) (ok bool) {
	select {
	case g.sem <- struct{}{}:
		return true
	default:
	}
	if g.queued.Add(1) > g.maxQueue {
		g.queued.Add(-1)
		return false
	}
	defer g.queued.Add(-1)
	select {
	case g.sem <- struct{}{}:
		return true
	case <-ctx.Done():
		return false
	}
}

func (g *gate) release() { <-g.sem }

// observer owns the handler's metric series. It is always present —
// instrumentation is not optional — but costs two atomic adds and a
// histogram observe per request.
type observer struct {
	reg      *metrics.Registry
	latency  map[string]*metrics.Histogram // by route
	inflight *metrics.Gauge

	// stats is the retriever's Stats snapshot every index series reads:
	// scrape takes one per /metrics request.
	ret     retrieval.Retriever
	scrapes sync.Mutex
	stats   atomic.Pointer[retrieval.Stats]

	mu       sync.Mutex
	requests map[string]*metrics.Counter // by route \x00 code
	shed     map[string]*metrics.Counter // by route \x00 reason
}

// routes is the fixed route-label vocabulary; latency histograms are
// pre-registered for each so scrapes show every route from the first
// response.
var routes = []string{"search", "search_batch", "docs", "docs_batch", "stats", "healthz", "readyz", "metrics",
	"replicate_checkpoint", "replicate_wal"}

// newObserver registers the handler's own series plus the index-level
// collectors on reg (a fresh registry when nil). One handler per
// registry: series names would collide otherwise.
func newObserver(reg *metrics.Registry, ret retrieval.Retriever) *observer {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	o := &observer{
		reg:      reg,
		latency:  make(map[string]*metrics.Histogram, len(routes)),
		requests: make(map[string]*metrics.Counter),
		shed:     make(map[string]*metrics.Counter),
	}
	for _, route := range routes {
		o.latency[route] = reg.Histogram("lsi_http_request_duration_seconds",
			"Request latency by route, in seconds.", nil, metrics.Label{Name: "route", Value: route})
	}
	o.inflight = reg.Gauge("lsi_http_inflight_requests",
		"Requests currently executing (admitted past the gate).")

	o.ret = ret
	st := ret.Stats()
	o.stats.Store(&st)
	stat := func(pick func(*retrieval.Stats) float64) func() float64 {
		return func() float64 { return pick(o.stats.Load()) }
	}
	reg.GaugeFunc("lsi_index_docs", "Indexed documents.",
		stat(func(s *retrieval.Stats) float64 { return float64(s.NumDocs) }))
	reg.GaugeFunc("lsi_index_memory_bytes", "Estimated index heap footprint in bytes.",
		stat(func(s *retrieval.Stats) float64 { return float64(s.MemoryBytes) }))
	reg.GaugeFunc("lsi_index_mapped_bytes", "Bytes of index files served from read-only mappings (page cache, not heap); counted in lsi_index_memory_bytes too.",
		stat(func(s *retrieval.Stats) float64 { return float64(s.MappedBytes) }))
	reg.GaugeFunc("lsi_index_mappings", "Index-file mappings live in this process; above the served segment count, a replaced index has not been collected yet.",
		func() float64 { return float64(blob.LiveMappings()) })

	if st.Cache != nil {
		cached := func(pick func(*retrieval.QueryCacheStats) int64) func() float64 {
			return read(o, func(s *retrieval.Stats) *retrieval.QueryCacheStats { return s.Cache },
				func(c *retrieval.QueryCacheStats) float64 { return float64(pick(c)) })
		}
		reg.CounterFunc("lsi_cache_lookups_total", "Query-cache lookups by disposition.",
			cached(func(s *retrieval.QueryCacheStats) int64 { return s.Hits }),
			metrics.Label{Name: "result", Value: "hit"})
		reg.CounterFunc("lsi_cache_lookups_total", "Query-cache lookups by disposition.",
			cached(func(s *retrieval.QueryCacheStats) int64 { return s.Misses }),
			metrics.Label{Name: "result", Value: "miss"})
		reg.CounterFunc("lsi_cache_lookups_total", "Query-cache lookups by disposition.",
			cached(func(s *retrieval.QueryCacheStats) int64 { return s.Coalesced }),
			metrics.Label{Name: "result", Value: "coalesced"})
		reg.CounterFunc("lsi_cache_evictions_total", "Query-cache entries evicted by the total byte budget.",
			cached(func(s *retrieval.QueryCacheStats) int64 { return s.Evictions }))
		reg.CounterFunc("lsi_cache_probation_evictions_total", "Query-cache entries aged out of probation without a repeat (one-shot answers; normal turnover).",
			cached(func(s *retrieval.QueryCacheStats) int64 { return s.ProbationEvictions }))
		reg.CounterFunc("lsi_cache_retired_total", "Query-cache entries dropped at once because a lookup at a newer index epoch made them unreachable.",
			cached(func(s *retrieval.QueryCacheStats) int64 { return s.Retired }))
		reg.CounterFunc("lsi_cache_rejected_total", "Computed results not stored because the epoch moved mid-compute.",
			cached(func(s *retrieval.QueryCacheStats) int64 { return s.Rejected }))
		reg.GaugeFunc("lsi_cache_entries", "Query-cache resident entries.",
			cached(func(s *retrieval.QueryCacheStats) int64 { return int64(s.Entries) }))
		reg.GaugeFunc("lsi_cache_bytes", "Query-cache resident bytes (estimated).",
			cached(func(s *retrieval.QueryCacheStats) int64 { return s.Bytes }))
		reg.GaugeFunc("lsi_cache_probation_bytes", "Query-cache bytes held by entries not yet hit since stored (at most 1/64 of the budget plus one entry per shard).",
			cached(func(s *retrieval.QueryCacheStats) int64 { return s.ProbationBytes }))
		reg.GaugeFunc("lsi_cache_capacity_bytes", "Query-cache byte budget.",
			cached(func(s *retrieval.QueryCacheStats) int64 { return s.CapBytes }))
	}

	if st.ANN != nil {
		ann := func(pick func(*retrieval.ANNStats) int64) func() float64 {
			return read(o, func(s *retrieval.Stats) *retrieval.ANNStats { return s.ANN },
				func(a *retrieval.ANNStats) float64 { return float64(pick(a)) })
		}
		reg.GaugeFunc("lsi_ann_nprobe", "Configured default probe budget (0 = default searches scan exhaustively).",
			ann(func(s *retrieval.ANNStats) int64 { return int64(s.NProbe) }))
		reg.GaugeFunc("lsi_ann_nlist", "Configured IVF cell count per quantizer.",
			ann(func(s *retrieval.ANNStats) int64 { return int64(s.NList) }))
		reg.GaugeFunc("lsi_ann_segments", "Quantized segments serving cell-probe searches.",
			ann(func(s *retrieval.ANNStats) int64 { return int64(s.Segments) }))
		reg.GaugeFunc("lsi_ann_docs", "Documents covered by a quantizer (the sublinearly served corpus fraction).",
			ann(func(s *retrieval.ANNStats) int64 { return int64(s.Docs) }))
		reg.CounterFunc("lsi_ann_searches_total", "Searches that probed the ANN tier (exhaustive escapes excluded).",
			ann(func(s *retrieval.ANNStats) int64 { return s.Searches }))
		reg.CounterFunc("lsi_ann_cells_probed_total", "IVF cells probed across all ANN searches.",
			ann(func(s *retrieval.ANNStats) int64 { return s.CellsProbed }))
		reg.CounterFunc("lsi_ann_docs_scored_total", "Candidate documents scored across all ANN searches.",
			ann(func(s *retrieval.ANNStats) int64 { return s.DocsScored }))
	}

	if st.Quant != nil {
		qnt := func(pick func(*retrieval.QuantStats) int64) func() float64 {
			return read(o, func(s *retrieval.Stats) *retrieval.QuantStats { return s.Quant },
				func(q *retrieval.QuantStats) float64 { return float64(pick(q)) })
		}
		reg.GaugeFunc("lsi_quant_beta", "Configured rerank over-fetch factor (stage 1 selects topN*beta candidates).",
			qnt(func(s *retrieval.QuantStats) int64 { return int64(s.Beta) }))
		reg.GaugeFunc("lsi_quant_segments", "Segments carrying an int8 shadow of their document matrix.",
			qnt(func(s *retrieval.QuantStats) int64 { return int64(s.Segments) }))
		reg.GaugeFunc("lsi_quant_docs", "Documents covered by an int8 shadow (the bandwidth-optimally scored corpus fraction).",
			qnt(func(s *retrieval.QuantStats) int64 { return int64(s.Docs) }))
		reg.GaugeFunc("lsi_quant_bytes", "Heap footprint of the int8 shadows (codes + per-document scales).",
			qnt(func(s *retrieval.QuantStats) int64 { return s.Bytes }))
		reg.CounterFunc("lsi_quant_searches_total", "Searches that scored through the int8 tier (exact escapes excluded).",
			qnt(func(s *retrieval.QuantStats) int64 { return s.Searches }))
		reg.CounterFunc("lsi_quant_docs_scanned_total", "Documents scored through the int8 kernels across all quantized searches.",
			qnt(func(s *retrieval.QuantStats) int64 { return s.DocsScanned }))
		reg.CounterFunc("lsi_quant_docs_reranked_total", "Over-fetched candidates rescored with exact float kernels across all quantized searches.",
			qnt(func(s *retrieval.QuantStats) int64 { return s.DocsReranked }))
	}

	if st.PerShard != nil {
		// The live series, epoch and compaction counters included, exist
		// for a live index only (the router reports shards, not segments).
		reg.CounterFunc("lsi_index_epoch", "Index-wide mutation epoch (advances after every published ingest batch and compaction swap).",
			stat(func(s *retrieval.Stats) float64 { return float64(s.Epoch) }))
		reg.GaugeFunc("lsi_index_epoch_age_seconds", "Seconds since the last published mutation — the freshness signal of the epoch-keyed query cache.",
			stat(func(s *retrieval.Stats) float64 { return time.Since(s.LastMutation).Seconds() }))
		reg.CounterFunc("lsi_index_docs_ingested_total", "Documents accepted through live ingest since boot (rate() of this is the ingest rate).",
			stat(func(s *retrieval.Stats) float64 { return float64(s.DocsIngested) }))
		reg.CounterFunc("lsi_index_compactions_total", "Tiers the compactor merged since boot.",
			stat(func(s *retrieval.Stats) float64 { return float64(s.Compactions) }))
		reg.CounterFunc("lsi_index_compaction_failures_total", "Compaction passes that returned an error (the message is lastCompactionError in /v1/stats); the sealed segments keep serving and keep their debt.",
			stat(func(s *retrieval.Stats) float64 { return float64(s.CompactionFailures) }))
		reg.CounterFunc("lsi_index_sidecars_degraded_total", "Sidecar files (ann-*.ivf, quant-*.qnt) the open found missing or corrupt and treated as absent; the segment retrained the tier or serves by exact scan.",
			stat(func(s *retrieval.Stats) float64 { return float64(s.SidecarsDegraded) }))
		reg.GaugeFunc("lsi_index_compaction_debt", "Sealed segments waiting for the compactor (ingest is shed past the configured budget).",
			stat(func(s *retrieval.Stats) float64 { return float64(s.SealedPending) }))
		reg.GaugeFunc("lsi_index_compacting", "1 while a compaction pass is in flight.",
			stat(func(s *retrieval.Stats) float64 {
				if s.Compacting {
					return 1
				}
				return 0
			}))
		for sh := range st.PerShard {
			shardLbl := metrics.Label{Name: "shard", Value: strconv.Itoa(sh)}
			perShard := func(pick func(shard.ShardStat) int) func() float64 {
				return stat(func(s *retrieval.Stats) float64 {
					if sh >= len(s.PerShard) {
						return 0
					}
					return float64(pick(s.PerShard[sh]))
				})
			}
			reg.GaugeFunc("lsi_shard_segments", "Published segments per shard by lifecycle state.",
				perShard(func(s shard.ShardStat) int { return s.Live }),
				shardLbl, metrics.Label{Name: "state", Value: "live"})
			reg.GaugeFunc("lsi_shard_segments", "Published segments per shard by lifecycle state.",
				perShard(func(s shard.ShardStat) int { return s.SealedPending }),
				shardLbl, metrics.Label{Name: "state", Value: "sealed_pending"})
			reg.GaugeFunc("lsi_shard_segments", "Published segments per shard by lifecycle state.",
				perShard(func(s shard.ShardStat) int { return s.Compacted }),
				shardLbl, metrics.Label{Name: "state", Value: "compacted"})
			reg.GaugeFunc("lsi_shard_docs", "Documents per shard.",
				perShard(func(s shard.ShardStat) int { return s.Docs }),
				shardLbl)
		}
	}
	return o
}

// read is one index series: the value pick reads off a block of the
// scrape's Stats snapshot, or 0 when that block is nil at scrape time.
func read[B any](o *observer, block func(*retrieval.Stats) *B, pick func(*B) float64) func() float64 {
	return func() float64 {
		if b := block(o.stats.Load()); b != nil {
			return pick(b)
		}
		return 0
	}
}

// scrape writes the registry in the Prometheus text format over one fresh
// Stats snapshot; concurrent scrapes take turns, so each reads its own.
func (o *observer) scrape(w io.Writer) {
	o.scrapes.Lock()
	defer o.scrapes.Unlock()
	st := o.ret.Stats()
	o.stats.Store(&st)
	o.reg.WritePrometheus(w)
}

// requestCounter returns (creating on first use) the requests_total
// series for a (route, status) pair. Codes are dynamic, so these cannot
// be pre-registered like the latency histograms.
func (o *observer) requestCounter(route string, code int) *metrics.Counter {
	key := route + "\x00" + strconv.Itoa(code)
	o.mu.Lock()
	defer o.mu.Unlock()
	c, ok := o.requests[key]
	if !ok {
		c = o.reg.Counter("lsi_http_requests_total", "Requests by route and status code.",
			metrics.Label{Name: "route", Value: route},
			metrics.Label{Name: "code", Value: strconv.Itoa(code)})
		o.requests[key] = c
	}
	return c
}

// shedCounter returns (creating on first use) the shed_total series for
// a (route, reason) pair.
func (o *observer) shedCounter(route, reason string) *metrics.Counter {
	key := route + "\x00" + reason
	o.mu.Lock()
	defer o.mu.Unlock()
	c, ok := o.shed[key]
	if !ok {
		c = o.reg.Counter("lsi_http_shed_total", "Requests shed by the admission gate, by route and reason.",
			metrics.Label{Name: "route", Value: route},
			metrics.Label{Name: "reason", Value: reason})
		o.shed[key] = c
	}
	return c
}

// statusRecorder captures the response status and size for metrics and
// access logs.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (sr *statusRecorder) WriteHeader(code int) {
	if sr.status == 0 {
		sr.status = code
	}
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(p []byte) (int, error) {
	if sr.status == 0 {
		sr.status = http.StatusOK
	}
	n, err := sr.ResponseWriter.Write(p)
	sr.bytes += int64(n)
	return n, err
}

// shed writes the refusal for a request the gate refused: 429 for queue
// pressure (the client can help by sending less), 503 for compaction
// debt (the server owes background work; the client did nothing wrong).
// Both carry Retry-After; the hint is deliberately coarse — 1s for
// queue pressure (one request's worth of backoff), 2s for compaction
// debt (one compactor tick).
func (h *handler) shedResponse(w http.ResponseWriter, route, reason string, status, retryAfter int) {
	h.obs.shedCounter(route, reason).Inc()
	w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	writeError(w, status, "server overloaded (%s); retry after %ds", reason, retryAfter)
}

// route wraps an endpoint in the admission gate, instrumentation, and
// access-log middleware. name is the route's metrics label.
func (h *handler) route(name string, class gateClass, next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sr := &statusRecorder{ResponseWriter: w}

		admitted := true
		reason := ""
		switch {
		case class == gateIngest && h.opts.MaxCompactionDebt > 0 && h.ret.Stats().SealedPending > h.opts.MaxCompactionDebt:
			admitted, reason = false, "compaction_debt"
			h.shedResponse(sr, name, reason, http.StatusServiceUnavailable, 2)
		case class != gateNone && h.gate != nil:
			if h.gate.acquire(r.Context()) {
				defer h.gate.release()
			} else {
				admitted, reason = false, "queue_full"
				h.shedResponse(sr, name, reason, http.StatusTooManyRequests, 1)
			}
		}
		if admitted {
			h.obs.inflight.Add(1)
			next(sr, r)
			h.obs.inflight.Add(-1)
		}

		elapsed := time.Since(start)
		if sr.status == 0 {
			// A handler that never wrote (nothing in this package does)
			// still counts as a 200 for accounting.
			sr.status = http.StatusOK
		}
		h.obs.latency[name].Observe(elapsed.Seconds())
		h.obs.requestCounter(name, sr.status).Inc()
		if log := h.opts.AccessLog; log != nil {
			attrs := []any{
				"method", r.Method,
				"path", r.URL.Path,
				"route", name,
				"status", sr.status,
				"bytes", sr.bytes,
				"dur_ms", float64(elapsed.Microseconds()) / 1000,
				"remote", r.RemoteAddr,
			}
			if cs := sr.Header().Get("Cache-Status"); cs != "" {
				attrs = append(attrs, "cache", cs)
			}
			if !admitted {
				attrs = append(attrs, "shed", reason)
				log.Warn("shed", attrs...)
			} else {
				log.Info("request", attrs...)
			}
		}
	}
}

// metricsHandler serves GET /metrics in the Prometheus text exposition
// format.
func (h *handler) metricsHandler(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	h.obs.scrape(w)
}

// registerPprof mounts the net/http/pprof handlers on mux (behind
// Options.EnablePprof; these endpoints expose process internals and
// should not be reachable from untrusted networks — see OPERATIONS.md).
func registerPprof(mux *http.ServeMux) {
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
}
