// Package httpapi exposes a retrieval.Retriever over HTTP/JSON — the
// handler behind cmd/lsiserve. Endpoints:
//
//	POST /v1/search        {"query":"car engine","topN":10} or {"vector":[...],"topN":10};
//	                       an optional "nprobe" overrides the ANN tier's
//	                       probe budget for this request (0 = exhaustive;
//	                       see retrieval.WithANN)
//	POST /v1/search:batch  {"queries":["car","galaxy"],"topN":10}
//	POST /v1/docs          {"id":"doc-x","text":"..."} — live append (sharded indexes)
//	POST /v1/docs:batch    {"docs":[{"id":"...","text":"..."}, ...]}
//	GET  /v1/stats         index description, segment/compaction counters,
//	                       query-cache counters (hits/misses/coalesced/
//	                       evictions) when the index caches
//	                       (retrieval.WithQueryCache / lsiserve -cache-mb)
//	GET  /metrics          Prometheus text exposition: per-route latency
//	                       histograms and status counters, cache and
//	                       segment/compaction gauges, shed counters
//	GET  /healthz          liveness probe (process is up and serving)
//	GET  /readyz           readiness probe: 503 while the index owes
//	                       compaction work (sealed segments pending or a
//	                       compaction in flight), 200 otherwise; the body
//	                       carries the index epoch, manifest generation,
//	                       and document count
//	GET  /debug/pprof/*    runtime profiles (only with Options.EnablePprof)
//
// Replication (for retrieval/cluster replicas catching up from a
// primary; the file endpoints require Options.ReplicateDir, the WAL
// endpoint a retriever with an attached WAL):
//
//	GET /v1/replicate/manifest       the primary's current manifest.json
//	GET /v1/replicate/file?name=...  one checkpoint file (manifest.json,
//	                                 text.json, or a generation-stamped
//	                                 name shard.FileGeneration accepts:
//	                                 ids-*.json, seg-*.idx and the tier
//	                                 sidecars ann-*.ivf, quant-*.qnt;
//	                                 anything else is 400, a file a
//	                                 checkpoint has retired is 404 —
//	                                 re-fetch the manifest and retry)
//	GET /v1/replicate/wal?from=N     every logged document with global
//	                                 position >= N, as JSON; 410 Gone
//	                                 when a checkpoint rotated the
//	                                 needed records away (re-snapshot)
//
// Text searches against a caching index carry a Cache-Status response
// header ("hit", "miss", or "coalesced"); uncached indexes omit it.
// Search, docs, stats, readyz, and replication responses carry
// X-Index-Epoch, X-Index-Generation, and X-Index-Docs headers when the
// retriever reports them (see EpochReporter): epoch observes local
// index motion, (generation, docs) is the cross-process freshness token
// replication compares. A fan-out retriever (the cluster router) that
// answered from a degraded quorum marks the response with
// X-Partial-Results: true; the body is still a valid result set.
//
// Malformed requests get a 400 with {"error": "..."}; a query whose
// terms all miss the vocabulary is a valid request with zero matches
// (200, empty results). Every search runs under a per-request timeout,
// checked at query boundaries (an in-flight backend scan is not
// interrupted mid-kernel); overruns surface as 504. The docs endpoints
// require a retriever with live-update support (an index built with
// retrieval.WithShards); immutable indexes answer 501.
//
// Under overload the handler sheds rather than collapses: when
// Options.MaxInFlight requests are executing and Options.MaxQueue more
// are waiting, additional search/docs requests are answered 429 with a
// Retry-After hint; docs requests are shed 503 + Retry-After while
// compaction debt exceeds Options.MaxCompactionDebt. Probes and
// /metrics are never shed. See observe.go for the middleware and
// OPERATIONS.md for the operator view.
package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"repro/internal/metrics"
	"repro/retrieval"
	"repro/retrieval/cache"
)

// Options configures the handler; zero values pick the documented
// defaults.
type Options struct {
	// Timeout bounds each request's search work (default 10s).
	Timeout time.Duration
	// MaxTopN caps the per-query result count; larger requests are
	// clamped, not rejected (default 100). Requests with topN <= 0 get
	// DefaultTopN.
	MaxTopN int
	// DefaultTopN is used when a request omits topN (default 10).
	DefaultTopN int
	// MaxBatch caps the number of queries in one batch call (default 256).
	MaxBatch int
	// MaxBodyBytes caps the request body size (default 1 MiB).
	MaxBodyBytes int64

	// MaxInFlight caps concurrently executing search/docs requests
	// (0 = unlimited). When the cap is reached, up to MaxQueue further
	// requests wait for a slot; beyond that they are shed with
	// 429 + Retry-After. Probes (/healthz, /readyz), /metrics, and
	// pprof are exempt so an overloaded server stays observable.
	MaxInFlight int
	// MaxQueue bounds the requests waiting for an in-flight slot
	// (default 4x MaxInFlight; only meaningful with MaxInFlight > 0).
	MaxQueue int
	// MaxCompactionDebt sheds docs (ingest) requests with 503 +
	// Retry-After while the index has more than this many sealed
	// segments awaiting compaction (0 = never shed on debt). This is the
	// backpressure valve for "ingest outruns compaction": searches keep
	// flowing, writers are asked to back off until the compactor catches
	// up. 503 rather than the queue-full 429: the client's rate is not
	// the problem, the server owes background work.
	MaxCompactionDebt int
	// ReplicateDir enables GET /v1/replicate/{manifest,file}: the
	// checkpoint directory (the one the server saves into / opened from)
	// whose manifest and files replicas may pull. Empty disables the
	// file endpoints (404).
	ReplicateDir string
	// Metrics is the registry the handler's series are registered on
	// and GET /metrics serves (default: a fresh private registry).
	// Register at most one handler per registry — series names collide
	// otherwise.
	Metrics *metrics.Registry
	// AccessLog emits one structured line per request when set (shed
	// requests log at Warn, everything else at Info).
	AccessLog *slog.Logger
	// EnablePprof mounts net/http/pprof under /debug/pprof/. Off by
	// default: profiles expose process internals and must not face
	// untrusted networks.
	EnablePprof bool
}

func (o Options) withDefaults() Options {
	if o.Timeout <= 0 {
		o.Timeout = 10 * time.Second
	}
	if o.MaxTopN <= 0 {
		o.MaxTopN = 100
	}
	if o.DefaultTopN <= 0 {
		o.DefaultTopN = 10
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 256
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 1 << 20
	}
	if o.MaxInFlight > 0 && o.MaxQueue <= 0 {
		o.MaxQueue = 4 * o.MaxInFlight
	}
	return o
}

// A backend tells the handler what it serves through at most three
// interfaces: retrieval.Retriever (one Query call per search route, and
// the Stats snapshot behind /v1/stats, /readyz, the ingest debt gate and
// /metrics), Live, and EpochReporter.

// Live is the optional write capability behind POST /v1/docs and GET
// /v1/replicate/wal: *retrieval.Index and the cluster router implement
// it. Handlers answer 501 when the retriever lacks it, or when Add
// returns retrieval.ErrImmutableIndex (an index built without
// WithShards); the WAL route answers 404 when it lacks it, or when
// TailWAL returns retrieval.ErrNoWAL.
type Live interface {
	Add(ctx context.Context, docs []retrieval.Document) (int, error)
	TailWAL(from int) ([]retrieval.Document, error)
}

// EpochReporter is the optional freshness capability: the concrete
// *retrieval.Index and cluster.Replica implement it; the cluster router
// does not, as its nodes each have their own epoch. When present,
// responses carry X-Index-Epoch and X-Index-Generation headers next to
// X-Index-Docs. Epoch observes local index motion and is NOT comparable
// across processes; (Generation, NumDocs) is the token replication
// compares.
type EpochReporter interface {
	Epoch() uint64
	Generation() uint64
}

// SearchRequest is the body of POST /v1/search. Exactly one of Query and
// Vector must be set.
type SearchRequest struct {
	Query  string    `json:"query,omitempty"`
	Vector []float64 `json:"vector,omitempty"`
	TopN   int       `json:"topN,omitempty"`
	// NProbe, when present, overrides the ANN tier's probe budget for
	// this request: > 0 scores that many cells per quantizer (clamped to
	// nlist), 0 forces the exhaustive scan. Absent means the configured
	// default (see retrieval.Query.NProbe). A backend that answers it with
	// retrieval.ErrUnsupported gets a 400.
	NProbe *int `json:"nprobe,omitempty"`
}

// SearchResponse is the body of a successful POST /v1/search.
type SearchResponse struct {
	Results []retrieval.Result `json:"results"`
}

// BatchSearchRequest is the body of POST /v1/search:batch.
type BatchSearchRequest struct {
	Queries []string `json:"queries"`
	TopN    int      `json:"topN,omitempty"`
}

// BatchSearchResponse is the body of a successful POST /v1/search:batch;
// Results[i] answers Queries[i].
type BatchSearchResponse struct {
	Results [][]retrieval.Result `json:"results"`
}

// AddDocRequest is the body of POST /v1/docs.
type AddDocRequest struct {
	ID   string `json:"id,omitempty"`
	Text string `json:"text"`
}

// AddDocsRequest is the body of POST /v1/docs:batch.
type AddDocsRequest struct {
	Docs []AddDocRequest `json:"docs"`
}

// AddDocsResponse is the body of a successful docs call: the appended
// documents occupy positions [First, First+Count) and are immediately
// searchable.
type AddDocsResponse struct {
	First int `json:"first"`
	Count int `json:"count"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// ShedError reports that a backend shed the request under overload
// (429 queue-full or 503 compaction-debt) rather than failing it. The
// cluster router returns it when every candidate node shed, preserving
// the nodes' Retry-After hint; the handler maps it back to the shed
// status with the hint intact, so backpressure propagates through the
// router hop to the end client instead of flattening into a 500.
type ShedError struct {
	// StatusCode is the shedding backend's status (429 or 503).
	StatusCode int
	// RetryAfter is the backend's backoff hint (0 = none given).
	RetryAfter time.Duration
	// Msg is the backend's error body.
	Msg string
}

// Error implements error.
func (e *ShedError) Error() string {
	if e.Msg != "" {
		return e.Msg
	}
	return fmt.Sprintf("backend shed the request (%d)", e.StatusCode)
}

// writeShed answers with the backend's shed status and Retry-After
// hint, reporting whether err was a ShedError.
func writeShed(w http.ResponseWriter, err error) bool {
	var se *ShedError
	if !errors.As(err, &se) {
		return false
	}
	status := se.StatusCode
	if status != http.StatusTooManyRequests && status != http.StatusServiceUnavailable {
		status = http.StatusServiceUnavailable
	}
	if se.RetryAfter > 0 {
		secs := int(se.RetryAfter.Round(time.Second) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	writeError(w, status, "%v", se)
	return true
}

type handler struct {
	ret  retrieval.Retriever
	opts Options
	obs  *observer
	gate *gate
	repl drainGroup
}

// Handler is the assembled API handler: a plain http.Handler plus the
// lifecycle hook graceful shutdown needs. Serve it like any handler;
// on shutdown call DrainReplication before closing the listener.
type Handler struct {
	mux *http.ServeMux
	h   *handler
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) { h.mux.ServeHTTP(w, r) }

// DrainReplication stops admitting new replication requests
// (/v1/replicate/*; they get 503 + Retry-After, pointing the replica
// at another node) and waits for the in-flight ones — snapshot
// downloads and WAL tails — to finish, so a routine deploy never
// presents a torn snapshot to a bootstrapping replica. It returns
// ctx's error if the context expires first. Call before closing the
// listener; ordinary requests are unaffected (http.Server.Shutdown
// already waits for those).
func (h *Handler) DrainReplication(ctx context.Context) error { return h.h.repl.drain(ctx) }

// NewHandler wraps a Retriever in the HTTP/JSON API. Every route runs
// through the observability + admission middleware (see observe.go);
// the expensive routes (search, docs) are additionally bounded by the
// admission gate when Options.MaxInFlight is set.
func NewHandler(ret retrieval.Retriever, opts Options) *Handler {
	h := &handler{ret: ret, opts: opts.withDefaults()}
	h.obs = newObserver(h.opts.Metrics, ret)
	h.gate = newGate(h.opts.MaxInFlight, h.opts.MaxQueue)
	if h.gate != nil {
		h.obs.reg.GaugeFunc("lsi_http_queued_requests",
			"Requests waiting for an in-flight slot (shed once MaxQueue is exceeded).",
			func() float64 { return float64(h.gate.queued.Load()) })
	}
	h.obs.reg.GaugeFunc("lsi_http_replication_inflight",
		"In-flight replication requests (snapshot files and WAL tails); drained before shutdown.",
		func() float64 { return float64(h.repl.inflightNow()) })
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/search", h.route("search", gateQuery, h.search))
	mux.HandleFunc("POST /v1/search:batch", h.route("search_batch", gateQuery, h.searchBatch))
	mux.HandleFunc("POST /v1/docs", h.route("docs", gateIngest, h.addDoc))
	mux.HandleFunc("POST /v1/docs:batch", h.route("docs_batch", gateIngest, h.addDocs))
	mux.HandleFunc("GET /v1/stats", h.route("stats", gateNone, h.stats))
	mux.HandleFunc("GET /v1/replicate/manifest", h.route("replicate_manifest", gateNone, h.replicateManifest))
	mux.HandleFunc("GET /v1/replicate/file", h.route("replicate_file", gateNone, h.replicateFile))
	mux.HandleFunc("GET /v1/replicate/wal", h.route("replicate_wal", gateNone, h.replicateWAL))
	mux.HandleFunc("GET /healthz", h.route("healthz", gateNone, h.healthz))
	mux.HandleFunc("GET /readyz", h.route("readyz", gateNone, h.readyz))
	mux.HandleFunc("GET /metrics", h.route("metrics", gateNone, h.metricsHandler))
	if h.opts.EnablePprof {
		registerPprof(mux)
	}
	return &Handler{mux: mux, h: h}
}

// indexHeaders stamps the freshness headers on a response. Call it
// after the handler's index work is done (post-append for the docs
// endpoints) and before the body is written, so the headers describe
// the state the response reflects.
func (h *handler) indexHeaders(w http.ResponseWriter) {
	if er, ok := h.ret.(EpochReporter); ok {
		w.Header().Set("X-Index-Epoch", strconv.FormatUint(er.Epoch(), 10))
		w.Header().Set("X-Index-Generation", strconv.FormatUint(er.Generation(), 10))
	}
	w.Header().Set("X-Index-Docs", strconv.Itoa(h.ret.NumDocs()))
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(body)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

func (h *handler) decode(w http.ResponseWriter, r *http.Request, into any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, h.opts.MaxBodyBytes)
	if err := json.NewDecoder(r.Body).Decode(into); err != nil {
		writeError(w, http.StatusBadRequest, "invalid JSON body: %v", err)
		return false
	}
	return true
}

// clampTopN validates a requested topN, reporting ok=false after writing
// the 400; MaxTopN caps the default too.
func (h *handler) clampTopN(w http.ResponseWriter, topN int) (int, bool) {
	if topN < 0 {
		writeError(w, http.StatusBadRequest, "topN must be >= 0, got %d", topN)
		return 0, false
	}
	if topN == 0 {
		topN = h.opts.DefaultTopN
	}
	return min(topN, h.opts.MaxTopN), true
}

// writeSearchError maps retrieval errors to HTTP statuses. Unknown-
// vocabulary queries are not errors at this layer (handled by callers);
// everything else is a client error except timeouts.
func writeSearchError(w http.ResponseWriter, err error) {
	if writeShed(w, err) {
		return
	}
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, "search timed out: %v", err)
	case errors.Is(err, context.Canceled):
		writeError(w, http.StatusServiceUnavailable, "request canceled: %v", err)
	case errors.Is(err, retrieval.ErrVectorLength), errors.Is(err, retrieval.ErrVectorRange),
		errors.Is(err, retrieval.ErrNoVocabulary):
		writeError(w, http.StatusBadRequest, "%v", err)
	default:
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
}

func (h *handler) search(w http.ResponseWriter, r *http.Request) {
	var req SearchRequest
	if !h.decode(w, r, &req) {
		return
	}
	hasQuery, hasVector := req.Query != "", len(req.Vector) > 0
	if hasQuery == hasVector {
		writeError(w, http.StatusBadRequest, "exactly one of \"query\" and \"vector\" must be set")
		return
	}
	topN, ok := h.clampTopN(w, req.TopN)
	if !ok {
		return
	}
	if req.NProbe != nil && *req.NProbe < 0 {
		writeError(w, http.StatusBadRequest, "nprobe must be >= 0, got %d", *req.NProbe)
		return
	}
	q := retrieval.Query{TopN: topN, NProbe: req.NProbe}
	if hasVector {
		q.Vector = req.Vector
	} else {
		q.Texts = []string{req.Query}
	}
	ctx, cancel := context.WithTimeout(r.Context(), h.opts.Timeout)
	defer cancel()
	ans, err := h.ret.Query(ctx, q)
	if errors.Is(err, retrieval.ErrUnsupported) {
		what := "vector queries"
		if req.NProbe != nil {
			what = "per-request probe budgets"
		}
		writeError(w, http.StatusBadRequest, "this index does not accept %s", what)
		return
	}
	if ans.Cache != cache.StatusBypass {
		w.Header().Set("Cache-Status", ans.Cache.String())
	}
	if !h.answer(w, ans, err) {
		return
	}
	results := ans.Results[0]
	if results == nil {
		results = []retrieval.Result{}
	}
	writeJSON(w, http.StatusOK, SearchResponse{Results: results})
}

// answer stamps a search answer's partial and freshness headers and, on
// an error, writes it; it reports whether the handler should go on to
// write the results.
func (h *handler) answer(w http.ResponseWriter, ans retrieval.Answer, err error) bool {
	if ans.Partial {
		w.Header().Set("X-Partial-Results", "true")
	}
	if err != nil {
		writeSearchError(w, err)
		return false
	}
	h.indexHeaders(w)
	return true
}

func (h *handler) searchBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchSearchRequest
	if !h.decode(w, r, &req) {
		return
	}
	if len(req.Queries) == 0 {
		writeError(w, http.StatusBadRequest, "\"queries\" must contain at least one query")
		return
	}
	if len(req.Queries) > h.opts.MaxBatch {
		writeError(w, http.StatusBadRequest, "batch of %d queries exceeds the limit of %d", len(req.Queries), h.opts.MaxBatch)
		return
	}
	topN, ok := h.clampTopN(w, req.TopN)
	if !ok {
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), h.opts.Timeout)
	defer cancel()
	ans, err := h.ret.Query(ctx, retrieval.Query{Texts: req.Queries, TopN: topN})
	if h.answer(w, ans, err) {
		writeJSON(w, http.StatusOK, BatchSearchResponse{Results: ans.Results})
	}
}

// addInto runs the shared append path for both docs endpoints.
func (h *handler) addInto(w http.ResponseWriter, r *http.Request, docs []retrieval.Document) {
	adder, ok := h.ret.(Live)
	if !ok {
		writeError(w, http.StatusNotImplemented, "this index is immutable; build with sharding (WithShards / lsiserve -shards) to accept live documents")
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), h.opts.Timeout)
	defer cancel()
	first, err := adder.Add(ctx, docs)
	if err != nil {
		if writeShed(w, err) {
			return
		}
		switch {
		case errors.Is(err, retrieval.ErrImmutableIndex):
			// Every *retrieval.Index is Live; immutability surfaces as
			// this error rather than a missing interface.
			writeError(w, http.StatusNotImplemented, "this index is immutable; build with sharding (WithShards / lsiserve -shards) to accept live documents")
		case errors.Is(err, retrieval.ErrIndexClosed):
			writeError(w, http.StatusServiceUnavailable, "%v", err)
		case errors.Is(err, retrieval.ErrNoVocabulary):
			writeError(w, http.StatusBadRequest, "%v", err)
		case errors.Is(err, context.DeadlineExceeded):
			writeError(w, http.StatusGatewayTimeout, "append timed out: %v", err)
		case errors.Is(err, context.Canceled):
			writeError(w, http.StatusServiceUnavailable, "request canceled: %v", err)
		default:
			// Remaining append failures are server-side (fold or
			// decomposition errors), not malformed requests.
			writeError(w, http.StatusInternalServerError, "%v", err)
		}
		return
	}
	h.indexHeaders(w) // post-append: the headers include this batch
	writeJSON(w, http.StatusOK, AddDocsResponse{First: first, Count: len(docs)})
}

func (h *handler) addDoc(w http.ResponseWriter, r *http.Request) {
	var req AddDocRequest
	if !h.decode(w, r, &req) {
		return
	}
	if req.Text == "" {
		writeError(w, http.StatusBadRequest, "\"text\" must be set")
		return
	}
	h.addInto(w, r, []retrieval.Document{{ID: req.ID, Text: req.Text}})
}

func (h *handler) addDocs(w http.ResponseWriter, r *http.Request) {
	var req AddDocsRequest
	if !h.decode(w, r, &req) {
		return
	}
	if len(req.Docs) == 0 {
		writeError(w, http.StatusBadRequest, "\"docs\" must contain at least one document")
		return
	}
	if len(req.Docs) > h.opts.MaxBatch {
		writeError(w, http.StatusBadRequest, "batch of %d documents exceeds the limit of %d", len(req.Docs), h.opts.MaxBatch)
		return
	}
	docs := make([]retrieval.Document, len(req.Docs))
	for i, d := range req.Docs {
		if d.Text == "" {
			writeError(w, http.StatusBadRequest, "document %d: \"text\" must be set", i)
			return
		}
		docs[i] = retrieval.Document{ID: d.ID, Text: d.Text}
	}
	h.addInto(w, r, docs)
}

func (h *handler) readyz(w http.ResponseWriter, r *http.Request) {
	st := h.ret.Stats()
	body := map[string]any{"status": "ready", "numDocs": h.ret.NumDocs()}
	if er, ok := h.ret.(EpochReporter); ok {
		body["epoch"] = er.Epoch()
		body["generation"] = er.Generation()
	}
	h.indexHeaders(w)
	if !st.Ready {
		body["status"] = "not-ready"
		body["reason"] = "index is warming: compaction pending or in flight"
		writeJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	writeJSON(w, http.StatusOK, body)
}

func (h *handler) stats(w http.ResponseWriter, r *http.Request) {
	h.indexHeaders(w)
	writeJSON(w, http.StatusOK, h.ret.Stats())
}

func (h *handler) healthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":  "ok",
		"numDocs": h.ret.NumDocs(),
	})
}
