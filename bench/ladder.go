package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/ir"
	"repro/internal/ivf"
	"repro/internal/lsi"
	"repro/internal/mat"
	"repro/internal/par"
	"repro/internal/quant"
	"repro/internal/segment"
	"repro/internal/topk"
	"repro/retrieval"
	"repro/retrieval/httpapi"
	"repro/retrieval/shard"
	"repro/retrieval/wal"
)

// span is one call into one layer during the ladder replay.
type span struct {
	Req    int    `json:"req"` // query index within the rung's pass
	Layer  string `json:"layer"`
	Parent string `json:"parent,omitempty"` // the rung whose self time this one is subtracted from
	Start  int64  `json:"start_ns"`         // since the ladder began
	End    int64  `json:"end_ns"`
}

// tracer holds the spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

// rung calls fn once per query of warm, untimed, then once per query of
// timed with a span around each call, and returns the timed durations in
// microseconds. prep, when set, runs before each timed call outside its
// span. Nothing inside the program is instrumented, so a layer's cost is
// the time of a call into its public entry point and its self time the
// difference to the rungs it calls.
func (t *tracer) rung(layer, parent string, warm, timed []lq, prep, fn func(q *lq)) []float64 {
	for i := range warm {
		if prep != nil {
			prep(&warm[i])
		}
		fn(&warm[i])
	}
	us := make([]float64, len(timed))
	for i := range timed {
		if prep != nil {
			prep(&timed[i])
		}
		start := time.Now()
		fn(&timed[i])
		end := time.Now()
		t.spans = append(t.spans, span{Req: i, Layer: layer, Parent: parent,
			Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
		us[i] = float64(end.Sub(start).Nanoseconds()) / 1e3
	}
	return us
}

func (t *tracer) write(path string) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			return err
		}
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// lq is one ladder query with the lower layers' inputs derived from it.
type lq struct {
	query
	terms   []int
	weights []float64
	pq      []float64 // folded into the flat index's latent space
	qn      float64
}

// streamSum is the roofline reference: the benchmark's own read of a
// buffer, eight independent accumulators so the adds do not serialise.
func streamSum(buf []float64) float64 {
	var s0, s1, s2, s3, s4, s5, s6, s7 float64
	i := 0
	for ; i+8 <= len(buf); i += 8 {
		b := buf[i : i+8 : i+8]
		s0 += b[0]
		s1 += b[1]
		s2 += b[2]
		s3 += b[3]
		s4 += b[4]
		s5 += b[5]
		s6 += b[6]
		s7 += b[7]
	}
	for ; i < len(buf); i++ {
		s0 += buf[i]
	}
	return s0 + s1 + s2 + s3 + s4 + s5 + s6 + s7
}

var sink float64 // keeps the kernels' results alive

// streamGBps is the rate of the fastest of reads passes of streamSum over
// buf: a roofline is the best the machine does.
func streamGBps(buf []float64, reads int) float64 {
	for i := range buf {
		buf[i] = 1
	}
	best := math.Inf(1)
	for i := 0; i < reads; i++ {
		start := time.Now()
		sink += streamSum(buf)
		best = min(best, time.Since(start).Seconds())
	}
	return float64(len(buf)*8) / best / 1e9
}

// replay is the state the ladder's rungs share.
type replay struct {
	ctx      context.Context
	cfg      *runConfig
	in       *inputs
	sys      *system
	set      func(name string, v float64, samples int)
	tr       *tracer
	n        int        // queries per pass
	flat     *lsi.Index // the unsharded index of the run's corpus
	vocab    map[string]int
	fresh    func() []lq // the workload's next n queries
	K        []lq        // the kernel set: the cacheless rungs replay it
	qm       *quant.Matrix
	exact    [][]int      // the flat index's exact top-10 for each query of K, the fidelity reference
	sx       *shard.Index // the served directory, sharded workloads only
	project  float64      // lsi.project_us
	backend  float64      // lsi.search_us, or shard.search_us on a sharded workload
	pipeline float64      // ir.pipeline_us
}

// med reports the median of a rung's timings under name and returns it.
func (r *replay) med(name string, us []float64) float64 {
	m := median(us)
	r.set(name, m, len(us))
	return m
}

// ladder replays the workload's queries one layer at a time, bottom up,
// in this process, and once over loopback against the served system. The
// kernel, lsi, ivf, quant and segment rungs run on the unsharded index of
// the run's corpus on every workload (one SVD, one space the benchmark
// can reach); the shard, retrieval and httpapi rungs run on the index the
// workload serves, opened here the way lsiserve opens it.
func ladder(ctx context.Context, cfg *runConfig, in *inputs, sys *system, chk *checked,
	nextText func() string, set func(string, float64, int)) error {
	wl, sc := cfg.wl, cfg.sc
	r := &replay{ctx: ctx, cfg: cfg, in: in, sys: sys, set: set, tr: &tracer{t0: time.Now()}, n: sc.ladder}

	// The flat index: the file exact_scan serves, or one more build.
	flatPath := sys.indexPath
	if wl.shards > 0 {
		flatPath = filepath.Join(cfg.workDir, "flat.lsi")
		fx, err := retrieval.Build(in.docs, buildOptions(workload{}, sc)...)
		if err != nil {
			return err
		}
		if err := saveFile(fx, flatPath); err != nil {
			return err
		}
	}
	flat, meta, err := loadFlat(flatPath)
	if err != nil {
		return err
	}
	r.flat, r.vocab = flat, vocabOf(meta)

	// fresh returns the workload's next n queries: new distinct ones, or
	// new Zipf draws from the fixed set. Every pass that a cache can see
	// takes fresh queries, so the distinct workloads never hit and the
	// Zipf workloads hit as they do under load.
	next := func() query { return newQuery(0, nextText()) }
	if wl.zipf {
		next = zipfPicker(cfg.seed*1000003+streamLadder, chk.set)
	}
	r.fresh = func() []lq {
		qs := make([]lq, r.n)
		for i := range qs {
			q := &qs[i]
			q.query = next()
			q.terms, q.weights = sparseQuery(r.vocab, q.text)
			q.pq = flat.ProjectSparse(q.terms, q.weights)
			q.qn = mat.Norm(q.pq)
		}
		return qs
	}
	r.K = r.fresh()

	r.kernels()
	if err := r.tiers(); err != nil {
		return err
	}
	if err := r.serving(); err != nil {
		return err
	}
	if wl.ingest {
		if err := r.ingest(); err != nil {
			return err
		}
	}
	if r.sx != nil {
		_ = r.sx.Close() // nothing it holds was saved
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	return r.tr.write(filepath.Join(cfg.outDir, "trace-"+wl.name+".jsonl"))
}

// kernels is the bottom of the ladder on the flat index: mat, topk, lsi
// and par.
func (r *replay) kernels() {
	set, tr, K, n, flat := r.set, r.tr, r.K, r.n, r.flat
	docs, norms := flat.DocVectors(), flat.Norms()
	m, k := docs.Rows(), docs.Cols()

	// mat: the streaming reference, then the two scoring kernels over
	// every row, then the sparse fold-in.
	bytesF := float64(m * k * 8)
	const streamReads = 100
	roofline := streamGBps(make([]float64, m*k), streamReads)
	set("mat.stream_gbps", roofline, streamReads)

	dn := median(tr.rung("mat.dotnorm", "lsi.scan", K, K, nil, func(q *lq) {
		var s float64
		for j := 0; j < m; j++ {
			s += mat.DotNorm(q.pq, docs.Row(j), q.qn, norms[j])
		}
		sink += s
	}))
	dnGBps := bytesF / (dn * 1e-6) / 1e9
	set("mat.dotnorm_ns_per_row", dn*1e3/float64(m), n)
	set("mat.dotnorm_gbps", dnGBps, n)
	set("mat.dotnorm_roofline_share", dnGBps/roofline, n)

	start := time.Now()
	r.qm = quant.Quantize(docs)
	set("quant.quantize_s", time.Since(start).Seconds(), 1)
	codes := make([]int8, 0, m*k)
	for j := 0; j < m; j++ {
		codes = append(codes, r.qm.Row(j)...)
	}
	const block = 256
	dots := make([]int32, block)
	q16 := make([]int16, k)
	d8 := median(tr.rung("mat.dotint8", "quant.search", K, K, func(q *lq) {
		var peak float64
		for _, v := range q.pq {
			peak = math.Max(peak, math.Abs(v))
		}
		for i, v := range q.pq {
			q16[i] = int16(math.Round(v / peak * quant.MaxCode))
		}
	}, func(q *lq) {
		var s int32
		for lo := 0; lo < m; lo += block {
			hi := min(lo+block, m)
			mat.DotInt8Blocked(q16, codes[lo*k:hi*k], dots[:hi-lo])
			s += dots[0]
		}
		sink += float64(s)
	}))
	d8GBps := float64(m*k) / (d8 * 1e-6) / 1e9
	set("mat.dotint8_ns_per_row", d8*1e3/float64(m), n)
	set("mat.dotint8_gbps", d8GBps, n)
	set("mat.dotint8_roofline_share", d8GBps/roofline, n)

	pqBuf := make([]float64, k)
	var nnz float64
	for i := range K {
		nnz += float64(len(K[i].terms))
	}
	mv := tr.rung("mat.multvecsparse", "lsi.project", K, K, nil, func(q *lq) {
		mat.MulTVecSparse(flat.Basis(), q.terms, q.weights, pqBuf)
	})
	set("mat.multvecsparse_ns_per_nnz", mean(mv)*1e3/(nnz/float64(n)), n)

	// topk: bounded selection over a scored corpus.
	scores := make([]float64, m)
	var heap topk.Heap
	matches := make([]topk.Match, 0, topN)
	sel := median(tr.rung("topk.select", "lsi.scan", K, K, func(q *lq) {
		for j := range scores {
			scores[j] = mat.DotNorm(q.pq, docs.Row(j), q.qn, norms[j])
		}
	}, func(q *lq) {
		heap.Reset(topN)
		for j, s := range scores {
			heap.Offer(topk.Match{Doc: j, Score: s})
		}
		matches = heap.AppendSorted(matches[:0])
	}))
	set("topk.select_ns_per_doc", sel*1e3/float64(m), n)

	// lsi: fold-in, the scan as production runs it (par workers and all),
	// and the two together; then the same scan on one worker.
	r.project = r.med("lsi.project_us", tr.rung("lsi.project", "lsi.search", K, K, nil, func(q *lq) {
		sink += flat.ProjectSparse(q.terms, q.weights)[0]
	}))
	scan := func(q *lq) { matches = flat.AppendSearchProjected(matches[:0], q.pq, topN) }
	scanUS := r.med("lsi.scan_us", tr.rung("lsi.scan", "lsi.search", K, K, nil, scan))
	set("lsi.scan_ns_per_doc", scanUS*1e3/float64(m), n)
	r.exact = make([][]int, len(K))
	for i := range K {
		for _, mt := range flat.AppendSearchProjected(nil, K[i].pq, topN) {
			r.exact[i] = append(r.exact[i], mt.Doc)
		}
	}
	r.backend = r.med("lsi.search_us", tr.rung("lsi.search", "retrieval.search", K, K, nil, func(q *lq) {
		matches = flat.AppendSearchSparse(matches[:0], q.terms, q.weights, topN)
	}))
	workers := par.SetMaxProcs(1)
	serialUS := median(tr.rung("lsi.scan.serial", "", K, K, nil, scan))
	set("retrieval.search_allocs", testing.AllocsPerRun(50, func() {
		sink += flat.SearchSparse(K[0].terms, K[0].weights, topN)[0].Score
	}), 50)
	par.SetMaxProcs(workers)
	set("par.scan_speedup", serialUS/scanUS, n)
}

// fidelity is the mean share of each query's exact top-10 that got returns.
func (r *replay) fidelity(got func(q *lq) []topk.Match) float64 {
	var sum float64
	for i := range r.K {
		in := map[int]bool{}
		for _, mt := range got(&r.K[i]) {
			in[mt.Doc] = true
		}
		hit := 0
		for _, d := range r.exact[i] {
			if in[d] {
				hit++
			}
		}
		sum += float64(hit) / float64(len(r.exact[i]))
	}
	return sum / float64(len(r.K))
}

// tiers is ivf, quant and segment on the flat index: each tier's cost and
// its fidelity against the exact top-10.
func (r *replay) tiers() error {
	set, tr, K, n, flat, sc := r.set, r.tr, r.K, r.n, r.flat, r.cfg.sc
	docs, norms := flat.DocVectors(), flat.Norms()
	m := docs.Rows()
	matches := make([]topk.Match, 0, topN)
	passes := float64(2 * n) // a rung's counters see the warm pass and the timed one

	start := time.Now()
	ann, err := ivf.Train(docs, norms, ivf.TrainOptions{NList: sc.topics, Seed: 1})
	if err != nil {
		return err
	}
	set("ivf.train_s", time.Since(start).Seconds(), 1)
	var cand []int32
	r.med("ivf.probe_us", tr.rung("ivf.probe", "ivf.search", K, K, nil, func(q *lq) {
		cand, _ = ann.AppendProbeDocs(cand[:0], q.pq, q.qn, sc.nprobe)
	}))
	var cells, scoredDocs int
	r.med("ivf.search_us", tr.rung("ivf.search", "segment.ann", K, K, nil, func(q *lq) {
		var st ivf.ProbeStats
		matches, st = ann.AppendSearch(matches[:0], docs, norms, q.pq, q.qn, topN, sc.nprobe)
		cells, scoredDocs = cells+st.Cells, scoredDocs+st.Docs
	}))
	set("ivf.cells_probed_per_query", float64(cells)/passes, 2*n)
	set("ivf.docs_scored_per_query", float64(scoredDocs)/passes, 2*n)
	set("ivf.recall_at_10", r.fidelity(func(q *lq) []topk.Match {
		ms, _ := ann.Search(docs, norms, q.pq, q.qn, topN, sc.nprobe)
		return ms
	}), n)
	set("ivf.bytes_per_doc", float64(len(ann.Encode()))/float64(m), 0)

	var scanned, reranked int
	quantUS := r.med("quant.search_us", tr.rung("quant.search", "segment.quant", K, K, nil, func(q *lq) {
		var st quant.ScanStats
		matches, st = r.qm.AppendSearch(matches[:0], docs, norms, q.pq, q.qn, topN, sc.quantBeta)
		scanned, reranked = scanned+st.Scanned, reranked+st.Reranked
	}))
	set("quant.scan_ns_per_doc", quantUS*1e3/(float64(scanned)/passes), n)
	set("quant.reranked_per_query", float64(reranked)/passes, 2*n)
	set("quant.overlap_at_10", r.fidelity(func(q *lq) []topk.Match {
		ms, _ := r.qm.AppendSearch(nil, docs, norms, q.pq, q.qn, topN, sc.quantBeta)
		return ms
	}), n)
	set("quant.bytes_per_doc", float64(r.qm.Bytes())/float64(m), 0)

	// segment: one segment holding the flat index, the four tier routes.
	global := make([]int, m)
	for j := range global {
		global[j] = j
	}
	seg, err := segment.New(flat, global, nil, true)
	if err != nil {
		return err
	}
	if seg, err = seg.WithAnn(ann); err != nil {
		return err
	}
	if seg, err = seg.WithQuant(r.qm); err != nil {
		return err
	}
	segs := []*segment.Segment{seg}
	for _, route := range []struct {
		name string
		opts segment.ProbeOptions
	}{
		{"exact", segment.ProbeOptions{}},
		{"ann", segment.ProbeOptions{NProbe: sc.nprobe}},
		{"quant", segment.ProbeOptions{Beta: sc.quantBeta}},
		{"composed", segment.ProbeOptions{NProbe: sc.nprobe, Beta: sc.quantBeta}},
	} {
		r.med("segment."+route.name+"_us", tr.rung("segment."+route.name, "shard.search", K, K, nil, func(q *lq) {
			ms, _ := segment.SearchSparseOpts(segs, q.terms, q.weights, topN, route.opts)
			sink += ms[0].Score
		}))
	}
	return nil
}

// serving is the top of the ladder on the index the workload serves: ir,
// shard, retrieval, httpapi in this process, then lsiserve (and the
// router) over loopback, and the self times between them.
func (r *replay) serving() error {
	ctx, set, tr, K, n, sys := r.ctx, r.set, r.tr, r.K, r.n, r.sys
	wl, sc := r.cfg.wl, r.cfg.sc

	// ir: text to terms.
	pipe := &ir.Pipeline{}
	var tokens int
	r.pipeline = r.med("ir.pipeline_us", tr.rung("ir.pipeline", "retrieval.search", K, K, nil, func(q *lq) {
		tokens += len(pipe.Terms(q.text))
	}))
	set("ir.tokens_per_query", float64(tokens)/float64(2*n), 2*n)

	// shard: the sharded workloads' own backend, opened from what they
	// serve; the unsharded workload's backend is lsi.search.
	served := sys.indexPath
	if wl.fanout {
		served = sys.fullDir
	}
	foldIns := 1.0
	if wl.shards > 0 {
		scfg := shard.Config{}
		var opts segment.ProbeOptions
		if wl.tiered {
			scfg.ANNList, scfg.ANNProbe, scfg.Quantize = sc.topics, sc.nprobe, true
			opts = segment.ProbeOptions{NProbe: sc.nprobe, Beta: sc.quantBeta}
		}
		start := time.Now()
		sx, err := shard.Open(served, scfg)
		if err != nil {
			return err
		}
		r.sx = sx
		set("shard.open_s", time.Since(start).Seconds(), 1)
		r.backend = r.med("shard.search_us", tr.rung("shard.search", "retrieval.search", K, K, nil, func(q *lq) {
			ms, _ := sx.SearchSparseOpts(q.terms, q.weights, topN, opts)
			sink += ms[0].Score
		}))
		foldIns = float64(wl.shards)
	}

	// retrieval and httpapi: the served index opened the way lsiserve
	// opens it, cache and tiers included.
	openOpts := []retrieval.Option{retrieval.WithQueryCache(64 << 20)}
	if wl.tiered {
		openOpts = append(openOpts, retrieval.WithANN(sc.topics, sc.nprobe), retrieval.WithQuantized(sc.quantBeta))
	}
	start := time.Now()
	rix, err := retrieval.Open(served, openOpts...)
	if err != nil {
		return err
	}
	defer rix.Close()
	set("retrieval.open_s", time.Since(start).Seconds(), 1)
	set("retrieval.memory_bytes_per_doc", float64(rix.Stats().MemoryBytes)/float64(rix.NumDocs()), 0)

	lookups := func() (hit, all int64) {
		cs, _ := rix.CacheStats()
		return cs.Hits, cs.Hits + cs.Misses + cs.Coalesced
	}
	for _, q := range r.fresh() {
		_, _ = rix.Search(ctx, q.text, topN)
	}
	hit0, all0 := lookups()
	var searchErr error
	retrievalUS := r.med("retrieval.search_us", tr.rung("retrieval.search", "httpapi.search", nil, r.fresh(), nil, func(q *lq) {
		if _, err := rix.Search(ctx, q.text, topN); err != nil {
			searchErr = err
		}
	}))
	if searchErr != nil {
		return searchErr
	}
	hit1, all1 := lookups()
	// A cache hit skips the backend, and the rungs are medians: the backend
	// is inside the retrieval rung only when the median request is a miss.
	backendUS := r.backend
	if 2*(hit1-hit0) > all1-all0 {
		backendUS = 0
	}
	retrievalSelf := retrievalUS - r.pipeline - backendUS
	set("retrieval.self_us", retrievalSelf, n)

	r.med("cache.hit_us", tr.rung("cache.hit", "retrieval.search", K[:1], K, nil, func(*lq) {
		_, _ = rix.Search(ctx, K[0].text, topN)
	}))

	handler := httpapi.NewHandler(rix, httpapi.Options{})
	var respBytes, notOK int
	serve := func(q *lq) {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/search", bytes.NewReader(q.body)))
		respBytes += rec.Body.Len()
		if rec.Code != http.StatusOK {
			notOK++
		}
	}
	for _, q := range r.fresh() {
		serve(&q)
	}
	respBytes, notOK = 0, 0
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	httpapiUS := r.med("httpapi.search_us", tr.rung("httpapi.search", "lsiserve.loopback", nil, r.fresh(), nil, serve))
	runtime.ReadMemStats(&ms1)
	if notOK > 0 {
		return fmt.Errorf("httpapi rung: %d of %d requests not 200", notOK, n)
	}
	set("httpapi.self_us", httpapiUS-retrievalUS, n)
	set("httpapi.allocs_per_req", float64(ms1.Mallocs-ms0.Mallocs)/float64(n), n)
	set("httpapi.resp_bytes", float64(respBytes)/float64(n), n)

	// lsiserve: the same requests over loopback on one connection, first
	// untraced (plain timing, no span) and then as a rung; the gap between
	// the two medians is what recording spans costs.
	cl := newClient()
	defer cl.close()
	var sendErr error
	sendTo := func(base string) func(q *lq) {
		return func(q *lq) {
			if _, err := cl.search(ctx, base, q.body); err != nil {
				sendErr = err
			}
		}
	}
	send := sendTo(sys.target)
	for _, q := range r.fresh() {
		send(&q)
	}
	untraced := make([]float64, 0, n)
	for _, q := range r.fresh() {
		s := time.Now()
		send(&q)
		untraced = append(untraced, float64(time.Since(s).Nanoseconds())/1e3)
	}
	untracedUS := median(untraced)
	topName := "lsiserve.loopback"
	if wl.fanout {
		topName = "cluster.router"
	}
	topUS := median(tr.rung(topName, "", nil, r.fresh(), nil, send))
	set("bench.trace_overhead_share", (topUS-untracedUS)/untracedUS, n)
	loopbackUS := topUS
	selfSum := 0.0
	if wl.fanout {
		// The slowest of the three nodes sets each merged result: send the
		// query to each node in turn and keep the longest.
		nodeUS := make([]float64, n)
		for _, p := range sys.nodes {
			for i, us := range tr.rung("lsiserve.loopback", "cluster.router", r.fresh(), r.fresh(), nil, sendTo(p.url)) {
				nodeUS[i] = max(nodeUS[i], us)
			}
		}
		loopbackUS = median(nodeUS)
		set("cluster.router_us", topUS, n)
		set("cluster.node_us", loopbackUS, n)
		set("cluster.self_us", topUS-loopbackUS, n)
		selfSum += max(topUS-loopbackUS, 0)
	}
	if sendErr != nil {
		return fmt.Errorf("loopback rung: %w", sendErr)
	}
	set("lsiserve.loopback_us", loopbackUS, n)
	set("lsiserve.self_us", loopbackUS-httpapiUS, n)

	// Do the layers add up, and does the scan own the request?
	for _, self := range []float64{loopbackUS - httpapiUS, httpapiUS - retrievalUS, retrievalSelf, r.pipeline, backendUS} {
		selfSum += max(self, 0)
	}
	set("bench.self_sum_share", selfSum/topUS, n)
	if backendUS > 0 {
		set("bench.scan_share", max(backendUS-foldIns*r.project, 0)/topUS, n)
	}
	return nil
}

// ingest replays the write path bottom up: fold-in into a live segment,
// the compaction of a sealed one, the shard layer's AddBatch, and the
// WAL's append and replay.
func (r *replay) ingest() error {
	set, tr, flat, sx, sc := r.set, r.tr, r.flat, r.sx, r.cfg.sc
	src := r.in.heldOut(streamIngest)
	batches := 4 * sc.sealEvery / sc.ingestBatch // four seals' worth
	type batch struct {
		docs    []retrieval.Document
		terms   [][]int
		weights [][]float64
	}
	bs := make([]lq, batches) // a rung per batch; lq carries only the index
	all := make([]batch, batches)
	for b := range all {
		bs[b].id = b
		for i := 0; i < sc.ingestBatch; i++ {
			d := retrieval.Document{ID: fmt.Sprintf("h%06d", b*sc.ingestBatch+i), Text: src.text()}
			t, w := sparseQuery(r.vocab, d.Text)
			all[b].docs = append(all[b].docs, d)
			all[b].terms, all[b].weights = append(all[b].terms, t), append(all[b].weights, w)
		}
	}
	perDoc := func(us []float64) float64 { return median(us) / float64(sc.ingestBatch) }

	// segment: copy-on-write fold-in, sealing at sealEvery as the shard does.
	live, err := segment.New(flat.EmptyLike(), nil, nil, false)
	if err != nil {
		return err
	}
	var sealed []*segment.Segment
	var rungErr error
	next := flat.NumDocs()
	set("segment.extend_us_per_doc", perDoc(tr.rung("segment.extend", "shard.addbatch", nil, bs, nil, func(q *lq) {
		b := &all[q.id]
		global := make([]int, len(b.terms))
		for i := range global {
			global[i] = next
			next++
		}
		grown, err := live.Extend(b.terms, b.weights, global)
		if err != nil {
			rungErr = err
			return
		}
		live = grown
		if live.Len() >= sc.sealEvery {
			sealed = append(sealed, live)
			live, rungErr = segment.New(flat.EmptyLike(), nil, nil, false)
		}
	})), batches)
	if rungErr != nil {
		return rungErr
	}
	var compactS []float64
	for _, s := range sealed {
		start := time.Now()
		if _, err := segment.Compact([]*segment.Segment{s}, flat.NumTerms(), segment.CompactOptions{K: sc.rank, Seed: 1}); err != nil {
			return err
		}
		compactS = append(compactS, time.Since(start).Seconds())
	}
	set("segment.compact_s", median(compactS), len(compactS))

	// shard: AddBatch on the opened index (no compactor running: shard.Open's default).
	set("shard.addbatch_us_per_doc", perDoc(tr.rung("shard.addbatch", "retrieval.add", nil, bs, nil, func(q *lq) {
		b := &all[q.id]
		docs := make([]shard.Doc, len(b.docs))
		for i := range docs {
			docs[i] = shard.Doc{ID: b.docs[i].ID, Terms: b.terms[i], Weights: b.weights[i]}
		}
		if _, err := sx.AddBatch(docs); err != nil {
			rungErr = err
		}
	})), batches)
	if rungErr != nil {
		return rungErr
	}

	// wal: one fsync'd record per batch, then the replay a boot pays.
	log, err := wal.Open(filepath.Join(r.cfg.workDir, "ladder-wal"))
	if err != nil {
		return err
	}
	defer log.Close()
	var walBytes int
	payloads := make([][]byte, batches)
	for b := range all {
		if payloads[b], err = json.Marshal(retrieval.WALBatch{First: b * sc.ingestBatch, Docs: all[b].docs}); err != nil {
			return err
		}
		walBytes += len(wal.AppendRecord(nil, payloads[b]))
	}
	set("wal.append_us", median(tr.rung("wal.append", "retrieval.add", nil, bs, nil, func(q *lq) {
		if err := log.Append(payloads[q.id]); err != nil {
			rungErr = err
		}
	})), batches)
	if rungErr != nil {
		return rungErr
	}
	set("wal.bytes_per_doc", float64(walBytes)/float64(batches*sc.ingestBatch), 0)
	start := time.Now()
	replayed := 0
	if err := log.Replay(func(p []byte) error {
		var b retrieval.WALBatch
		if err := json.Unmarshal(p, &b); err != nil {
			return err
		}
		replayed += len(b.Docs)
		return nil
	}); err != nil {
		return err
	}
	set("wal.replay_docs_per_s", float64(replayed)/time.Since(start).Seconds(), replayed)
	return nil
}
