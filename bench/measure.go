package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/retrieval"
)

// loadOutcome is what one warm-up and measured span produced.
type loadOutcome struct {
	search        loadResult
	span          time.Duration
	writer        writerResult // ingest_mixed only
	ackedDocs     int
	tally         tally             // searches, ingest batches and the final numDocs assertion
	before, after map[string]scrape // the servers' counters as the span opened and after it closed
	cpuS          float64           // CPU seconds the servers used in between
	compacting    compactingSampler
}

// runLoad drives the workload's traffic at a freshly booted system for
// the warm-up and one measured span: two closed-loop search clients, or on
// ingest_mixed one of them and the paced writer.
func runLoad(ctx context.Context, cfg *runConfig, in *inputs, sys *system, chk *checked, nextText func() string, span time.Duration) (*loadOutcome, error) {
	wl, sc := cfg.wl, cfg.sc
	out := &loadOutcome{span: span}
	load := &searchLoad{base: sys.target, clients: 2, warmup: sc.warmup, span: span}
	measured := sc.warmup + span
	loadCtx, stop := context.WithCancel(ctx)
	defer stop()
	producerDone := make(chan struct{})
	if wl.zipf {
		close(producerDone)
		pick := make([]func() query, load.clients)
		for c := range pick {
			pick[c] = zipfPicker(cfg.seed*1000003+streamZipf0+int64(c), chk.set)
		}
		load.next = func(c int) query { return pick[c]() }
		if !wl.ingest { // once documents arrive the pre-ingest answers are history
			load.verify = func(q query, rs []retrieval.Result) error {
				if q.id >= len(chk.refs) {
					return nil // the tail of the set has no reference
				}
				return sameAnswer(rs, chk.refs[q.id])
			}
		}
	} else {
		// All-distinct queries are made as they are needed, in seed order,
		// by one producer: however fast the server gets, the stream never
		// runs out and never repeats.
		ch := make(chan query, 256) // enough that two clients never wait on the producer
		go func() {
			defer close(producerDone)
			defer close(ch)                                        // a client waiting on a cancelled run gets the zero query and stops
			for id := sc.oracleQueries + sc.checkQueries; ; id++ { // past any checked query's id
				select {
				case ch <- newQuery(id, nextText()):
				case <-loadCtx.Done():
					return
				}
			}
		}()
		load.next = func(int) query { return <-ch }
	}

	t0 := time.Now().Add(10 * time.Millisecond) // warm-up starts here, for every goroutine of the load
	firstWindow := t0.Add(sc.warmup)
	var writerTally tally
	writerDone := make(chan struct{})
	if wl.ingest {
		load.clients = 1
		bodies, err := in.ingestBodies(sc, measured)
		if err != nil {
			return nil, err
		}
		wcl := newClient()
		defer wcl.close()
		go func() {
			defer close(writerDone)
			out.writer = pacedWriter(realClock{}, t0, sc.ingestEvery, t0.Add(measured), firstWindow, func(i int) error {
				writerTally.attempted++
				code, data, err := wcl.post(loadCtx, sys.target+"/v1/docs:batch", bodies[i])
				if err == nil && code/100 != 2 {
					err = fmt.Errorf("status %d: %s", code, strings.TrimSpace(string(data)))
				}
				if err != nil {
					writerTally.fail("batch %d: %v", i, err)
					return err
				}
				out.ackedDocs += sc.ingestBatch
				return nil
			})
		}()
		out.compacting.start(loadCtx, sys.primary.url, firstWindow)
	} else {
		close(writerDone)
	}

	// The servers' counters are read as the span opens and after it
	// closes, so the counts cover the measured time only.
	var (
		cpu0       float64
		beforeErr  error
		beforeDone = make(chan struct{})
	)
	go func() {
		defer close(beforeDone)
		time.Sleep(time.Until(firstWindow))
		if out.before, beforeErr = scrapeAll(loadCtx, sys); beforeErr == nil {
			cpu0, beforeErr = cpuSeconds(sys)
		}
	}()
	out.search = load.run(loadCtx, t0)
	<-writerDone
	<-beforeDone
	out.compacting.stop()
	// The producer shares nextText with whoever runs next (the ladder): it
	// has to be gone before this returns.
	stop()
	<-producerDone
	if beforeErr != nil {
		return nil, beforeErr
	}
	var err error
	if out.after, err = scrapeAll(ctx, sys); err != nil {
		return nil, err
	}
	cpu1, err := cpuSeconds(sys)
	if err != nil {
		return nil, err
	}
	out.cpuS = cpu1 - cpu0
	out.tally = out.search.tally
	out.tally.add(writerTally)

	if wl.ingest {
		// Every acked document, and nothing else, is in the index.
		out.tally.attempted++
		want := sys.ix.NumDocs() + out.ackedDocs
		var st retrieval.Stats
		body, code, err := get(ctx, sys.primary.url+"/v1/stats")
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("status %d", code)
		}
		if err == nil {
			err = json.Unmarshal(body, &st)
		}
		if err == nil && st.NumDocs != want {
			err = fmt.Errorf("numDocs %d, want %d (%d acked)", st.NumDocs, want, out.ackedDocs)
		}
		if err != nil {
			out.tally.fail("/v1/stats after ingest: %v", err)
		}
	}
	return out, nil
}

// ingestBodies renders the /v1/docs:batch bodies the writer is due to
// send in span from the held-out tenth of the corpus, once per run, so
// that generating a batch is never charged to its ack and every boot of
// the run is sent the same documents.
func (in *inputs) ingestBodies(sc scale, span time.Duration) ([][]byte, error) {
	n := int(span/sc.ingestEvery) + 2
	if n*sc.ingestBatch > len(in.held) {
		return nil, fmt.Errorf("the writer needs %d held-out documents, the corpus holds %d", n*sc.ingestBatch, len(in.held))
	}
	type doc struct {
		ID   string `json:"id"`
		Text string `json:"text"`
	}
	for b := len(in.bodies); b < n; b++ {
		docs := make([]doc, sc.ingestBatch)
		for i, d := range in.held[b*sc.ingestBatch : (b+1)*sc.ingestBatch] {
			docs[i] = doc{ID: d.ID, Text: d.Text}
		}
		body, err := json.Marshal(map[string]any{"docs": docs})
		if err != nil {
			return nil, err
		}
		in.bodies = append(in.bodies, body)
	}
	return in.bodies[:n], nil
}

// cpuSeconds is the CPU time the server processes have used between them.
func cpuSeconds(sys *system) (float64, error) {
	var sum float64
	for _, p := range sys.procs() {
		c, err := p.cpuSeconds()
		if err != nil {
			return 0, err
		}
		sum += c
	}
	return sum, nil
}

// scrapeAll reads every process's /metrics, keyed by process name.
func scrapeAll(ctx context.Context, sys *system) (map[string]scrape, error) {
	out := map[string]scrape{}
	for _, p := range sys.procs() {
		s, err := scrapeMetrics(ctx, p.url)
		if err != nil {
			return nil, err
		}
		out[p.name] = s
	}
	return out, nil
}

// counted turns the servers' own counters, read before and after each
// boot's measured span and summed over the boots, into the per-layer
// figures that are counts rather than timings.
func counted(set func(string, float64, int), wl workload, loads []*loadOutcome) {
	// sum adds series' increase over every span, on the processes whose
	// name pick accepts.
	sum := func(series string, pick func(proc string) bool) float64 {
		var d float64
		for _, ld := range loads {
			for name, after := range ld.after {
				if pick(name) {
					d += after[series] - ld.before[name][series]
				}
			}
		}
		return d
	}
	router := func(name string) bool { return name == "router" }
	node := func(name string) bool { return name != "router" }
	front := node
	if wl.fanout {
		front = router
	}

	const searchDur = `lsi_http_request_duration_seconds_%s{route="search"}`
	if n := sum(fmt.Sprintf(searchDur, "count"), front); n > 0 {
		set("httpapi.server_mean_us", sum(fmt.Sprintf(searchDur, "sum"), front)/n*1e6, int(n))
	}
	hit := sum(`lsi_cache_lookups_total{result="hit"}`, node)
	miss := sum(`lsi_cache_lookups_total{result="miss"}`, node)
	coalesced := sum(`lsi_cache_lookups_total{result="coalesced"}`, node)
	if lookups := hit + miss + coalesced; lookups > 0 {
		set("cache.hit_ratio", hit/lookups, int(lookups))
		set("cache.coalesced_share", coalesced/lookups, int(lookups))
	}
	set("cache.evictions", sum("lsi_cache_evictions_total", node), 0)
	set("shard.compactions", sum("lsi_index_compactions_total", node), 0)

	// Labelled families: every series of the last boot's final scrape.
	last := loads[len(loads)-1].after
	var shed, segments float64
	for name, after := range last {
		for series, v := range after {
			switch {
			case strings.HasPrefix(series, "lsi_http_shed_total"):
				shed += sum(series, func(n string) bool { return n == name })
			case strings.HasPrefix(series, "lsi_shard_segments{") && node(name):
				segments += v
			}
		}
	}
	set("httpapi.shed", shed, 0)
	set("shard.segments_end", segments, 0)

	if wl.fanout {
		set("cluster.hedges", sum("lsi_cluster_hedges_total", router), 0)
		set("cluster.retries", sum("lsi_cluster_retries_total", router), 0)
		set("cluster.partials", sum("lsi_cluster_partial_results_total", router), 0)
		set("cluster.node_errors", sum("lsi_cluster_node_errors_total", router), 0)
	}

	var cpuS float64
	var attempted, busy, polls int
	for _, ld := range loads {
		cpuS, attempted = cpuS+ld.cpuS, attempted+ld.search.tally.attempted
		busy, polls = busy+ld.compacting.busy, polls+ld.compacting.samples
	}
	if attempted > 0 {
		set("lsiserve.cpu_ms_per_search", cpuS*1e3/float64(attempted), attempted)
	}
	if polls > 0 {
		set("shard.compacting_share", float64(busy)/float64(polls), polls)
	}
}

// compactingSampler polls lsi_index_compacting at 10 Hz through the
// measured span: the share of samples that read 1 is the share of the
// time a compaction was running.
type compactingSampler struct {
	done    chan struct{}
	cancel  context.CancelFunc
	samples int
	busy    int
}

func (c *compactingSampler) start(ctx context.Context, base string, from time.Time) {
	ctx, c.cancel = context.WithCancel(ctx)
	c.done = make(chan struct{})
	go func() {
		defer close(c.done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case now := <-tick.C:
				if now.Before(from) {
					continue
				}
				if s, err := scrapeMetrics(ctx, base); err == nil {
					c.samples++
					if s["lsi_index_compacting"] == 1 {
						c.busy++
					}
				}
			}
		}
	}()
}

func (c *compactingSampler) stop() {
	if c.done != nil {
		c.cancel()
		<-c.done
	}
}
