package main

import (
	"context"
	"fmt"

	"repro/retrieval"
)

// checked is the outcome of the untimed answer check.
type checked struct {
	tally  tally
	recall float64              // mean overlap of served and reference top-10 IDs
	n      int                  // answers behind recall
	set    []query              // Zipf workloads: the fixed query set, most popular first
	refs   [][]retrieval.Result // Zipf workloads: the exact answers to the head of the set
}

// check sends the reference queries through the served system once and
// holds the answers to the workload's reference:
//
//   - exact_scan: the naive oracle over the index file the server loaded,
//     and the "nprobe":0 escape hatch is cross-checked against it too;
//   - tiered_ann_quant: the server's own "nprobe":0 answer (sharded
//     indexes score in per-shard spaces the oracle cannot reach), which
//     fixes recall and fails nothing;
//   - ingest_mixed, cluster_fanout: the in-process index's exact answer
//     to the most popular queries of the fixed set (rank ≤ checkQueries,
//     which Zipf(1.1) gives seven requests in eight), before any document
//     is ingested.
func check(ctx context.Context, cfg *runConfig, in *inputs, sys *system, nextText func() string) (*checked, error) {
	wl, sc := cfg.wl, cfg.sc
	cl := newClient()
	defer cl.close()
	out := &checked{}
	var recalls []float64
	// one sends a query and holds the answer to verify; it returns the
	// answer's overlap with the reference IDs, 0 for a failed request.
	one := func(q query, want []string, verify func([]retrieval.Result) error) float64 {
		out.tally.attempted++
		rs, err := cl.search(ctx, sys.target, q.body)
		if err == nil {
			err = structurallySound(rs)
		}
		if err == nil && verify != nil {
			err = verify(rs)
		}
		if err != nil {
			out.tally.fail("check %d: %v", q.id, err)
			return 0
		}
		return overlap(rs, want)
	}
	switch {
	case wl.zipf:
		src := in.shortQueries(streamQueries)
		for i := 0; i < sc.zipfSet; i++ {
			out.set = append(out.set, newQuery(i, src.text()))
		}
		for _, q := range out.set[:sc.checkQueries] {
			ref, err := sys.ix.Search(ctx, q.text, topN)
			if err != nil {
				return nil, fmt.Errorf("reference for query %d: %w", q.id, err)
			}
			out.refs = append(out.refs, ref)
			recalls = append(recalls, one(q, idsOf(ref), func(rs []retrieval.Result) error { return sameAnswer(rs, ref) }))
		}
	case wl.shards == 0:
		flat, meta, err := loadFlat(sys.indexPath)
		if err != nil {
			return nil, err
		}
		orc := newOracle(flat, meta)
		// The oracle costs some 10 ms a query at 51,200 documents, so two
		// workers rank ahead of the sender, a few answers at most: one
		// answer holds a score for every document.
		type ranked struct {
			q         query
			all, best []scored
		}
		const workers = 2
		var lanes [workers]chan ranked
		texts := make([]string, sc.oracleQueries)
		for i := range texts {
			texts[i] = nextText()
		}
		for w := range lanes {
			lanes[w] = make(chan ranked, 2) // two answers ahead a worker: the sender never waits, memory stays small
			go func(w int) {
				defer close(lanes[w])
				for i := w; i < len(texts); i += workers {
					r := ranked{q: newQuery(i, texts[i])}
					r.all, r.best = orc.top(r.q.text, topN)
					select {
					case lanes[w] <- r:
					case <-ctx.Done():
						return
					}
				}
			}(w)
		}
		for i := range texts {
			r, ok := <-lanes[i%workers]
			if !ok {
				return nil, ctx.Err()
			}
			verify := func(rs []retrieval.Result) error { return matchesOracle(rs, r.all, r.best) }
			recalls = append(recalls, one(r.q, idsOfScored(r.best), verify))
			if i%10 == 0 { // the escape hatch the sharded workloads rely on
				one(query{id: i, body: exactBody(r.q.text)}, idsOfScored(r.best), verify)
			}
		}
	default:
		for i := 0; i < sc.checkQueries; i++ {
			q := newQuery(i, nextText())
			out.tally.attempted++
			exact, err := cl.search(ctx, sys.target, exactBody(q.text))
			if err != nil {
				out.tally.fail("check %d (nprobe 0): %v", i, err)
				continue
			}
			recalls = append(recalls, one(q, idsOf(exact), nil))
		}
	}
	out.recall, out.n = mean(recalls), len(recalls)
	return out, nil
}
