// Command annsmoke gates the IVF ANN tier against the paper's corpus
// model end to end: it reads a corpusgen JSON-lines corpus, builds an
// LSI index with WithANN over it, and measures recall@topN and latency
// of the probed path against the exhaustive scan on the same index —
// the exact quantities the PR acceptance bar speaks to. It exits
// non-zero when recall falls below -min-recall or the
// exhaustive-to-ANN latency ratio falls below -min-speedup, so CI can
// use it as a pass/fail smoke (scripts/tier_smoke.sh drives it via
// `make tier-smoke`, beside cmd/quantsmoke; internal/tiersmoke is the
// harness the two share).
//
// Usage:
//
//	corpusgen -topics 128 -docs-per-topic 800 -eps 0.1 -o corpus.jsonl
//	annsmoke -corpus corpus.jsonl -rank 32 -nlist 128 -nprobe 8 \
//	         -min-recall 0.95 -min-speedup 1.0 -o ann-smoke.json
//
// Queries are documents sampled from the corpus itself (the model's
// own distribution), so recall is measured exactly where the paper's
// topic-clustering guarantees apply. Corpus term IDs are rendered as
// letter-only tokens so the text pipeline preserves them one-to-one.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/tiersmoke"
	"repro/retrieval"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "annsmoke: %v\n", err)
		os.Exit(1)
	}
}

// Summary is the machine-readable result of one smoke run: the corpus
// and tier shape, the measured recall, and the per-query latency of
// both paths. It is written as JSON to -o (CI archives ann-smoke.json).
type Summary struct {
	Docs     int `json:"docs"`
	NumTerms int `json:"numTerms"`
	Rank     int `json:"rank"`
	NList    int `json:"nlist"`
	NProbe   int `json:"nprobe"`
	TopN     int `json:"topN"`
	Queries  int `json:"queries"`
	// Recall is the fraction of exhaustive top-N documents the probed
	// path returned, averaged over the query set.
	Recall float64 `json:"recall"`
	// ExhaustiveNsPerQuery and ANNNsPerQuery are wall-clock means over
	// the query set; Speedup is their ratio.
	ExhaustiveNsPerQuery float64 `json:"exhaustive_ns_per_query"`
	ANNNsPerQuery        float64 `json:"ann_ns_per_query"`
	Speedup              float64 `json:"speedup"`
	// DocsScoredPerQuery is the mean candidate count the probed path
	// scored (from the tier's lifetime counters) — the sublinearity
	// evidence next to Docs.
	DocsScoredPerQuery float64 `json:"docs_scored_per_query"`
}

var termToken = tiersmoke.TermToken

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("annsmoke", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var f tiersmoke.Flags
	f.Register(fs, 32)
	nlist := fs.Int("nlist", 128, "IVF cell count")
	nprobe := fs.Int("nprobe", 8, "probe budget for the ANN measurement")
	minRecall := fs.Float64("min-recall", 0, "fail when recall@topn falls below this")
	if err := f.Parse(fs, args); err != nil {
		return err
	}
	s, err := tiersmoke.Load("annsmoke", &f, retrieval.WithANN(*nlist, *nprobe), stderr)
	if err != nil {
		return err
	}
	ix := s.Index
	defer ix.Close()

	exhaustive, probed := s.Probe(ctx, f.TopN, 0), s.Probe(ctx, f.TopN, *nprobe)
	// Warm both paths so neither measurement pays first-touch costs.
	for _, search := range []func(string) ([]retrieval.Result, error){exhaustive, probed} {
		if _, err := search(s.Queries[0]); err != nil {
			return err
		}
	}
	truth := make([][]string, len(s.Queries))
	exNs, err := s.Pass(truth, exhaustive)
	if err != nil {
		return err
	}
	before := ix.Stats().ANN
	got := make([][]string, len(s.Queries))
	annNs, err := s.Pass(got, probed)
	if err != nil {
		return err
	}
	after := ix.Stats().ANN
	if before == nil || after == nil || after.Searches-before.Searches != int64(len(s.Queries)) {
		return fmt.Errorf("probed searches bypassed the ANN tier: stats %+v -> %+v", before, after)
	}

	hits, want := 0, 0
	for i := range truth {
		ids := make(map[string]bool, len(truth[i]))
		for _, id := range truth[i] {
			ids[id] = true
		}
		want += len(truth[i])
		for _, id := range got[i] {
			if ids[id] {
				hits++
			}
		}
	}
	if want == 0 {
		return fmt.Errorf("exhaustive baseline returned no results")
	}

	sum := Summary{
		Docs: s.Docs, NumTerms: s.NumTerms, Rank: f.Rank,
		NList: *nlist, NProbe: *nprobe, TopN: f.TopN, Queries: len(s.Queries),
		Recall:               float64(hits) / float64(want),
		ExhaustiveNsPerQuery: exNs,
		ANNNsPerQuery:        annNs,
		Speedup:              exNs / annNs,
		DocsScoredPerQuery:   float64(after.DocsScored-before.DocsScored) / float64(len(s.Queries)),
	}
	fmt.Fprintf(stderr, "annsmoke: recall@%d=%.4f speedup=%.2fx (%.0f of %d docs scored per query)\n",
		sum.TopN, sum.Recall, sum.Speedup, sum.DocsScoredPerQuery, sum.Docs)
	if err := tiersmoke.Write(f.Out, stdout, sum); err != nil {
		return err
	}
	if sum.Recall < *minRecall {
		return fmt.Errorf("recall@%d = %.4f below the %.4f gate", sum.TopN, sum.Recall, *minRecall)
	}
	if sum.Speedup < f.MinSpeedup {
		return fmt.Errorf("speedup = %.2fx below the %.2fx gate (exhaustive %.0fns vs ann %.0fns per query)",
			sum.Speedup, f.MinSpeedup, exNs, annNs)
	}
	return nil
}
