// Command quantsmoke gates the quantized scoring tier against the
// paper's corpus model end to end: it reads a corpusgen JSON-lines
// corpus, builds an LSI index with WithQuantized over it, and measures
// top-N overlap (internal/eval) and latency of the two-stage
// int8-scan-plus-rerank path against the exact float scan on the same
// index — the exact quantities the PR acceptance bar speaks to. It
// exits non-zero when overlap falls below -min-overlap or the
// exact-to-quantized latency ratio falls below -min-speedup, so CI can
// use it as a pass/fail smoke (scripts/quant_smoke.sh drives it via
// `make quant-smoke`).
//
// Usage:
//
//	corpusgen -topics 128 -docs-per-topic 800 -eps 0.1 -o corpus.jsonl
//	quantsmoke -corpus corpus.jsonl -rank 64 -beta 64 \
//	           -min-overlap 0.99 -min-speedup 1.0 -o quant-smoke.json
//
// Queries are documents sampled from the corpus itself (the model's
// own distribution), so fidelity is measured exactly where the paper's
// topic-clustering guarantees apply. The exact baseline is the same
// index's per-request escape hatch (SearchProbe with nprobe=0), so the
// comparison isolates the tier: same decomposition, same vocabulary,
// same weighting — only the scan kernel differs.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/corpus"
	"repro/internal/eval"
	"repro/retrieval"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "quantsmoke: %v\n", err)
		os.Exit(1)
	}
}

// Summary is the machine-readable result of one smoke run: the corpus
// and tier shape, the measured fidelity, and the per-query latency of
// both paths. It is written as JSON to -o (CI archives
// quant-smoke.json).
type Summary struct {
	Docs     int `json:"docs"`
	NumTerms int `json:"numTerms"`
	Rank     int `json:"rank"`
	Beta     int `json:"beta"`
	TopN     int `json:"topN"`
	Queries  int `json:"queries"`
	// Overlap is the top-N overlap (internal/eval.TopKOverlap) between
	// the quantized two-stage ranking and the exact float ranking,
	// averaged over the query set.
	Overlap float64 `json:"overlap"`
	// ExactNsPerQuery and QuantNsPerQuery are wall-clock means over the
	// query set; Speedup is their ratio.
	ExactNsPerQuery float64 `json:"exact_ns_per_query"`
	QuantNsPerQuery float64 `json:"quant_ns_per_query"`
	Speedup         float64 `json:"speedup"`
	// RerankedPerQuery is the mean candidate count stage 2 rescored
	// with the float kernels (from the tier's lifetime counters) —
	// evidence the scan ran two-stage, next to Docs.
	RerankedPerQuery float64 `json:"reranked_per_query"`
	// QuantBytes and FloatBytes compare the int8 shadow's footprint to
	// the float32 document matrix it shadows (the ~4x memory story).
	QuantBytes int64 `json:"quant_bytes"`
	FloatBytes int64 `json:"float_bytes"`
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("quantsmoke", flag.ContinueOnError)
	fs.SetOutput(stderr)
	corpusPath := fs.String("corpus", "", "corpusgen JSON-lines corpus to index (required)")
	rank := fs.Int("rank", 32, "LSI rank")
	beta := fs.Int("beta", 4, "rerank over-fetch: the int8 scan selects topn*beta candidates")
	topN := fs.Int("topn", 10, "result depth for the fidelity measurement")
	nq := fs.Int("queries", 200, "number of queries sampled from the corpus")
	seed := fs.Int64("seed", 1, "query-sampling seed")
	minOverlap := fs.Float64("min-overlap", 0, "fail when top-N overlap falls below this")
	minSpeedup := fs.Float64("min-speedup", 0, "fail when the exact/quantized latency ratio falls below this")
	out := fs.String("o", "-", "summary output path ('-' for stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected positional arguments: %v", fs.Args())
	}
	if *corpusPath == "" {
		return fmt.Errorf("-corpus is required")
	}
	if *nq <= 0 || *topN <= 0 || *beta <= 0 {
		return fmt.Errorf("-queries, -topn, and -beta must be positive")
	}

	f, err := os.Open(*corpusPath)
	if err != nil {
		return err
	}
	c, err := corpus.ReadJSON(f)
	f.Close()
	if err != nil {
		return err
	}
	if len(c.Docs) == 0 {
		return fmt.Errorf("corpus %s is empty", *corpusPath)
	}

	docs := make([]retrieval.Document, len(c.Docs))
	for i := range c.Docs {
		docs[i] = retrieval.Document{ID: fmt.Sprintf("d%06d", i), Text: docText(&c.Docs[i])}
	}
	fmt.Fprintf(stderr, "quantsmoke: indexing %d documents (rank=%d beta=%d)\n", len(docs), *rank, *beta)
	buildStart := time.Now()
	ix, err := retrieval.Build(docs,
		retrieval.WithRank(*rank),
		retrieval.WithEngine(retrieval.EngineRandomized),
		retrieval.WithStopwordRemoval(false),
		retrieval.WithStemming(false),
		retrieval.WithQuantized(*beta))
	if err != nil {
		return err
	}
	defer ix.Close()
	fmt.Fprintf(stderr, "quantsmoke: index built in %v\n", time.Since(buildStart).Round(time.Millisecond))

	rng := rand.New(rand.NewSource(*seed))
	queries := make([]string, *nq)
	for i := range queries {
		queries[i] = docs[rng.Intn(len(docs))].Text
	}

	// Warm both paths so neither measurement pays first-touch costs.
	if _, err := ix.SearchProbe(ctx, queries[0], *topN, 0); err != nil {
		return err
	}
	if _, err := ix.Search(ctx, queries[0], *topN); err != nil {
		return err
	}

	// One timed pass over the query set; out, when non-nil, collects the
	// ranking of each query.
	pass := func(out [][]string, search func(q string) ([]retrieval.Result, error)) (float64, error) {
		start := time.Now()
		for i, q := range queries {
			res, err := search(q)
			if err != nil {
				return 0, err
			}
			if out != nil {
				out[i] = resultIDs(res)
			}
		}
		return float64(time.Since(start).Nanoseconds()) / float64(len(queries)), nil
	}
	// nprobe=0 is the fully exact escape hatch: float kernels over every
	// document, no int8 scan.
	exact := func(q string) ([]retrieval.Result, error) { return ix.SearchProbe(ctx, q, *topN, 0) }
	// The default search on a WithQuantized index is the two-stage path:
	// int8 scan, then exact rerank of the top topn*beta.
	quantized := func(q string) ([]retrieval.Result, error) { return ix.Search(ctx, q, *topN) }

	// Interleave the paths A/B/A/B and keep each path's best pass: the
	// float scan is memory-bandwidth-bound, so a mid-run shift in the
	// machine's effective bandwidth would otherwise charge one path and
	// not the other, making the speedup gate flap.
	truth := make([][]string, len(queries))
	got := make([][]string, len(queries))
	before, _ := ix.QuantStats()
	exNs, err := pass(truth, exact)
	if err != nil {
		return err
	}
	qNs, err := pass(got, quantized)
	if err != nil {
		return err
	}
	after, ok := ix.QuantStats()
	if !ok || after.Searches-before.Searches != int64(len(queries)) {
		return fmt.Errorf("searches bypassed the quantized tier: stats %+v -> %+v", before, after)
	}
	if ex2, err := pass(nil, exact); err != nil {
		return err
	} else if ex2 < exNs {
		exNs = ex2
	}
	if q2, err := pass(nil, quantized); err != nil {
		return err
	} else if q2 < qNs {
		qNs = q2
	}

	s := Summary{
		Docs: len(docs), NumTerms: c.NumTerms, Rank: *rank,
		Beta: *beta, TopN: *topN, Queries: len(queries),
		Overlap:          eval.TopKOverlap(got, truth, *topN),
		ExactNsPerQuery:  exNs,
		QuantNsPerQuery:  qNs,
		Speedup:          exNs / qNs,
		RerankedPerQuery: float64(after.DocsReranked-before.DocsReranked) / float64(len(queries)),
		QuantBytes:       after.Bytes,
		FloatBytes:       int64(len(docs)) * int64(*rank) * 4,
	}
	fmt.Fprintf(stderr, "quantsmoke: overlap@%d=%.4f speedup=%.2fx (%.0f reranked per query; shadow %dB vs float %dB)\n",
		s.TopN, s.Overlap, s.Speedup, s.RerankedPerQuery, s.QuantBytes, s.FloatBytes)

	var w io.Writer = stdout
	if *out != "-" {
		of, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer func() {
			if cerr := of.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}()
		w = of
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s); err != nil {
		return err
	}

	if s.Overlap < *minOverlap {
		return fmt.Errorf("overlap@%d = %.4f below the %.4f gate", s.TopN, s.Overlap, *minOverlap)
	}
	if s.Speedup < *minSpeedup {
		return fmt.Errorf("speedup = %.2fx below the %.2fx gate (exact %.0fns vs quantized %.0fns per query)",
			s.Speedup, *minSpeedup, exNs, qNs)
	}
	return nil
}

func resultIDs(res []retrieval.Result) []string {
	ids := make([]string, len(res))
	for i, r := range res {
		ids[i] = r.ID
	}
	return ids
}

// docText renders a sampled document as text the index pipeline
// preserves verbatim: Tokenize splits on digits, so term IDs become
// letter-only tokens ("x" plus the decimal digits mapped a–j).
func docText(d *corpus.Document) string {
	var b strings.Builder
	for i, t := range d.Terms {
		tok := termToken(t)
		for n := 0; n < d.Counts[i]; n++ {
			b.WriteString(tok)
			b.WriteByte(' ')
		}
	}
	return b.String()
}

func termToken(t int) string {
	const letters = "abcdefghij"
	s := strconv.Itoa(t)
	b := make([]byte, 1, len(s)+1)
	b[0] = 'x'
	for i := 0; i < len(s); i++ {
		b = append(b, letters[s[i]-'0'])
	}
	return string(b)
}
