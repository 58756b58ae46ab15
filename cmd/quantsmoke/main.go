// Command quantsmoke gates the quantized scoring tier against the
// paper's corpus model end to end: it reads a corpusgen JSON-lines
// corpus, builds an LSI index with WithQuantized over it, and measures
// top-N overlap (internal/eval) and latency of the two-stage
// int8-scan-plus-rerank path against the exact float scan on the same
// index — the exact quantities the PR acceptance bar speaks to. It
// exits non-zero when overlap falls below -min-overlap or the
// exact-to-quantized latency ratio falls below -min-speedup, so CI can
// use it as a pass/fail smoke (scripts/tier_smoke.sh drives it via
// `make tier-smoke`, beside cmd/annsmoke; internal/tiersmoke is the
// harness the two share).
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
// index's per-request escape hatch (a Query with NProbe 0), so the
// comparison isolates the tier: same decomposition, same vocabulary,
// same weighting — only the scan kernel differs.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/eval"
	"repro/internal/tiersmoke"
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
	var f tiersmoke.Flags
	f.Register(fs, 32)
	beta := fs.Int("beta", 4, "rerank over-fetch: the int8 scan selects topn*beta candidates")
	minOverlap := fs.Float64("min-overlap", 0, "fail when top-N overlap falls below this")
	if err := f.Parse(fs, args); err != nil {
		return err
	}
	if *beta <= 0 {
		return fmt.Errorf("-beta must be positive")
	}
	s, err := tiersmoke.Load("quantsmoke", &f, retrieval.WithQuantized(*beta), stderr)
	if err != nil {
		return err
	}
	ix := s.Index
	defer ix.Close()

	// nprobe=0 is the fully exact escape hatch: float kernels over every
	// document, no int8 scan. The default search on a WithQuantized index
	// is the two-stage path: int8 scan, then exact rerank of the top
	// topn*beta.
	exact := s.Probe(ctx, f.TopN, 0)
	quantized := func(q string) ([]retrieval.Result, error) { return ix.Search(ctx, q, f.TopN) }
	// Warm both paths so neither measurement pays first-touch costs.
	for _, search := range []func(string) ([]retrieval.Result, error){exact, quantized} {
		if _, err := search(s.Queries[0]); err != nil {
			return err
		}
	}

	// Interleave the paths A/B/A/B and keep each path's best pass: the
	// float scan is memory-bandwidth-bound, so a mid-run shift in the
	// machine's effective bandwidth would otherwise charge one path and
	// not the other, making the speedup gate flap.
	truth := make([][]string, len(s.Queries))
	got := make([][]string, len(s.Queries))
	before := ix.Stats().Quant
	exNs, err := s.Pass(truth, exact)
	if err != nil {
		return err
	}
	qNs, err := s.Pass(got, quantized)
	if err != nil {
		return err
	}
	after := ix.Stats().Quant
	if before == nil || after == nil || after.Searches-before.Searches != int64(len(s.Queries)) {
		return fmt.Errorf("searches bypassed the quantized tier: stats %+v -> %+v", before, after)
	}
	if ex2, err := s.Pass(nil, exact); err != nil {
		return err
	} else if ex2 < exNs {
		exNs = ex2
	}
	if q2, err := s.Pass(nil, quantized); err != nil {
		return err
	} else if q2 < qNs {
		qNs = q2
	}

	sum := Summary{
		Docs: s.Docs, NumTerms: s.NumTerms, Rank: f.Rank,
		Beta: *beta, TopN: f.TopN, Queries: len(s.Queries),
		Overlap:          eval.TopKOverlap(got, truth, f.TopN),
		ExactNsPerQuery:  exNs,
		QuantNsPerQuery:  qNs,
		Speedup:          exNs / qNs,
		RerankedPerQuery: float64(after.DocsReranked-before.DocsReranked) / float64(len(s.Queries)),
		QuantBytes:       after.Bytes,
		FloatBytes:       int64(s.Docs) * int64(f.Rank) * 4,
	}
	fmt.Fprintf(stderr, "quantsmoke: overlap@%d=%.4f speedup=%.2fx (%.0f reranked per query; shadow %dB vs float %dB)\n",
		sum.TopN, sum.Overlap, sum.Speedup, sum.RerankedPerQuery, sum.QuantBytes, sum.FloatBytes)
	if err := tiersmoke.Write(f.Out, stdout, sum); err != nil {
		return err
	}
	if sum.Overlap < *minOverlap {
		return fmt.Errorf("overlap@%d = %.4f below the %.4f gate", sum.TopN, sum.Overlap, *minOverlap)
	}
	if sum.Speedup < f.MinSpeedup {
		return fmt.Errorf("speedup = %.2fx below the %.2fx gate (exact %.0fns vs quantized %.0fns per query)",
			sum.Speedup, f.MinSpeedup, exNs, qNs)
	}
	return nil
}
