package retrieval

import (
	"context"
	"fmt"

	"repro/internal/par"
	"repro/internal/vsm"
)

// VSM is the read-only Retriever BuildVSM returns: the conventional
// vector-space model the paper measures LSI against, ranking documents
// by cosine in raw term space through an inverted index. It shares
// Build's text layer, so a query is preprocessed exactly as an LSI index
// built with the same options would preprocess it. It has no latent
// space, and so no tiers, live appends, persistence or query cache.
type VSM struct {
	textLayer
	ix  *vsm.Index
	nnz int // term-document nonzeros, one posting each
}

var _ Retriever = (*VSM)(nil)

// BuildVSM indexes docs for the vector-space baseline. It honours
// WithWeighting, WithStopwordRemoval, WithStemming and WithParallelism;
// WithShards, WithANN, WithQuantized and a positive WithQueryCache need
// an LSI index, and BuildVSM fails with an error naming the option. Like
// Build it returns ErrEmptyCorpus for a corpus that preprocessing
// empties.
func BuildVSM(docs []Document, opts ...Option) (*VSM, error) {
	cfg := newConfig(opts)
	var lsiOnly string
	switch {
	case cfg.shards > 0:
		lsiOnly = "WithShards"
	case cfg.annList > 0:
		lsiOnly = "WithANN"
	case cfg.quantBeta > 0:
		lsiOnly = "WithQuantized"
	case cfg.cacheBytes > 0:
		lsiOnly = "WithQueryCache"
	}
	if lsiOnly != "" {
		return nil, fmt.Errorf("retrieval: BuildVSM: %s applies only to an LSI index (Build)", lsiOnly)
	}
	text, a, err := buildText(docs, cfg)
	if err != nil {
		return nil, err
	}
	return &VSM{textLayer: text, ix: vsm.NewFromMatrix(a), nnz: a.NNZ()}, nil
}

// NumDocs returns the number of indexed documents.
func (v *VSM) NumDocs() int { return v.ix.NumDocs() }

// Stats describes the index: backend "vsm", rank 0, and a memory
// estimate of the postings, the document norms and the text layer.
func (v *VSM) Stats() Stats {
	st := v.stats("vsm")
	st.NumDocs, st.NumTerms = v.ix.NumDocs(), v.ix.NumTerms()
	st.MemoryBytes += int64(v.nnz)*16 + int64(st.NumDocs)*8
	return st
}

// Search returns the topN documents (all if topN <= 0) by cosine to the
// query in term space. Documents that share no term with
// the query are not returned.
func (v *VSM) Search(ctx context.Context, query string, topN int) ([]Result, error) {
	q, err := v.textQuery(ctx, query)
	if err != nil {
		return nil, err
	}
	res := v.search(q.Terms, q.Weights, topN)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return res, nil
}

// Query implements Retriever for texts, the batch shape every backend
// shares (fanOut): whole queries fan out across CPUs, ctx is checked
// between chunks of batchChunk queries, and a query with no
// in-vocabulary terms yields an empty (non-nil) result slice. A vector or
// a probe budget needs a latent space, so both fail with ErrUnsupported.
func (v *VSM) Query(ctx context.Context, q Query) (Answer, error) {
	if q.Vector != nil || q.NProbe != nil {
		return Answer{}, fmt.Errorf("%w: the VSM baseline ranks text queries in term space only", ErrUnsupported)
	}
	out, err := fanOut(ctx, len(q.Texts), par.GrainFor(1+v.NumDocs()), func(i int) []Result {
		terms, weights, _ := v.querySparse(q.Texts[i])
		return v.search(terms, weights, q.TopN)
	})
	if err != nil {
		return Answer{}, err
	}
	return Answer{Results: out}, nil
}

// search scores a sorted sparse query and names the hits.
func (v *VSM) search(terms []int, weights []float64, topN int) []Result {
	ms := v.ix.SearchSparse(terms, weights, topN)
	out := make([]Result, len(ms))
	for i, m := range ms {
		out[i] = Result{Doc: m.Doc, ID: v.docID(m.Doc), Score: m.Score}
	}
	return out
}
