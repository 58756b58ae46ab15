package lsi

import (
	"fmt"

	"repro/internal/mat"
	"repro/internal/par"
)

// AppendDocument folds a new term-space document vector into the index
// without recomputing the SVD (the standard LSI "folding-in" update: the
// new document is represented by Uₖᵀ·d, exactly how queries are projected,
// and appended to the document matrix). It returns the new document's ID,
// or an error if the vector length does not match the vocabulary — the
// same validated contract as AppendDocuments, and the index is left
// unchanged on error.
//
// Folding-in keeps the original latent space fixed, so it is exact for
// documents drawn from the same corpus model and degrades as the corpus
// drifts; rebuild the index periodically when adding many documents.
//
// Fold-in mutates the index and is not synchronized: callers must not
// run AppendDocument/AppendDocuments concurrently with each other or
// with searches. (Searches against an index that is not being mutated
// are safe to run concurrently.)
func (ix *Index) AppendDocument(d []float64) (int, error) {
	if len(d) != ix.numTerms {
		return 0, fmt.Errorf("lsi: document has %d terms, want %d", len(d), ix.numTerms)
	}
	proj := mat.MulTVec(ix.uk, d)
	m, k := ix.docs.Dims()
	grown := mat.NewDense(m+1, k)
	copy(grown.RawData(), ix.docs.RawData())
	grown.SetRow(m, proj)
	norms := make([]float64, m+1)
	copy(norms, ix.norms)
	norms[m] = mat.Norm(proj)
	// norms is assigned before docs so the docs row count never exceeds
	// the norms length between the two stores — but these are plain,
	// unsynchronized writes: only the documented "no concurrent fold-in
	// and search" contract makes the update safe.
	ix.norms = norms
	ix.docs = grown
	return m, nil
}

// MustAppend is AppendDocument for callers that treat a length mismatch as
// a programming error: it panics instead of returning the error.
func (ix *Index) MustAppend(d []float64) int {
	id, err := ix.AppendDocument(d)
	if err != nil {
		panic(err.Error())
	}
	return id
}

// EmptyLike returns a new index sharing this index's latent space (basis
// and singular values) but holding zero documents. It is the seed of a
// fresh fold-in segment in the sharded index: documents extended into it
// are represented exactly as AppendDocument would represent them here.
func (ix *Index) EmptyLike() *Index {
	return &Index{
		k:        ix.k,
		numTerms: ix.numTerms,
		uk:       ix.uk,
		sigma:    ix.sigma,
		docs:     mat.NewDense(0, ix.k),
		norms:    nil,
		mapped:   ix.mapped,
	}
}

// ExtendedSparse returns a NEW index with the given sparse term-space
// documents folded in, leaving the receiver untouched: the basis and
// singular values are shared, the document matrix and norms are copied
// and grown. terms[i]/weights[i] is document i in the sorted sparse form
// the retrieval layer produces; with terms strictly ascending the new
// rows are bitwise identical to AppendDocuments over the densified
// vectors. Because the receiver is immutable under this call, readers
// holding it concurrently are safe — this is the copy-on-write primitive
// behind the sharded index's live segment.
//
// It validates every document before building anything: a length mismatch
// or out-of-range term returns an error and allocates nothing.
func (ix *Index) ExtendedSparse(terms [][]int, weights [][]float64) (*Index, error) {
	if len(terms) != len(weights) {
		return nil, fmt.Errorf("lsi: %d term slices but %d weight slices", len(terms), len(weights))
	}
	for i := range terms {
		if len(terms[i]) != len(weights[i]) {
			return nil, fmt.Errorf("lsi: document %d has %d terms but %d weights", i, len(terms[i]), len(weights[i]))
		}
		for _, t := range terms[i] {
			if t < 0 || t >= ix.numTerms {
				return nil, fmt.Errorf("lsi: document %d term %d out of range [0,%d)", i, t, ix.numTerms)
			}
		}
	}
	m, k := ix.docs.Dims()
	grown := mat.NewDense(m+len(terms), k)
	copy(grown.RawData(), ix.docs.RawData())
	norms := make([]float64, m+len(terms))
	copy(norms, ix.norms)
	par.For(len(terms), par.GrainFor(k), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := grown.Row(m + i)
			mat.MulTVecSparse(ix.uk, terms[i], weights[i], row)
			norms[m+i] = mat.Norm(row)
		}
	})
	return &Index{k: ix.k, numTerms: ix.numTerms, uk: ix.uk, sigma: ix.sigma, docs: grown, norms: norms, mapped: ix.mapped}, nil
}

// AppendDocuments folds a batch of term-space document vectors into the
// index, returning the ID of the first appended document. It validates all
// vectors before mutating the index, so a length error leaves the index
// unchanged. The independent per-document folds fan out across par
// workers, each writing its own row of the grown matrix; results are
// bitwise identical to folding serially.
func (ix *Index) AppendDocuments(ds [][]float64) (int, error) {
	for i, d := range ds {
		if len(d) != ix.numTerms {
			return 0, fmt.Errorf("lsi: document %d has %d terms, want %d", i, len(d), ix.numTerms)
		}
	}
	m, k := ix.docs.Dims()
	grown := mat.NewDense(m+len(ds), k)
	copy(grown.RawData(), ix.docs.RawData())
	norms := make([]float64, m+len(ds))
	copy(norms, ix.norms)
	par.For(len(ds), par.GrainFor(ix.numTerms*k), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := grown.Row(m + i)
			mat.MulTVecInto(ix.uk, ds[i], row)
			norms[m+i] = mat.Norm(row)
		}
	})
	// Same assignment order and concurrency contract as AppendDocument.
	ix.norms = norms
	ix.docs = grown
	return m, nil
}
