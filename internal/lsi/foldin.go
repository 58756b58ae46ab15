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
	return ix.AppendDocuments([][]float64{d})
}

// extended returns ix with n more documents in a new index sharing its
// latent space: fold writes document i into proj, which is stored rounded
// to float32 with the norm of what is stored. Folds fan out across par
// workers, each writing its own row: bitwise the serial result.
func (ix *Index) extended(n, grain int, fold func(i int, proj []float64)) *Index {
	m, k := ix.docs.Dims()
	ext := ix.concat([]*Index{ix}, n)
	par.For(n, grain, func(lo, hi int) {
		proj := make([]float64, k)
		for i := lo; i < hi; i++ {
			fold(i, proj)
			row := ext.docs.Row(m + i)
			mat.Convert(row, proj)
			ext.norms[m+i] = mat.Norm(row)
		}
	})
	return ext
}

// concat returns a new index in ix's latent space holding the documents
// of parts in order, rows and norms copied bit for bit, then extra zero
// rows for the caller to fill.
func (ix *Index) concat(parts []*Index, extra int) *Index {
	m := extra
	for _, p := range parts {
		m += p.docs.Rows()
	}
	out := &Index{k: ix.k, numTerms: ix.numTerms, uk: ix.uk, sigma: ix.sigma, mapped: ix.mapped,
		docs: mat.NewDense32(m, ix.k), norms: make([]float64, m)}
	data, norms := out.docs.RawData(), out.norms
	for _, p := range parts {
		data, norms = data[copy(data, p.docs.RawData()):], norms[copy(norms, p.norms):]
	}
	return out
}

// SameBasis reports whether ix and other share one latent space: the
// same Uₖ matrix, as EmptyLike, ExtendedSparse and Concat pass it on. An
// index loaded from its own file holds its own copy and shares with no
// other; nil shares with nothing.
func (ix *Index) SameBasis(other *Index) bool { return other != nil && ix.uk == other.uk }

// Concat returns one index holding the documents of parts in order. The
// parts must share one latent space — the same Uₖ, as the fold-in
// segments of one shard do — so no decomposition runs: every row and norm
// is copied bit for bit and each document scores exactly what it scored
// in its part.
func Concat(parts ...*Index) (*Index, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("lsi: concatenating no indexes")
	}
	for _, p := range parts[1:] {
		if !p.SameBasis(parts[0]) {
			return nil, fmt.Errorf("lsi: concatenating indexes over different bases")
		}
	}
	return parts[0].concat(parts, 0), nil
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
		docs:     mat.NewDense32(0, ix.k),
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
	return ix.extended(len(terms), par.GrainFor(ix.k), func(i int, proj []float64) {
		mat.MulTVecSparse(ix.uk, terms[i], weights[i], proj)
	}), nil
}

// AppendDocuments folds a batch of term-space document vectors into the
// index, returning the ID of the first appended document. It validates all
// vectors before mutating the index, so a length error leaves the index
// unchanged. The folds fan out across par workers (see extended).
func (ix *Index) AppendDocuments(ds [][]float64) (int, error) {
	for i, d := range ds {
		if len(d) != ix.numTerms {
			return 0, fmt.Errorf("lsi: document %d has %d terms, want %d", i, len(d), ix.numTerms)
		}
	}
	ext := ix.extended(len(ds), par.GrainFor(ix.numTerms*ix.k), func(i int, proj []float64) {
		mat.MulTVecInto(ix.uk, ds[i], proj)
	})
	// norms before docs, so docs never has more rows than norms — plain
	// writes, safe only under the "no concurrent fold-in and search" rule.
	m := ix.docs.Rows()
	ix.norms, ix.docs = ext.norms, ext.docs
	return m, nil
}
