package lsi

import (
	"fmt"

	"repro/internal/mat"
	"repro/internal/par"
)

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
// are represented exactly as ExtendedSparse represents them here.
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
// rows are the projections Project gives the densified vectors, bit for
// bit, stored rounded to float32 with the norm of what is stored. Because
// the receiver is immutable under this call, readers holding it
// concurrently are safe — this is the copy-on-write primitive behind the
// sharded index's live segment. The folds fan out across par workers,
// each writing its own row: bitwise the serial result.
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
	ext := ix.concat([]*Index{ix}, len(terms))
	par.For(len(terms), par.GrainFor(k), func(lo, hi int) {
		proj := make([]float64, k)
		for i := lo; i < hi; i++ {
			mat.MulTVecSparse(ix.uk, terms[i], weights[i], proj)
			row := ext.docs.Row(m + i)
			mat.Convert(row, proj)
			ext.norms[m+i] = mat.Norm(row)
		}
	})
	return ext, nil
}
