package corpus

import (
	"fmt"
	"math"

	"repro/internal/sparse"
)

// Weighting selects the function of raw term counts stored in the
// term-document matrix. Section 2 of the paper notes "there are several
// candidates for the right function to be used here (0-1, frequency, etc.),
// and the precise choice does not affect our results" — an ablation
// benchmark verifies that claim for the Table 1 experiment.
type Weighting int

const (
	// CountWeighting stores raw occurrence counts.
	CountWeighting Weighting = iota
	// BinaryWeighting stores 1 for any occurring term (the "0-1" choice).
	BinaryWeighting
	// LogWeighting stores 1 + ln(count).
	LogWeighting
	// TFIDFWeighting stores count × ln(m / df(term)).
	TFIDFWeighting
)

// String names the weighting scheme.
func (w Weighting) String() string {
	switch w {
	case CountWeighting:
		return "count"
	case BinaryWeighting:
		return "binary"
	case LogWeighting:
		return "log"
	case TFIDFWeighting:
		return "tfidf"
	default:
		return fmt.Sprintf("Weighting(%d)", int(w))
	}
}

// TermDocMatrix builds the n×m term-document matrix of the corpus: rows are
// terms, columns are documents (the orientation of Section 2), with entries
// weighted by w. A term a document lists more than once contributes the
// sum of its weighted entries.
func TermDocMatrix(c *Corpus, w Weighting) *sparse.CSR {
	m := len(c.Docs)
	// Documents are the matrix's columns, in order, so once each term's
	// document frequency is known every entry can go straight to its row.
	df := make([]int, c.NumTerms)
	for _, d := range c.Docs {
		for _, t := range d.Terms {
			df[t]++
		}
	}
	b := sparse.NewRowBuilder(df, m)
	for j, d := range c.Docs {
		for i, t := range d.Terms {
			count := float64(d.Counts[i])
			var v float64
			switch w {
			case CountWeighting:
				v = count
			case BinaryWeighting:
				v = 1
			case LogWeighting:
				v = 1 + math.Log(count)
			case TFIDFWeighting:
				idf := math.Log(float64(m) / float64(df[t]))
				v = count * idf
			default:
				panic(fmt.Sprintf("corpus: unknown weighting %d", int(w)))
			}
			b.Add(t, j, v)
		}
	}
	return b.CSR()
}

// DocVector returns the weighted term vector of a single document in the
// corpus's term space (a single column of the term-document matrix, as used
// for queries against an existing index). TF-IDF weighting is not supported
// here because it needs corpus document frequencies; it returns an error in
// that case.
func DocVector(d *Document, numTerms int, w Weighting) ([]float64, error) {
	if w == TFIDFWeighting {
		return nil, fmt.Errorf("corpus: DocVector does not support tf-idf (corpus statistics required)")
	}
	v := make([]float64, numTerms)
	for i, t := range d.Terms {
		if t < 0 || t >= numTerms {
			return nil, fmt.Errorf("corpus: term %d out of universe [0,%d)", t, numTerms)
		}
		count := float64(d.Counts[i])
		switch w {
		case CountWeighting:
			v[t] = count
		case BinaryWeighting:
			v[t] = 1
		case LogWeighting:
			v[t] = 1 + math.Log(count)
		default:
			return nil, fmt.Errorf("corpus: unknown weighting %d", int(w))
		}
	}
	return v, nil
}
