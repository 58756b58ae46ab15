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
			b.Add(t, j, w.Entry(d.Counts[i], df[t], m))
		}
	}
	return b.CSR()
}

// Entry is the value w stores for a term counted count times in one of
// docs documents, df of which hold the term. Counts of one and more are
// weighted above zero, but under TF-IDF a term every document holds is
// weighted zero, and the matrix stores no entry for it.
func (w Weighting) Entry(count, df, docs int) float64 {
	c := float64(count)
	switch w {
	case CountWeighting:
		return c
	case BinaryWeighting:
		return 1
	case LogWeighting:
		return 1 + math.Log(c)
	case TFIDFWeighting:
		return c * math.Log(float64(docs)/float64(df))
	default:
		panic(fmt.Sprintf("corpus: unknown weighting %d", int(w)))
	}
}
