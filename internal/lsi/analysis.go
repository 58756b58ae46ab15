package lsi

import (
	"fmt"
	"math"

	"repro/internal/mat"
	"repro/internal/sparse"
	"repro/internal/stats"
)

// GramFromColumns returns the m×m Gram matrix AᵀA of a sparse matrix whose
// columns are document vectors. Cost is O(nnz·m) — far cheaper than m²
// sparse dot products for the corpus sizes of the experiments.
func GramFromColumns(a *sparse.CSR) *mat.Dense {
	return a.TMulDense(a.ToDense())
}

// GramFromRows returns the m×m Gram matrix V·Vᵀ of a dense matrix whose
// rows are document vectors (e.g. the LSI document representations).
// The product is parallelized across rows; for the paper-scale experiment
// (1000 documents) it is the largest dense product in the pipeline.
func GramFromRows(v *mat.Dense) *mat.Dense {
	return mat.MulBT(v, v)
}

// AngleSet holds the pairwise angles (radians) of a labeled corpus split by
// pair kind, exactly the quantity the paper's Section 4 experiment reports
// ("we measured the angle (not some function of the angle such as the
// cosine) between all pairs of documents").
type AngleSet struct {
	Intra []float64
	Inter []float64
}

// Summaries returns min/max/mean/std summaries of both angle populations.
func (a AngleSet) Summaries() (intra, inter stats.Summary) {
	return stats.Summarize(a.Intra), stats.Summarize(a.Inter)
}

// PairAngles computes all pairwise document angles from a Gram matrix and
// topic labels. Zero-norm documents are assigned the neutral angle π/2.
// It panics if the Gram matrix is not square or labels mismatch.
func PairAngles(gram *mat.Dense, labels []int) AngleSet {
	m, c := gram.Dims()
	if m != c {
		panic(fmt.Sprintf("lsi: PairAngles gram %dx%d not square", m, c))
	}
	if len(labels) != m {
		panic(fmt.Sprintf("lsi: PairAngles %d labels for %d documents", len(labels), m))
	}
	var set AngleSet
	for i := 0; i < m; i++ {
		gii := gram.At(i, i)
		for j := i + 1; j < m; j++ {
			gjj := gram.At(j, j)
			var angle float64
			if gii <= 0 || gjj <= 0 {
				angle = math.Pi / 2
			} else {
				cos := gram.At(i, j) / math.Sqrt(gii*gjj)
				if cos > 1 {
					cos = 1
				} else if cos < -1 {
					cos = -1
				}
				angle = math.Acos(cos)
			}
			if labels[i] == labels[j] {
				set.Intra = append(set.Intra, angle)
			} else {
				set.Inter = append(set.Inter, angle)
			}
		}
	}
	return set
}

// SkewFromGram returns the smallest δ such that the representation behind
// the Gram matrix is δ-skewed on the labeled corpus in the sense of
// Section 4: for every intertopic pair, |v·v′| ≤ δ·‖v‖‖v′‖, and for every
// intratopic pair, v·v′ ≥ (1−δ)·‖v‖‖v′‖. Lower is better; 0 means perfect
// topic separation. Pairs involving a zero-norm representation are treated
// as maximally violating (δ = 1) for intratopic and ignored for intertopic.
func SkewFromGram(gram *mat.Dense, labels []int) float64 {
	m, c := gram.Dims()
	if m != c {
		panic(fmt.Sprintf("lsi: SkewFromGram gram %dx%d not square", m, c))
	}
	if len(labels) != m {
		panic(fmt.Sprintf("lsi: SkewFromGram %d labels for %d documents", len(labels), m))
	}
	var delta float64
	for i := 0; i < m; i++ {
		gii := gram.At(i, i)
		for j := i + 1; j < m; j++ {
			gjj := gram.At(j, j)
			same := labels[i] == labels[j]
			if gii <= 0 || gjj <= 0 {
				if same {
					delta = math.Max(delta, 1)
				}
				continue
			}
			cos := gram.At(i, j) / math.Sqrt(gii*gjj)
			if same {
				delta = math.Max(delta, 1-cos)
			} else {
				delta = math.Max(delta, math.Abs(cos))
			}
		}
	}
	if delta > 1 {
		delta = 1
	}
	return delta
}

// Skew measures the δ-skew of the index's document representations against
// the given topic labels.
func (ix *Index) Skew(labels []int) float64 {
	return SkewFromGram(GramFromRows(ix.DocVectors()), labels)
}

// Angles measures the pairwise angle populations of the index's document
// representations against the given topic labels.
func (ix *Index) Angles(labels []int) AngleSet {
	return PairAngles(GramFromRows(ix.DocVectors()), labels)
}

// OriginalAngles measures the pairwise angle populations of the raw
// term-space document vectors (columns of the term-document matrix).
func OriginalAngles(a *sparse.CSR, labels []int) AngleSet {
	return PairAngles(GramFromColumns(a), labels)
}

// OriginalSkew measures the δ-skew of the raw term-space document vectors.
func OriginalSkew(a *sparse.CSR, labels []int) float64 {
	return SkewFromGram(GramFromColumns(a), labels)
}
