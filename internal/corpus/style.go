package corpus

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
)

// Style is a row-stochastic matrix over the universe (Definition 3): entry
// (i, j) is the probability that style rewrites an occurrence of term i as
// term j. Rows are stored sparsely; a term with no stored row is passed
// through unchanged (an implicit identity row), so the identity style costs
// nothing and realistic styles that rewrite only a few terms stay compact.
type Style struct {
	n    int
	rows map[int]styleRow
}

type styleRow struct {
	targets []int
	probs   []float64
}

// IdentityStyle returns the style that leaves every term unchanged.
func IdentityStyle(n int) *Style {
	return &Style{n: n, rows: map[int]styleRow{}}
}

// NewStyle builds a style over an n-term universe from explicit sparse
// rows: rows[i] maps target terms to probabilities for source term i.
// Each provided row must sum to 1 (within 1e-9) with non-negative entries
// and in-range targets; terms without a row behave as identity.
func NewStyle(n int, rows map[int]map[int]float64) (*Style, error) {
	s := &Style{n: n, rows: make(map[int]styleRow, len(rows))}
	for src, row := range rows {
		if src < 0 || src >= n {
			return nil, fmt.Errorf("corpus: style source term %d out of range [0,%d)", src, n)
		}
		targets := make([]int, 0, len(row))
		for tgt, p := range row {
			if tgt < 0 || tgt >= n {
				return nil, fmt.Errorf("corpus: style target term %d out of range [0,%d)", tgt, n)
			}
			if p < 0 || math.IsNaN(p) || math.IsInf(p, 0) {
				return nil, fmt.Errorf("corpus: invalid style probability %v for %d→%d", p, src, tgt)
			}
			if p != 0 {
				targets = append(targets, tgt)
			}
		}
		// Ascending targets, not the map's order: RewriteTerm walks them,
		// so the same draw picks the same target on every build.
		slices.Sort(targets)
		probs := make([]float64, len(targets))
		var sum float64
		for i, tgt := range targets {
			probs[i] = row[tgt]
			sum += probs[i]
		}
		if math.Abs(sum-1) > 1e-9 {
			return nil, fmt.Errorf("corpus: style row %d sums to %v, want 1", src, sum)
		}
		s.rows[src] = styleRow{targets: targets, probs: probs}
	}
	return s, nil
}

// SynonymStyle returns a style in which each source term in pairs is
// rewritten to itself or to its paired synonym with probability 1/2 each.
// This realizes the paper's synonymy discussion exactly: the two terms then
// have identical co-occurrence patterns, so the term–term autocorrelation
// matrix AAᵀ acquires a near-zero eigenvalue whose eigenvector is the
// difference of the two term axes.
func SynonymStyle(n int, pairs map[int]int) (*Style, error) {
	rows := make(map[int]map[int]float64, len(pairs))
	for a, b := range pairs {
		if a == b {
			return nil, fmt.Errorf("corpus: synonym pair (%d,%d) must be distinct", a, b)
		}
		rows[a] = map[int]float64{a: 0.5, b: 0.5}
	}
	return NewStyle(n, rows)
}

// CrossTopicStyle builds a style that rewrites each topical term, with the
// given probability, to one of targetsPerTerm random terms belonging to
// OTHER topics. It is the adversarial style for the Section 4 theorems:
// Theorems 2 and 3 assume style-free models, and a cross-topic style
// erodes ε-separability exactly the way a larger ε does — the style
// experiment quantifies that degradation.
func CrossTopicStyle(c SeparableConfig, strength float64, targetsPerTerm int, rng *rand.Rand) (*Style, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if strength < 0 || strength >= 1 {
		return nil, fmt.Errorf("corpus: style strength %v, want [0,1)", strength)
	}
	if targetsPerTerm < 1 {
		return nil, fmt.Errorf("corpus: targetsPerTerm %d, want >= 1", targetsPerTerm)
	}
	if c.NumTopics < 2 {
		return nil, fmt.Errorf("corpus: cross-topic style needs at least 2 topics")
	}
	n := c.NumTerms()
	if strength == 0 {
		return IdentityStyle(n), nil
	}
	rows := make(map[int]map[int]float64, n)
	for topic := 0; topic < c.NumTopics; topic++ {
		for _, src := range c.PrimarySet(topic) {
			row := map[int]float64{src: 1 - strength}
			for t := 0; t < targetsPerTerm; t++ {
				// Uniform term of a different topic.
				for {
					tgt := rng.Intn(n)
					if tgt/c.TermsPerTopic != topic {
						row[tgt] += strength / float64(targetsPerTerm)
						break
					}
				}
			}
			rows[src] = row
		}
	}
	return NewStyle(n, rows)
}

// NumTerms returns the universe size.
func (s *Style) NumTerms() int { return s.n }

// IsIdentity reports whether the style rewrites nothing.
func (s *Style) IsIdentity() bool { return len(s.rows) == 0 }

// RewriteTerm maps a sampled term through the style, drawing from the
// term's row. Used on the per-token fast path during document generation.
func (s *Style) RewriteTerm(term int, u float64) int {
	row, ok := s.rows[term]
	if !ok {
		return term
	}
	for t, p := range row.probs {
		if u < p {
			return row.targets[t]
		}
		u -= p
	}
	return row.targets[len(row.targets)-1]
}

// MixStyles returns the convex combination of styles as a new Style.
// Weights must be non-negative with positive sum; all styles must share a
// universe.
func MixStyles(styles []*Style, weights []float64) (*Style, error) {
	if len(styles) == 0 {
		return nil, fmt.Errorf("corpus: MixStyles with no styles")
	}
	if len(styles) != len(weights) {
		return nil, fmt.Errorf("corpus: MixStyles %d styles but %d weights", len(styles), len(weights))
	}
	n := styles[0].n
	var wsum float64
	for i, w := range weights {
		if w < 0 {
			return nil, fmt.Errorf("corpus: negative style weight %v", w)
		}
		if styles[i].n != n {
			return nil, fmt.Errorf("corpus: style %d universe size %d != %d", i, styles[i].n, n)
		}
		wsum += w
	}
	if wsum == 0 {
		return nil, fmt.Errorf("corpus: style weights sum to zero")
	}
	// Collect the union of rewritten source terms; mix rows (identity rows
	// contribute weight on the source term itself).
	sources := map[int]bool{}
	for _, st := range styles {
		for src := range st.rows {
			sources[src] = true
		}
	}
	rows := make(map[int]map[int]float64, len(sources))
	for src := range sources {
		mixed := map[int]float64{}
		for i, st := range styles {
			w := weights[i] / wsum
			if w == 0 {
				continue
			}
			if row, ok := st.rows[src]; ok {
				for t, tgt := range row.targets {
					mixed[tgt] += w * row.probs[t]
				}
			} else {
				mixed[src] += w
			}
		}
		rows[src] = mixed
	}
	return NewStyle(n, rows)
}
