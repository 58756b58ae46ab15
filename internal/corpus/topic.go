// Package corpus implements the probabilistic corpus model of Section 3 of
// the paper: a universe of terms, topics as probability distributions over
// the universe (Definition 2), styles as row-stochastic matrices that
// modify term frequencies (Definition 3), and a corpus model as a
// distribution over convex combinations of topics, convex combinations of
// styles, and document lengths (Definition 4). Documents are produced by
// the paper's two-step sampling process, and corpora are frozen into sparse
// term-document matrices for the LSI layer.
package corpus

import (
	"fmt"
	"math"
	"math/rand"
)

// Topic is a probability distribution over the term universe
// (Definition 2). Sampling uses Walker's alias method, so drawing a term is
// O(1) after O(n) preprocessing — generating the paper's 1000-document
// corpus of 50–100 term documents costs ~75k constant-time draws.
type Topic struct {
	probs []float64
	alias *aliasTable
}

// NewTopic builds a topic from a (not necessarily normalized) non-negative
// weight vector over the universe. It returns an error if the vector is
// empty, contains negative or non-finite entries, or sums to zero.
func NewTopic(weights []float64) (*Topic, error) {
	if len(weights) == 0 {
		return nil, fmt.Errorf("corpus: topic over empty universe")
	}
	var sum float64
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("corpus: invalid topic weight %v at term %d", w, i)
		}
		sum += w
	}
	if sum == 0 {
		return nil, fmt.Errorf("corpus: topic weights sum to zero")
	}
	probs := make([]float64, len(weights))
	for i, w := range weights {
		probs[i] = w / sum
	}
	return &Topic{probs: probs, alias: newAliasTable(probs)}, nil
}

// NumTerms returns the universe size the topic is defined over.
func (t *Topic) NumTerms() int { return len(t.probs) }

// Prob returns the probability of term i.
func (t *Topic) Prob(i int) float64 { return t.probs[i] }

// Sample draws one term.
func (t *Topic) Sample(rng *rand.Rand) int { return t.alias.sample(rng) }

// MaxProb returns the largest single-term probability — the quantity τ that
// Theorems 2 and 3 require to be small.
func (t *Topic) MaxProb() float64 {
	var mx float64
	for _, p := range t.probs {
		if p > mx {
			mx = p
		}
	}
	return mx
}

// MassOn returns the total probability the topic assigns to the given term
// set — used to verify ε-separability (a topic's primary set must carry
// mass at least 1−ε).
func (t *Topic) MassOn(terms []int) float64 {
	var s float64
	for _, i := range terms {
		s += t.probs[i]
	}
	return s
}

// aliasTable implements Walker's alias method for O(1) sampling from a
// discrete distribution.
type aliasTable struct {
	prob  []float64
	alias []int
}

func newAliasTable(probs []float64) *aliasTable {
	n := len(probs)
	at := &aliasTable{prob: make([]float64, n), alias: make([]int, n)}
	scaled := make([]float64, n)
	small := make([]int, 0, n)
	large := make([]int, 0, n)
	for i, p := range probs {
		scaled[i] = p * float64(n)
		if scaled[i] < 1 {
			small = append(small, i)
		} else {
			large = append(large, i)
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		at.prob[s] = scaled[s]
		at.alias[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			large = large[:len(large)-1]
			small = append(small, l)
		}
	}
	for _, i := range large {
		at.prob[i] = 1
		at.alias[i] = i
	}
	for _, i := range small {
		// Residual numerical dust: treat as certain.
		at.prob[i] = 1
		at.alias[i] = i
	}
	return at
}

func (at *aliasTable) sample(rng *rand.Rand) int {
	i := rng.Intn(len(at.prob))
	if rng.Float64() < at.prob[i] {
		return i
	}
	return at.alias[i]
}

// MixTopics returns the convex combination Σ wᵢ·topicᵢ as a dense
// distribution. Weights must be non-negative and are normalized internally.
// It returns an error on empty input, mismatched universes, or zero total
// weight.
func MixTopics(topics []*Topic, weights []float64) ([]float64, error) {
	if len(topics) == 0 {
		return nil, fmt.Errorf("corpus: MixTopics with no topics")
	}
	if len(topics) != len(weights) {
		return nil, fmt.Errorf("corpus: MixTopics %d topics but %d weights", len(topics), len(weights))
	}
	n := topics[0].NumTerms()
	var wsum float64
	for i, w := range weights {
		if w < 0 {
			return nil, fmt.Errorf("corpus: negative mixture weight %v", w)
		}
		wsum += w
		if topics[i].NumTerms() != n {
			return nil, fmt.Errorf("corpus: topic %d universe size %d != %d", i, topics[i].NumTerms(), n)
		}
	}
	if wsum == 0 {
		return nil, fmt.Errorf("corpus: mixture weights sum to zero")
	}
	out := make([]float64, n)
	for i, tp := range topics {
		w := weights[i] / wsum
		if w == 0 {
			continue
		}
		for j, p := range tp.probs {
			out[j] += w * p
		}
	}
	return out, nil
}
