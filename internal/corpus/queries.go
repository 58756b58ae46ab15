package corpus

import (
	"fmt"
	"math/rand"
)

// Query is a sampled retrieval query: a short bag of terms drawn from a
// topic, with the topic as relevance ground truth. The paper evaluates
// retrieval "in standard collections and query workloads"; for
// model-generated corpora the natural workload is short documents drawn
// from the same topic distributions.
type Query struct {
	Topic  int
	Terms  []int
	Counts []int
}

// Vector expands the query into a dense term-space vector of the given
// universe size.
func (q *Query) Vector(numTerms int) ([]float64, error) {
	v := make([]float64, numTerms)
	for i, t := range q.Terms {
		if t < 0 || t >= numTerms {
			return nil, fmt.Errorf("corpus: query term %d outside universe [0,%d)", t, numTerms)
		}
		v[t] = float64(q.Counts[i])
	}
	return v, nil
}

// GenerateQueries samples count queries of the given length from topic
// topicID of the model (style-free: queries are user keyword lists, which
// the paper's style matrices do not model). It returns an error for an
// invalid topic, non-positive count, or non-positive length.
func GenerateQueries(m *Model, topicID, count, length int, rng *rand.Rand) ([]Query, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if topicID < 0 || topicID >= len(m.Topics) {
		return nil, fmt.Errorf("corpus: query topic %d out of range [0,%d)", topicID, len(m.Topics))
	}
	if count < 1 {
		return nil, fmt.Errorf("corpus: query count %d, want >= 1", count)
	}
	if length < 1 {
		return nil, fmt.Errorf("corpus: query length %d, want >= 1", length)
	}
	topic := m.Topics[topicID]
	tally := newTermTally(m.NumTerms)
	out := make([]Query, 0, count)
	for i := 0; i < count; i++ {
		for j := 0; j < length; j++ {
			tally.add(topic.Sample(rng))
		}
		terms, counts := tally.take()
		out = append(out, Query{Topic: topicID, Terms: terms, Counts: counts})
	}
	return out, nil
}
