package corpus

import (
	"fmt"
	"math/bits"
	"math/rand"
)

// DocSpec is the outcome of the first step of the paper's two-step sampling
// process: a convex combination of topics, a convex combination of styles,
// and a document length drawn from D (Definition 4).
type DocSpec struct {
	// TopicIDs and TopicWeights describe the convex combination T̃ of
	// topics. Weights are normalized by the generator.
	TopicIDs     []int
	TopicWeights []float64
	// StyleIDs and StyleWeights describe the convex combination S̃ of
	// styles. Empty means the identity style (a style-free model).
	StyleIDs     []int
	StyleWeights []float64
	// Length is the number of term occurrences to draw.
	Length int
}

// PrimaryTopic returns the topic ID with the largest weight, or -1 for an
// empty spec. For pure corpora (single-topic documents) this is the topic
// the document "belongs to" in the sense of Section 4.
func (s DocSpec) PrimaryTopic() int {
	best, bw := -1, -1.0
	for i, id := range s.TopicIDs {
		if s.TopicWeights[i] > bw {
			best, bw = id, s.TopicWeights[i]
		}
	}
	return best
}

// SpecSampler is the distribution D of Definition 4: it draws the
// (topic combination, style combination, length) triple for one document.
type SpecSampler interface {
	SampleSpec(rng *rand.Rand) DocSpec
}

// Model is a corpus model C = (U, T, S, D) (Definition 4): a universe size,
// a set of topics over that universe, a set of styles, and a spec sampler
// playing the role of D.
type Model struct {
	NumTerms int
	Topics   []*Topic
	Styles   []*Style
	Sampler  SpecSampler
}

// Validate checks internal consistency (matching universe sizes, non-empty
// topic set, sampler present).
func (m *Model) Validate() error {
	if m.NumTerms <= 0 {
		return fmt.Errorf("corpus: model universe must be positive, got %d", m.NumTerms)
	}
	if len(m.Topics) == 0 {
		return fmt.Errorf("corpus: model has no topics")
	}
	for i, t := range m.Topics {
		if t.NumTerms() != m.NumTerms {
			return fmt.Errorf("corpus: topic %d universe %d != model universe %d", i, t.NumTerms(), m.NumTerms)
		}
	}
	for i, s := range m.Styles {
		if s.NumTerms() != m.NumTerms {
			return fmt.Errorf("corpus: style %d universe %d != model universe %d", i, s.NumTerms(), m.NumTerms)
		}
	}
	if m.Sampler == nil {
		return fmt.Errorf("corpus: model has no spec sampler")
	}
	return nil
}

// Document is one sampled document: its spec and the multiset of drawn
// terms, stored as sorted (term, count) pairs.
type Document struct {
	ID     int
	Spec   DocSpec
	Terms  []int // distinct term IDs, ascending
	Counts []int // parallel to Terms
}

// Length returns the total number of term occurrences.
func (d *Document) Length() int {
	var n int
	for _, c := range d.Counts {
		n += c
	}
	return n
}

// Corpus is a collection of documents drawn from a model, along with the
// universe size needed to build term-document matrices.
type Corpus struct {
	NumTerms int
	Docs     []Document
}

// Labels returns each document's primary topic — the ground truth the skew
// and retrieval experiments evaluate against.
func (c *Corpus) Labels() []int {
	out := make([]int, len(c.Docs))
	for i := range c.Docs {
		out[i] = c.Docs[i].Spec.PrimaryTopic()
	}
	return out
}

// Generate draws m documents from the model by the two-step process of
// Section 3: sample a spec from D, then draw Length terms from the styled
// topic mixture. It returns an error if the model is inconsistent or m is
// negative.
func Generate(m *Model, count int, rng *rand.Rand) (*Corpus, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if count < 0 {
		return nil, fmt.Errorf("corpus: negative document count %d", count)
	}
	c := &Corpus{NumTerms: m.NumTerms, Docs: make([]Document, 0, count)}
	tally := newTermTally(m.NumTerms)
	for i := 0; i < count; i++ {
		spec := m.Sampler.SampleSpec(rng)
		doc, err := m.sampleDocument(i, spec, rng, tally)
		if err != nil {
			return nil, err
		}
		c.Docs = append(c.Docs, doc)
	}
	return c, nil
}

// sampleDocument draws spec.Length terms into tally, which it leaves
// empty again, and returns them as a Document.
func (m *Model) sampleDocument(id int, spec DocSpec, rng *rand.Rand, tally *termTally) (Document, error) {
	if spec.Length < 0 {
		return Document{}, fmt.Errorf("corpus: negative document length %d", spec.Length)
	}
	for _, tid := range spec.TopicIDs {
		if tid < 0 || tid >= len(m.Topics) {
			return Document{}, fmt.Errorf("corpus: topic ID %d out of range", tid)
		}
	}
	for _, sid := range spec.StyleIDs {
		if sid < 0 || sid >= len(m.Styles) {
			return Document{}, fmt.Errorf("corpus: style ID %d out of range", sid)
		}
	}

	var topic *Topic
	if len(spec.TopicIDs) == 1 {
		topic = m.Topics[spec.TopicIDs[0]]
	} else {
		topics := make([]*Topic, len(spec.TopicIDs))
		for i, tid := range spec.TopicIDs {
			topics[i] = m.Topics[tid]
		}
		dist, err := MixTopics(topics, spec.TopicWeights)
		if err != nil {
			return Document{}, err
		}
		if topic, err = NewTopic(dist); err != nil {
			return Document{}, err
		}
	}
	style, err := m.effectiveStyle(spec)
	if err != nil {
		return Document{}, err
	}
	if style != nil && style.IsIdentity() {
		style = nil
	}
	for t := 0; t < spec.Length; t++ {
		term := topic.Sample(rng)
		if style != nil {
			term = style.RewriteTerm(term, rng.Float64())
		}
		tally.add(term)
	}
	terms, counts := tally.take()
	return Document{ID: id, Spec: spec, Terms: terms, Counts: counts}, nil
}

// termTally counts one document's draws in a universe-sized array and
// marks each term in a bitmap, so the terms come out ascending from a
// scan, with no sort, into two slabs its documents share, each document's
// slices capped at their own length.
type termTally struct {
	counts         []int32
	marks          []uint64
	terms, tallies []int // the slabs
}

func newTermTally(numTerms int) *termTally {
	return &termTally{counts: make([]int32, numTerms), marks: make([]uint64, (numTerms+63)/64)}
}

func (t *termTally) add(term int) {
	t.marks[term>>6] |= 1 << (term & 63)
	t.counts[term]++
}

// take returns the document counted, terms ascending, and resets the
// tally.
func (t *termTally) take() (terms, counts []int) {
	n := 0
	for _, word := range t.marks {
		n += bits.OnesCount64(word)
	}
	if cap(t.terms)-len(t.terms) < n { // new slabs; the old stay with their documents
		size := max(n, 2*cap(t.terms), 64)
		t.terms, t.tallies = make([]int, 0, size), make([]int, 0, size)
	}
	start := len(t.terms)
	for w, word := range t.marks {
		for ; word != 0; word &= word - 1 {
			term := w<<6 | bits.TrailingZeros64(word)
			t.terms, t.tallies = append(t.terms, term), append(t.tallies, int(t.counts[term]))
			t.counts[term] = 0
		}
		t.marks[w] = 0
	}
	return t.terms[start:len(t.terms):len(t.terms)], t.tallies[start:len(t.terms):len(t.terms)]
}

func (m *Model) effectiveStyle(spec DocSpec) (*Style, error) {
	switch len(spec.StyleIDs) {
	case 0:
		return nil, nil
	case 1:
		return m.Styles[spec.StyleIDs[0]], nil
	default:
		styles := make([]*Style, len(spec.StyleIDs))
		for i, sid := range spec.StyleIDs {
			styles[i] = m.Styles[sid]
		}
		return MixStyles(styles, spec.StyleWeights)
	}
}

// PureSampler draws single-topic documents with no style and a length
// uniform in [MinLen, MaxLen] — the distribution D used in the paper's own
// Section 4 experiment. Topic choice is uniform over the model's topics.
type PureSampler struct {
	NumTopics int
	MinLen    int
	MaxLen    int
	// StyleID, if non-negative, applies the given single style to every
	// document (used by the synonymy experiment).
	StyleID int
}

// NewPureSampler returns a PureSampler with no style.
func NewPureSampler(numTopics, minLen, maxLen int) *PureSampler {
	return &PureSampler{NumTopics: numTopics, MinLen: minLen, MaxLen: maxLen, StyleID: -1}
}

// SampleSpec implements SpecSampler.
func (p *PureSampler) SampleSpec(rng *rand.Rand) DocSpec {
	length := p.MinLen
	if p.MaxLen > p.MinLen {
		length += rng.Intn(p.MaxLen - p.MinLen + 1)
	}
	spec := DocSpec{
		TopicIDs:     []int{rng.Intn(p.NumTopics)},
		TopicWeights: []float64{1},
		Length:       length,
	}
	if p.StyleID >= 0 {
		spec.StyleIDs = []int{p.StyleID}
		spec.StyleWeights = []float64{1}
	}
	return spec
}

// RoundRobinSampler deals single-topic documents out in a fixed topic
// cycle, so a corpus of count documents holds exactly count/NumTopics
// per topic (the first count mod NumTopics topics get one extra) — the
// balanced docs-per-topic regime the paper's theorems assume, with no
// sampling variance in the topic sizes. Lengths stay uniform in
// [MinLen, MaxLen]. The sampler is stateful: one value per corpus.
type RoundRobinSampler struct {
	NumTopics int
	MinLen    int
	MaxLen    int
	next      int
}

// SampleSpec implements SpecSampler.
func (r *RoundRobinSampler) SampleSpec(rng *rand.Rand) DocSpec {
	id := r.next % r.NumTopics
	r.next++
	length := r.MinLen
	if r.MaxLen > r.MinLen {
		length += rng.Intn(r.MaxLen - r.MinLen + 1)
	}
	return DocSpec{TopicIDs: []int{id}, TopicWeights: []float64{1}, Length: length}
}

// MixtureSampler draws documents whose topic combination mixes up to
// MaxTopics topics with Dirichlet(α) weights — the "documents could belong
// to several topics" regime the paper leaves as an open question after
// Theorem 2, exercised here as an extension experiment.
type MixtureSampler struct {
	NumTopics int
	MaxTopics int
	Alpha     float64
	MinLen    int
	MaxLen    int
}

// SampleSpec implements SpecSampler.
func (m *MixtureSampler) SampleSpec(rng *rand.Rand) DocSpec {
	j := 1 + rng.Intn(m.MaxTopics)
	ids := rng.Perm(m.NumTopics)[:j]
	w := Dirichlet(m.Alpha, j, rng)
	length := m.MinLen
	if m.MaxLen > m.MinLen {
		length += rng.Intn(m.MaxLen - m.MinLen + 1)
	}
	return DocSpec{TopicIDs: ids, TopicWeights: w, Length: length}
}
