package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/corpus"
	"repro/retrieval"
)

// inputs is everything a run feeds the system, made from the seed alone.
type inputs struct {
	model *corpus.Model
	docs  []retrieval.Document // the corpus the index is built on
	held  []retrieval.Document // ingest_mixed: the corpus's last tenth, which the writer posts
	seed  int64

	bodies [][]byte // ingest_mixed: held rendered as batch bodies, see ingestBodies
}

// newModel is the paper's pure ε-separable corpus model, documents dealt
// round-robin so every topic has exactly docsPerTopic of them.
func newModel(sc scale) (*corpus.Model, error) {
	m, err := corpus.PureSeparableModel(corpus.SeparableConfig{
		NumTopics: sc.topics, TermsPerTopic: sc.termsPerTopic,
		Epsilon: epsilon, MinLen: minLen, MaxLen: maxLen,
	})
	if err != nil {
		return nil, err
	}
	m.Sampler = &corpus.RoundRobinSampler{NumTopics: sc.topics, MinLen: minLen, MaxLen: maxLen}
	return m, nil
}

func makeInputs(sc scale, seed int64) (*inputs, error) {
	m, err := newModel(sc)
	if err != nil {
		return nil, err
	}
	c, err := corpus.Generate(m, sc.numDocs(), rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	docs := make([]retrieval.Document, len(c.Docs))
	for i := range c.Docs {
		docs[i] = retrieval.Document{ID: fmt.Sprintf("d%06d", i), Text: renderText(c.Docs[i].Terms, c.Docs[i].Counts)}
	}
	return &inputs{model: m, docs: docs, seed: seed}, nil
}

// termToken renders a term ID as a letter-only token the index pipeline
// keeps verbatim (Tokenize splits on digits): "x" then the decimal digits
// mapped to a–j.
func termToken(t int) string {
	const letters = "abcdefghij"
	s := strconv.Itoa(t)
	b := make([]byte, 1, len(s)+1)
	b[0] = 'x'
	for i := 0; i < len(s); i++ {
		b = append(b, letters[s[i]-'0'])
	}
	return string(b)
}

func renderText(terms, counts []int) string {
	var b strings.Builder
	for i, t := range terms {
		tok := termToken(t)
		for n := 0; n < counts[i]; n++ {
			if b.Len() > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(tok)
		}
	}
	return b.String()
}

// textStream yields texts sampled from the model, topics in rotation like
// the corpus's: the short topical queries, the long "more like this"
// queries (whole documents the index was not built on) and the ingest
// batches. Stream k of a seed is always the same texts.
type textStream struct {
	model          *corpus.Model
	rng            *rand.Rand
	next           int
	minLen, maxLen int
	// seen, when non-nil, makes the stream skip a text it already issued.
	// The server's cache keys on a query's multiset of terms, which is what
	// a text spells out, and the all-distinct workloads promise it zero hits.
	seen map[string]struct{}
}

func (in *inputs) stream(k int64, minLen, maxLen int, distinct bool) *textStream {
	s := &textStream{model: in.model, rng: rand.New(rand.NewSource(in.seed*1000003 + k)), minLen: minLen, maxLen: maxLen}
	if distinct {
		s.seen = map[string]struct{}{}
	}
	return s
}

// heldOut is a stream of whole documents, shortQueries one of distinct
// 8-term queries.
func (in *inputs) heldOut(k int64) *textStream      { return in.stream(k, minLen, maxLen, false) }
func (in *inputs) shortQueries(k int64) *textStream { return in.stream(k, shortLen, shortLen, true) }

func (s *textStream) text() string {
	for {
		topic := s.next % len(s.model.Topics)
		s.next++
		length := s.minLen + s.rng.Intn(s.maxLen-s.minLen+1)
		qs, err := corpus.GenerateQueries(s.model, topic, 1, length, s.rng)
		if err != nil {
			panic(err) // topic and length are in range by construction
		}
		text := renderText(qs[0].Terms, qs[0].Counts)
		if s.seen == nil {
			return text
		}
		if _, dup := s.seen[text]; !dup {
			s.seen[text] = struct{}{}
			return text
		}
	}
}

// query is one search as the load generator sends it.
type query struct {
	id   int // position in the fixed set (Zipf) or in the stream (distinct)
	text string
	body []byte
}

func newQuery(id int, text string) query {
	body, err := json.Marshal(map[string]any{"query": text, "topN": topN})
	if err != nil {
		panic(err)
	}
	return query{id: id, text: text, body: body}
}

func exactBody(text string) []byte {
	body, err := json.Marshal(map[string]any{"query": text, "topN": topN, "nprobe": 0})
	if err != nil {
		panic(err)
	}
	return body
}

// Stream numbers: one generator per purpose, so adding a consumer never
// shifts another's inputs.
const (
	streamQueries = 1
	streamIngest  = 2
	streamLadder  = 3
	streamZipf0   = 10 // + client index
)

// textSource yields the workload's kind of query text, one per call.
func (in *inputs) textSource(wl workload) func() string {
	if wl.long {
		return in.heldOut(streamQueries).text
	}
	return in.shortQueries(streamQueries).text
}
