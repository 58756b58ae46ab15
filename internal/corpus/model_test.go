package corpus

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func smallModel(t *testing.T) *Model {
	t.Helper()
	m, err := PureSeparableModel(SeparableConfig{
		NumTopics: 3, TermsPerTopic: 10, Epsilon: 0.1, MinLen: 20, MaxLen: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestGenerateBasics(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	m := smallModel(t)
	c, err := Generate(m, 25, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Docs) != 25 || c.NumTerms != 30 {
		t.Fatalf("corpus: %d docs, %d terms", len(c.Docs), c.NumTerms)
	}
	for i, d := range c.Docs {
		if d.ID != i {
			t.Fatalf("doc %d has ID %d", i, d.ID)
		}
		l := d.Length()
		if l < 20 || l > 30 {
			t.Fatalf("doc %d length %d outside [20,30]", i, l)
		}
		if d.Spec.Length != l {
			t.Fatalf("doc %d: spec length %d != materialized %d", i, d.Spec.Length, l)
		}
		// Terms sorted ascending and counts positive.
		for j := 1; j < len(d.Terms); j++ {
			if d.Terms[j] <= d.Terms[j-1] {
				t.Fatalf("doc %d terms not strictly ascending", i)
			}
		}
		for _, cnt := range d.Counts {
			if cnt < 1 {
				t.Fatalf("doc %d has non-positive count", i)
			}
		}
		pt := d.Spec.PrimaryTopic()
		if pt < 0 || pt >= 3 {
			t.Fatalf("doc %d primary topic %d", i, pt)
		}
	}
	labels := c.Labels()
	if len(labels) != 25 {
		t.Fatal("Labels length wrong")
	}
}

func TestGenerateDeterministicWithSeed(t *testing.T) {
	m := smallModel(t)
	c1, err := Generate(m, 10, rand.New(rand.NewSource(99)))
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Generate(m, 10, rand.New(rand.NewSource(99)))
	if err != nil {
		t.Fatal(err)
	}
	for i := range c1.Docs {
		if c1.Docs[i].Length() != c2.Docs[i].Length() ||
			len(c1.Docs[i].Terms) != len(c2.Docs[i].Terms) {
			t.Fatal("generation not deterministic under a fixed seed")
		}
		for j := range c1.Docs[i].Terms {
			if c1.Docs[i].Terms[j] != c2.Docs[i].Terms[j] || c1.Docs[i].Counts[j] != c2.Docs[i].Counts[j] {
				t.Fatal("generation not deterministic under a fixed seed")
			}
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	m := smallModel(t)
	rng := rand.New(rand.NewSource(52))
	if _, err := Generate(m, -1, rng); err == nil {
		t.Error("expected error for negative count")
	}
	bad := &Model{NumTerms: 0}
	if _, err := Generate(bad, 1, rng); err == nil {
		t.Error("expected error for invalid model")
	}
	noSampler := &Model{NumTerms: 3, Topics: []*Topic{UniformTopic(3)}}
	if _, err := Generate(noSampler, 1, rng); err == nil {
		t.Error("expected error for missing sampler")
	}
}

func TestDocumentCount(t *testing.T) {
	d := Document{Terms: []int{2, 5, 9}, Counts: []int{1, 4, 2}}
	if d.Count(5) != 4 || d.Count(2) != 1 || d.Count(9) != 2 {
		t.Fatal("Count wrong for present terms")
	}
	if d.Count(3) != 0 || d.Count(100) != 0 || d.Count(0) != 0 {
		t.Fatal("Count wrong for absent terms")
	}
	if d.Length() != 7 {
		t.Fatalf("Length = %d", d.Length())
	}
}

func TestPureDocumentsStayMostlyOnPrimarySet(t *testing.T) {
	// With ε = 0.1, ~90% of tokens of a topic-t document land in topic t's
	// primary set; verify the average is close.
	rng := rand.New(rand.NewSource(53))
	cfg := SeparableConfig{NumTopics: 3, TermsPerTopic: 10, Epsilon: 0.1, MinLen: 200, MaxLen: 200}
	m, err := PureSeparableModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Generate(m, 50, rng)
	if err != nil {
		t.Fatal(err)
	}
	var frac float64
	for _, d := range c.Docs {
		topic := d.Spec.PrimaryTopic()
		lo, hi := topic*10, (topic+1)*10
		on := 0
		for i, term := range d.Terms {
			if term >= lo && term < hi {
				on += d.Counts[i]
			}
		}
		frac += float64(on) / float64(d.Length())
	}
	frac /= 50
	// Expected on-primary mass: (1−ε) + ε·(10/30) ≈ 0.9333.
	if math.Abs(frac-0.9333) > 0.03 {
		t.Fatalf("on-primary fraction %v, want ≈0.933", frac)
	}
}

func TestMixtureSamplerSpecs(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	s := &MixtureSampler{NumTopics: 5, MaxTopics: 3, Alpha: 1, MinLen: 10, MaxLen: 10}
	for i := 0; i < 100; i++ {
		spec := s.SampleSpec(rng)
		if len(spec.TopicIDs) < 1 || len(spec.TopicIDs) > 3 {
			t.Fatalf("topic count %d", len(spec.TopicIDs))
		}
		var sum float64
		seen := map[int]bool{}
		for j, id := range spec.TopicIDs {
			if id < 0 || id >= 5 || seen[id] {
				t.Fatalf("bad or duplicate topic ID %d", id)
			}
			seen[id] = true
			sum += spec.TopicWeights[j]
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("weights sum %v", sum)
		}
		if spec.Length != 10 {
			t.Fatalf("length %d", spec.Length)
		}
	}
}

func TestMixedModelGeneration(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	cfg := SeparableConfig{NumTopics: 4, TermsPerTopic: 8, Epsilon: 0.05, MinLen: 30, MaxLen: 40}
	m, err := MixedSeparableModel(cfg, 2, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Generate(m, 20, rng)
	if err != nil {
		t.Fatal(err)
	}
	multiTopic := 0
	for _, d := range c.Docs {
		if len(d.Spec.TopicIDs) > 1 {
			multiTopic++
		}
	}
	if multiTopic == 0 {
		t.Fatal("mixture model never produced a multi-topic document")
	}
}

func TestMixedModelValidation(t *testing.T) {
	cfg := SeparableConfig{NumTopics: 4, TermsPerTopic: 8, Epsilon: 0.05, MinLen: 30, MaxLen: 40}
	if _, err := MixedSeparableModel(cfg, 0, 1); err == nil {
		t.Error("maxTopics=0 should error")
	}
	if _, err := MixedSeparableModel(cfg, 5, 1); err == nil {
		t.Error("maxTopics>k should error")
	}
	if _, err := MixedSeparableModel(cfg, 2, 0); err == nil {
		t.Error("alpha=0 should error")
	}
}

func TestStyledGeneration(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	cfg := SeparableConfig{NumTopics: 2, TermsPerTopic: 5, Epsilon: 0, MinLen: 100, MaxLen: 100}
	m, pairs, err := SynonymSeparableModel(cfg, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumTerms != 12 {
		t.Fatalf("universe %d, want 12", m.NumTerms)
	}
	c, err := Generate(m, 60, rng)
	if err != nil {
		t.Fatal(err)
	}
	// The synonym terms must actually occur.
	synSeen := 0
	srcSeen := 0
	for _, d := range c.Docs {
		for _, p := range pairs {
			if d.Count(p[1]) > 0 {
				synSeen++
			}
			if d.Count(p[0]) > 0 {
				srcSeen++
			}
		}
	}
	if synSeen == 0 || srcSeen == 0 {
		t.Fatalf("synonym style inert: src %d syn %d", srcSeen, synSeen)
	}
}

func TestDirichletProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	for trial := 0; trial < 100; trial++ {
		k := 1 + rng.Intn(6)
		alpha := 0.2 + rng.Float64()*3
		w := Dirichlet(alpha, k, rng)
		if len(w) != k {
			t.Fatalf("Dirichlet length %d", len(w))
		}
		var sum float64
		for _, v := range w {
			if v < 0 {
				t.Fatalf("negative Dirichlet weight %v", v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-10 {
			t.Fatalf("Dirichlet sums to %v", sum)
		}
	}
}

func TestGammaMoments(t *testing.T) {
	// Gamma(shape, 1) has mean = shape and variance = shape.
	rng := rand.New(rand.NewSource(58))
	for _, shape := range []float64{0.5, 1, 2.5, 7} {
		const n = 50000
		var sum, sq float64
		for i := 0; i < n; i++ {
			x := Gamma(shape, rng)
			if x < 0 {
				t.Fatalf("negative Gamma sample %v", x)
			}
			sum += x
			sq += x * x
		}
		mean := sum / n
		variance := sq/n - mean*mean
		if math.Abs(mean-shape) > 0.05*shape+0.02 {
			t.Fatalf("shape %v: mean %v", shape, mean)
		}
		if math.Abs(variance-shape) > 0.15*shape+0.05 {
			t.Fatalf("shape %v: variance %v", shape, variance)
		}
	}
}

func TestGammaPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for i, f := range []func(){
		func() { Gamma(0, rng) },
		func() { Gamma(-1, rng) },
		func() { Dirichlet(1, 0, rng) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

// generateWithMaps is Generate as it was written with one map per
// document: the reference the tally-based generator must reproduce draw
// for draw.
func generateWithMaps(m *Model, count int, rng *rand.Rand) ([]Document, error) {
	var docs []Document
	for i := 0; i < count; i++ {
		spec := m.Sampler.SampleSpec(rng)
		counts := map[int]int{}
		var mixed *Topic
		if len(spec.TopicIDs) != 1 {
			topics := make([]*Topic, len(spec.TopicIDs))
			for k, tid := range spec.TopicIDs {
				topics[k] = m.Topics[tid]
			}
			dist, err := MixTopics(topics, spec.TopicWeights)
			if err != nil {
				return nil, err
			}
			if mixed, err = NewTopic(dist); err != nil {
				return nil, err
			}
		}
		style, err := m.effectiveStyle(spec)
		if err != nil {
			return nil, err
		}
		for t := 0; t < spec.Length; t++ {
			var term int
			if mixed == nil {
				term = m.Topics[spec.TopicIDs[0]].Sample(rng)
			} else {
				term = mixed.Sample(rng)
			}
			if style != nil && !style.IsIdentity() {
				term = style.RewriteTerm(term, rng.Float64())
			}
			counts[term]++
		}
		terms := make([]int, 0, len(counts))
		for term := range counts {
			terms = append(terms, term)
		}
		slices.Sort(terms)
		cs := make([]int, len(terms))
		for k, term := range terms {
			cs[k] = counts[term]
		}
		docs = append(docs, Document{ID: i, Spec: spec, Terms: terms, Counts: cs})
	}
	return docs, nil
}

// TestGenerateMatchesMapReference holds Generate to the map-based
// reference on every kind of spec the package samples: pure, dealt
// round-robin, Dirichlet mixtures, a synonym style and polysemous topics.
// Each model is built twice, since samplers carry state.
func TestGenerateMatchesMapReference(t *testing.T) {
	cfg := SeparableConfig{NumTopics: 6, TermsPerTopic: 12, Epsilon: 0.1, MinLen: 20, MaxLen: 60}
	models := map[string]func() (*Model, error){
		"pure": func() (*Model, error) { return PureSeparableModel(cfg) },
		"round-robin": func() (*Model, error) {
			m, err := PureSeparableModel(cfg)
			if err == nil {
				m.Sampler = &RoundRobinSampler{NumTopics: cfg.NumTopics, MinLen: cfg.MinLen, MaxLen: cfg.MaxLen}
			}
			return m, err
		},
		"mixture": func() (*Model, error) { return MixedSeparableModel(cfg, 3, 0.7) },
		"synonym-style": func() (*Model, error) {
			m, _, err := SynonymSeparableModel(cfg, 4, rand.New(rand.NewSource(3)))
			return m, err
		},
		"polysemy": func() (*Model, error) {
			m, _, err := PolysemousSeparableModel(cfg, 2, 0.2)
			return m, err
		},
	}
	for name, build := range models {
		t.Run(name, func(t *testing.T) {
			m, err := build()
			if err != nil {
				t.Fatal(err)
			}
			ref, err := build()
			if err != nil {
				t.Fatal(err)
			}
			// The synonym style's rows come from map iteration; share one
			// Style so both sides rewrite with the same row order.
			ref.Styles = m.Styles
			got, err := Generate(m, 300, rand.New(rand.NewSource(11)))
			if err != nil {
				t.Fatal(err)
			}
			want, err := generateWithMaps(ref, 300, rand.New(rand.NewSource(11)))
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				g, w := got.Docs[i], want[i]
				if g.ID != w.ID || g.Spec.Length != w.Spec.Length || !slices.Equal(g.Spec.TopicIDs, w.Spec.TopicIDs) ||
					!slices.Equal(g.Terms, w.Terms) || !slices.Equal(g.Counts, w.Counts) {
					t.Fatalf("doc %d: got %+v, want %+v", i, g, w)
				}
			}
		})
	}
}
