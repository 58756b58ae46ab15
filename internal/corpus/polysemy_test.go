package corpus

import (
	"math"
	"math/rand"
	"testing"
)

func TestPolysemousModelValidation(t *testing.T) {
	cfg := SeparableConfig{NumTopics: 4, TermsPerTopic: 10, Epsilon: 0.05, MinLen: 20, MaxLen: 30}
	if _, _, err := PolysemousSeparableModel(cfg, 0, 0.1); err == nil {
		t.Error("numShared=0 should error")
	}
	if _, _, err := PolysemousSeparableModel(cfg, 3, 0.1); err == nil {
		t.Error("2*numShared > topics should error")
	}
	if _, _, err := PolysemousSeparableModel(cfg, 1, 0); err == nil {
		t.Error("shareMass=0 should error")
	}
	if _, _, err := PolysemousSeparableModel(cfg, 1, 0.96); err == nil {
		t.Error("shareMass >= 1-eps should error")
	}
	bad := cfg
	bad.NumTopics = 0
	if _, _, err := PolysemousSeparableModel(bad, 1, 0.1); err == nil {
		t.Error("invalid base config should error")
	}
}

func TestPolysemousModelDistributions(t *testing.T) {
	cfg := SeparableConfig{NumTopics: 4, TermsPerTopic: 10, Epsilon: 0.05, MinLen: 20, MaxLen: 30}
	m, shared, err := PolysemousSeparableModel(cfg, 2, 0.12)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumTerms != 42 {
		t.Fatalf("universe %d, want 42", m.NumTerms)
	}
	if len(shared) != 2 {
		t.Fatalf("shared %d", len(shared))
	}
	for _, st := range shared {
		// Both owning topics assign exactly shareMass to the shared term.
		for _, topic := range []int{st.TopicA, st.TopicB} {
			if got := m.Topics[topic].Prob(st.Term); math.Abs(got-0.12) > 1e-12 {
				t.Fatalf("topic %d prob of shared term = %v", topic, got)
			}
		}
		// Non-owning topics assign it nothing (ε mass covers only the
		// topical base universe).
		for topic := 0; topic < cfg.NumTopics; topic++ {
			if topic == st.TopicA || topic == st.TopicB {
				continue
			}
			if got := m.Topics[topic].Prob(st.Term); got != 0 {
				t.Fatalf("non-owner topic %d prob of shared term = %v", topic, got)
			}
		}
	}
	// All topic distributions still sum to 1.
	for i, tp := range m.Topics {
		var sum float64
		for j := 0; j < tp.NumTerms(); j++ {
			sum += tp.Prob(j)
		}
		if math.Abs(sum-1) > 1e-10 {
			t.Fatalf("topic %d mass %v", i, sum)
		}
	}
}

func TestPolysemousModelGeneration(t *testing.T) {
	cfg := SeparableConfig{NumTopics: 2, TermsPerTopic: 10, Epsilon: 0, MinLen: 100, MaxLen: 100}
	m, shared, err := PolysemousSeparableModel(cfg, 1, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(181))
	c, err := Generate(m, 40, rng)
	if err != nil {
		t.Fatal(err)
	}
	// The shared term must occur in documents of BOTH topics at roughly the
	// share mass rate.
	st := shared[0]
	counts := map[int]int{}
	totals := map[int]int{}
	for _, d := range c.Docs {
		topic := d.Spec.PrimaryTopic()
		counts[topic] += termCount(&d, st.Term)
		totals[topic] += d.Length()
	}
	for _, topic := range []int{st.TopicA, st.TopicB} {
		rate := float64(counts[topic]) / float64(totals[topic])
		if math.Abs(rate-0.2) > 0.05 {
			t.Fatalf("topic %d shared-term rate %v, want ≈0.2", topic, rate)
		}
	}
}
