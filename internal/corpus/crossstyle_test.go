package corpus

import (
	"math"
	"math/rand"
	"testing"
)

func TestCrossTopicStyleValidation(t *testing.T) {
	cfg := SeparableConfig{NumTopics: 3, TermsPerTopic: 5, Epsilon: 0, MinLen: 10, MaxLen: 20}
	rng := rand.New(rand.NewSource(271))
	if _, err := CrossTopicStyle(cfg, -0.1, 2, rng); err == nil {
		t.Error("negative strength should error")
	}
	if _, err := CrossTopicStyle(cfg, 1, 2, rng); err == nil {
		t.Error("strength 1 should error")
	}
	if _, err := CrossTopicStyle(cfg, 0.2, 0, rng); err == nil {
		t.Error("zero targets should error")
	}
	one := cfg
	one.NumTopics = 1
	if _, err := CrossTopicStyle(one, 0.2, 2, rng); err == nil {
		t.Error("single topic should error")
	}
	bad := cfg
	bad.TermsPerTopic = 0
	if _, err := CrossTopicStyle(bad, 0.2, 2, rng); err == nil {
		t.Error("invalid config should error")
	}
}

func TestCrossTopicStyleZeroStrengthIsIdentity(t *testing.T) {
	cfg := SeparableConfig{NumTopics: 3, TermsPerTopic: 5, Epsilon: 0, MinLen: 10, MaxLen: 20}
	s, err := CrossTopicStyle(cfg, 0, 2, rand.New(rand.NewSource(272)))
	if err != nil {
		t.Fatal(err)
	}
	if !s.IsIdentity() {
		t.Fatal("strength 0 should be the identity style")
	}
}

func TestCrossTopicStyleMassMovement(t *testing.T) {
	cfg := SeparableConfig{NumTopics: 2, TermsPerTopic: 10, Epsilon: 0, MinLen: 10, MaxLen: 20}
	rng := rand.New(rand.NewSource(273))
	s, err := CrossTopicStyle(cfg, 0.3, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Apply to topic 0's distribution: exactly 30% of the mass must cross
	// to topic 1's primary set.
	model, err := PureSeparableModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := apply(s, model.Topics[0].probs)
	var cross float64
	for _, term := range cfg.PrimarySet(1) {
		cross += out[term]
	}
	if math.Abs(cross-0.3) > 1e-10 {
		t.Fatalf("cross mass %v, want 0.3", cross)
	}
	var total float64
	for _, p := range out {
		total += p
	}
	if math.Abs(total-1) > 1e-10 {
		t.Fatalf("styled distribution mass %v", total)
	}
}
