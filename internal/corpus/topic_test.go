package corpus

import (
	"math"
	"math/rand"
	"testing"
)

func TestNewTopicNormalizes(t *testing.T) {
	tp, err := NewTopic([]float64{2, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.25, 0.25, 0.5}
	for i, p := range want {
		if math.Abs(tp.Prob(i)-p) > 1e-14 {
			t.Fatalf("Prob(%d) = %v, want %v", i, tp.Prob(i), p)
		}
	}
	if tp.NumTerms() != 3 {
		t.Fatalf("NumTerms = %d", tp.NumTerms())
	}
	if tp.MaxProb() != 0.5 {
		t.Fatalf("MaxProb = %v", tp.MaxProb())
	}
}

func TestNewTopicErrors(t *testing.T) {
	cases := [][]float64{
		nil,
		{},
		{0, 0},
		{1, -1, 3},
		{math.NaN()},
		{math.Inf(1)},
	}
	for i, c := range cases {
		if _, err := NewTopic(c); err == nil {
			t.Errorf("case %d: expected error for %v", i, c)
		}
	}
}

func TestAliasSamplerDistribution(t *testing.T) {
	// Chi-squared-style check: empirical frequencies match probabilities
	// within 5 standard deviations.
	rng := rand.New(rand.NewSource(41))
	probs := []float64{0.5, 0.3, 0.15, 0.05}
	tp, err := NewTopic(probs)
	if err != nil {
		t.Fatal(err)
	}
	const n = 200000
	counts := make([]int, len(probs))
	for i := 0; i < n; i++ {
		counts[tp.Sample(rng)]++
	}
	for i, p := range probs {
		got := float64(counts[i]) / n
		sd := math.Sqrt(p * (1 - p) / n)
		if math.Abs(got-p) > 5*sd {
			t.Fatalf("term %d: frequency %v, want %v ± %v", i, got, p, 5*sd)
		}
	}
}

func TestAliasSamplerDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tp, err := NewTopic([]float64{0, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if got := tp.Sample(rng); got != 1 {
			t.Fatalf("deterministic topic sampled %d", got)
		}
	}
}

// uniformTopic is the uniform distribution over n terms.
func uniformTopic(t *testing.T, n int) *Topic {
	t.Helper()
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	tp, err := NewTopic(w)
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

func TestMassOn(t *testing.T) {
	tp, _ := NewTopic([]float64{1, 2, 3, 4})
	if got := tp.MassOn([]int{1, 3}); math.Abs(got-0.6) > 1e-14 {
		t.Fatalf("MassOn = %v, want 0.6", got)
	}
	if got := tp.MassOn(nil); got != 0 {
		t.Fatalf("MassOn(nil) = %v", got)
	}
}

func TestMixTopics(t *testing.T) {
	a, _ := NewTopic([]float64{1, 0})
	b, _ := NewTopic([]float64{0, 1})
	mix, err := MixTopics([]*Topic{a, b}, []float64{3, 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mix[0]-0.75) > 1e-14 || math.Abs(mix[1]-0.25) > 1e-14 {
		t.Fatalf("mix = %v", mix)
	}
}

func TestMixTopicsErrors(t *testing.T) {
	a, _ := NewTopic([]float64{1, 0})
	c, _ := NewTopic([]float64{1, 0, 0})
	if _, err := MixTopics(nil, nil); err == nil {
		t.Error("expected error on empty mix")
	}
	if _, err := MixTopics([]*Topic{a}, []float64{1, 2}); err == nil {
		t.Error("expected error on weight length mismatch")
	}
	if _, err := MixTopics([]*Topic{a, c}, []float64{1, 1}); err == nil {
		t.Error("expected error on universe mismatch")
	}
	if _, err := MixTopics([]*Topic{a}, []float64{0}); err == nil {
		t.Error("expected error on zero weights")
	}
	if _, err := MixTopics([]*Topic{a}, []float64{-1}); err == nil {
		t.Error("expected error on negative weight")
	}
}

// Property: alias tables built from random distributions always sample
// in-support terms, and mixture distributions always sum to 1.
func TestAliasAndMixProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(30)
		w := make([]float64, n)
		support := map[int]bool{}
		nonzero := 0
		for i := range w {
			if rng.Float64() < 0.7 {
				w[i] = rng.Float64()
				if w[i] > 0 {
					support[i] = true
					nonzero++
				}
			}
		}
		if nonzero == 0 {
			w[0] = 1
			support[0] = true
		}
		tp, err := NewTopic(w)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for s := 0; s < 200; s++ {
			term := tp.Sample(rng)
			if !support[term] {
				t.Fatalf("trial %d: sampled term %d outside support", trial, term)
			}
		}
		mix, err := MixTopics([]*Topic{tp, uniformTopic(t, n)}, []float64{rng.Float64() + 0.1, rng.Float64() + 0.1})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		var sum float64
		for _, p := range mix {
			sum += p
		}
		if math.Abs(sum-1) > 1e-10 {
			t.Fatalf("trial %d: mixture sums to %v", trial, sum)
		}
	}
}
