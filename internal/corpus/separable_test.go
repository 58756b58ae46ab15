package corpus

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/sparse"
)

func TestPaperConfig(t *testing.T) {
	c := PaperConfig()
	if c.NumTopics != 20 || c.TermsPerTopic != 100 || c.Epsilon != 0.05 ||
		c.MinLen != 50 || c.MaxLen != 100 {
		t.Fatalf("PaperConfig = %+v", c)
	}
	if c.NumTerms() != 2000 {
		t.Fatalf("NumTerms = %d", c.NumTerms())
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSeparableConfigValidation(t *testing.T) {
	base := SeparableConfig{NumTopics: 2, TermsPerTopic: 3, Epsilon: 0.1, MinLen: 5, MaxLen: 10}
	cases := []func(SeparableConfig) SeparableConfig{
		func(c SeparableConfig) SeparableConfig { c.NumTopics = 0; return c },
		func(c SeparableConfig) SeparableConfig { c.TermsPerTopic = 0; return c },
		func(c SeparableConfig) SeparableConfig { c.Epsilon = -0.1; return c },
		func(c SeparableConfig) SeparableConfig { c.Epsilon = 1; return c },
		func(c SeparableConfig) SeparableConfig { c.MinLen = 0; return c },
		func(c SeparableConfig) SeparableConfig { c.MaxLen = 1; return c },
	}
	for i, mod := range cases {
		if err := mod(base).Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestPrimarySetsDisjointAndCover(t *testing.T) {
	c := SeparableConfig{NumTopics: 4, TermsPerTopic: 5, Epsilon: 0, MinLen: 1, MaxLen: 1}
	seen := map[int]bool{}
	for tpc := 0; tpc < 4; tpc++ {
		for _, term := range c.PrimarySet(tpc) {
			if seen[term] {
				t.Fatalf("term %d appears in two primary sets", term)
			}
			seen[term] = true
		}
	}
	if len(seen) != c.NumTerms() {
		t.Fatalf("primary sets cover %d terms, want %d", len(seen), c.NumTerms())
	}
}

func TestPureSeparableModelIsEpsilonSeparable(t *testing.T) {
	cfg := SeparableConfig{NumTopics: 5, TermsPerTopic: 20, Epsilon: 0.08, MinLen: 10, MaxLen: 20}
	m, err := PureSeparableModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for tpc, topic := range m.Topics {
		mass := topic.MassOn(cfg.PrimarySet(tpc))
		// Mass on own primary set = (1−ε) + ε·(termsPerTopic/n) ≥ 1−ε.
		if mass < 1-cfg.Epsilon-1e-12 {
			t.Fatalf("topic %d primary mass %v < 1−ε", tpc, mass)
		}
		var total float64
		for i := 0; i < topic.NumTerms(); i++ {
			total += topic.Prob(i)
		}
		if math.Abs(total-1) > 1e-10 {
			t.Fatalf("topic %d total mass %v", tpc, total)
		}
	}
}

func TestZeroSeparableModelBlockSupport(t *testing.T) {
	// ε = 0: documents contain only their own topic's primary terms, so the
	// term-document matrix is exactly block diagonal (the Theorem 2 regime).
	rng := rand.New(rand.NewSource(61))
	cfg := SeparableConfig{NumTopics: 3, TermsPerTopic: 6, Epsilon: 0, MinLen: 15, MaxLen: 25}
	m, err := PureSeparableModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Generate(m, 30, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range c.Docs {
		topic := d.Spec.PrimaryTopic()
		lo, hi := topic*6, (topic+1)*6
		for _, term := range d.Terms {
			if term < lo || term >= hi {
				t.Fatalf("0-separable doc of topic %d contains term %d outside [%d,%d)", topic, term, lo, hi)
			}
		}
	}
}

func TestMaxProbSmall(t *testing.T) {
	// τ for the paper config: (1−ε)/100 + ε/2000 ≈ 0.0095 — verifies the
	// "probability each topic assigns to each term is at most τ" hypothesis.
	m, err := PureSeparableModel(PaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := 0.95/100 + 0.05/2000
	for i, topic := range m.Topics {
		if math.Abs(topic.MaxProb()-want) > 1e-12 {
			t.Fatalf("topic %d MaxProb = %v, want %v", i, topic.MaxProb(), want)
		}
	}
}

func TestTermDocMatrixWeightings(t *testing.T) {
	docs := []Document{
		{ID: 0, Terms: []int{0, 2}, Counts: []int{3, 1}},
		{ID: 1, Terms: []int{2}, Counts: []int{5}},
	}
	c := &Corpus{NumTerms: 4, Docs: docs}

	count := TermDocMatrix(c, CountWeighting)
	if count.At(0, 0) != 3 || count.At(2, 1) != 5 || count.At(1, 0) != 0 {
		t.Fatalf("count weighting wrong")
	}
	bin := TermDocMatrix(c, BinaryWeighting)
	if bin.At(0, 0) != 1 || bin.At(2, 1) != 1 {
		t.Fatalf("binary weighting wrong")
	}
	lg := TermDocMatrix(c, LogWeighting)
	if math.Abs(lg.At(0, 0)-(1+math.Log(3))) > 1e-12 {
		t.Fatalf("log weighting wrong: %v", lg.At(0, 0))
	}
	tf := TermDocMatrix(c, TFIDFWeighting)
	// Term 2 occurs in both docs: idf = ln(2/2) = 0 ⇒ weight 0.
	if tf.At(2, 0) != 0 || tf.At(2, 1) != 0 {
		t.Fatal("tf-idf of ubiquitous term should vanish")
	}
	// Term 0 occurs in one of two docs: idf = ln 2.
	if math.Abs(tf.At(0, 0)-3*math.Ln2) > 1e-12 {
		t.Fatalf("tf-idf = %v, want %v", tf.At(0, 0), 3*math.Ln2)
	}
	var _ *sparse.CSR = count
}

func TestTermDocMatrixShape(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	m := smallModel(t)
	c, err := Generate(m, 12, rng)
	if err != nil {
		t.Fatal(err)
	}
	a := TermDocMatrix(c, CountWeighting)
	if a.Rows() != 30 || a.Cols() != 12 {
		t.Fatalf("matrix %dx%d", a.Rows(), a.Cols())
	}
	// Column sums equal document lengths under count weighting.
	for j, d := range c.Docs {
		var sum float64
		for _, v := range a.Col(j) {
			sum += v
		}
		if int(sum+0.5) != d.Length() {
			t.Fatalf("doc %d: column sum %v != length %d", j, sum, d.Length())
		}
	}
}

func TestWeightingString(t *testing.T) {
	names := map[Weighting]string{
		CountWeighting: "count", BinaryWeighting: "binary",
		LogWeighting: "log", TFIDFWeighting: "tfidf", Weighting(42): "Weighting(42)",
	}
	for w, want := range names {
		if w.String() != want {
			t.Fatalf("String(%d) = %q", int(w), w.String())
		}
	}
}

func TestSynonymModelValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	cfg := SeparableConfig{NumTopics: 2, TermsPerTopic: 5, Epsilon: 0, MinLen: 10, MaxLen: 10}
	if _, _, err := SynonymSeparableModel(cfg, 0, rng); err == nil {
		t.Error("numPairs=0 should error")
	}
	if _, _, err := SynonymSeparableModel(cfg, 3, rng); err == nil {
		t.Error("numPairs>topics should error")
	}
	bad := cfg
	bad.NumTopics = 0
	if _, _, err := SynonymSeparableModel(bad, 1, rng); err == nil {
		t.Error("invalid config should error")
	}
}
