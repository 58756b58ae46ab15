package lsi

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/corpus"
	"repro/internal/svd"
)

// Storing document vectors in float32 perturbs each by a relative 2⁻²⁴,
// far inside the (1 ± ε) angle statements the paper's guarantees are made
// of. On the ε-separable model (16 topics) a float32-stored index and the
// float64 reference built from the same SVD agree: the same top-10
// documents for topical queries, every cosine within 1e-6, and the
// δ-skew of Theorem 2 within 1e-6.
func TestFloat32StorageKeepsPaperFidelity(t *testing.T) {
	const topics, k = 16, 16
	model, err := corpus.PureSeparableModel(corpus.SeparableConfig{
		NumTopics: topics, TermsPerTopic: 40, Epsilon: 0.05, MinLen: 50, MaxLen: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2501))
	c, err := corpus.Generate(model, topics*25, rng)
	if err != nil {
		t.Fatal(err)
	}
	a := corpus.TermDocMatrix(c, corpus.LogWeighting)
	res, err := svd.Randomized(a.Block(), k, svd.RandomizedOptions{Rng: rand.New(rand.NewSource(7))})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := NewIndexFromSVD(res, model.NumTerms)
	if err != nil {
		t.Fatal(err)
	}
	ref := res.DocSpace() // the float64 document matrix ix was narrowed from

	labels := c.Labels()
	stored, wide := ix.Skew(labels), SkewFromGram(GramFromRows(ref), labels)
	if math.Abs(stored-wide) > 1e-6 {
		t.Fatalf("δ-skew %v stored, %v in float64", stored, wide)
	}

	var worst float64
	for topic := 0; topic < topics; topic++ {
		queries, err := corpus.GenerateQueries(model, topic, 3, 8, rng)
		if err != nil {
			t.Fatal(err)
		}
		for qi, q := range queries {
			vec, err := q.Vector(model.NumTerms)
			if err != nil {
				t.Fatal(err)
			}
			pq := ix.Project(vec)
			type scored struct {
				doc   int
				score float64
			}
			want := make([]scored, ref.Rows())
			for j := range want {
				var dot, dn, qn float64
				for i, v := range ref.Row(j) {
					dot, dn, qn = dot+pq[i]*v, dn+v*v, qn+pq[i]*pq[i]
				}
				want[j] = scored{j, dot / math.Sqrt(dn*qn)}
			}
			got := ix.Search(vec, 0)
			for _, m := range got {
				d := math.Abs(m.Score - want[m.Doc].score)
				worst = math.Max(worst, d)
				if d > 1e-6 {
					t.Fatalf("topic %d query %d doc %d: cosine %v stored, %v in float64 (|Δ| %v)",
						topic, qi, m.Doc, m.Score, want[m.Doc].score, d)
				}
			}
			sort.Slice(want, func(i, j int) bool {
				if want[i].score != want[j].score {
					return want[i].score > want[j].score
				}
				return want[i].doc < want[j].doc
			})
			for r := 0; r < 10; r++ {
				if got[r].Doc != want[r].doc {
					t.Fatalf("topic %d query %d rank %d: doc %d stored, %d in float64", topic, qi, r, got[r].Doc, want[r].doc)
				}
			}
		}
	}
	t.Logf("max |Δcos| %.3g over %d queries × %d documents; δ-skew %v stored, %v in float64", worst, 3*topics, ref.Rows(), stored, wide)
}
