package experiments

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/corpus"
	"repro/internal/lsi"
)

func TestRunLanczosDimAblation(t *testing.T) {
	res, err := RunLanczosDimAblation(17)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows %d", len(res.Rows))
	}
	// Accuracy at the largest p must be excellent; the sweep must be
	// (weakly) improving from the smallest to the largest dimension.
	last := res.Rows[len(res.Rows)-1]
	if last.MaxRelErr > 1e-8 {
		t.Fatalf("p=%d err %v", last.P, last.MaxRelErr)
	}
	first := res.Rows[0]
	if first.MaxRelErr < last.MaxRelErr {
		t.Fatalf("p=k err %v below p=max err %v — sweep inverted?", first.MaxRelErr, last.MaxRelErr)
	}
	if res.Table() == "" {
		t.Fatal("empty table")
	}
}

func TestRunRandomizedParamAblation(t *testing.T) {
	res, err := RunRandomizedParamAblation(17)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("rows %d", len(res.Rows))
	}
	// The heaviest configuration must reach near machine precision; the
	// lightest must still be a usable approximation.
	var best, worst float64
	for _, row := range res.Rows {
		if row.PowerIters == 6 && row.Oversample == 10 {
			best = row.MaxRelErr
		}
		if row.PowerIters == 1 && row.Oversample == 2 {
			worst = row.MaxRelErr
		}
	}
	if best > 1e-8 {
		t.Fatalf("heavy config err %v", best)
	}
	if worst > 0.2 {
		t.Fatalf("light config err %v — not even a rough approximation", worst)
	}
	if best > worst {
		t.Fatal("heavy config worse than light config")
	}
	if res.Table() == "" {
		t.Fatal("empty table")
	}
}

// TestRandomizedIndexMatchesDenseIndex is the paper-fidelity guard on the
// randomized engine's kernels: on a seeded ε-separable corpus (the regime
// of Theorems 2 and 3) an index built with EngineRandomized must retrieve
// what the full Golub–Reinsch SVD retrieves — same top-10 documents for 50
// queries, scores within 1e-9 — and show the same δ-skew to 1e-6.
func TestRandomizedIndexMatchesDenseIndex(t *testing.T) {
	const topics, queriesPerTopic, topN = 5, 10, 10
	model, err := corpus.PureSeparableModel(corpus.SeparableConfig{
		NumTopics: topics, TermsPerTopic: 30, Epsilon: 0.05, MinLen: 40, MaxLen: 80,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	c, err := corpus.Generate(model, 400, rng)
	if err != nil {
		t.Fatal(err)
	}
	a := corpus.TermDocMatrix(c, corpus.CountWeighting)
	dense, err := lsi.Build(a, topics, lsi.Options{Engine: lsi.EngineDense})
	if err != nil {
		t.Fatal(err)
	}
	rz, err := lsi.Build(a, topics, lsi.Options{Engine: lsi.EngineRandomized, Seed: 29})
	if err != nil {
		t.Fatal(err)
	}
	for topic := 0; topic < topics; topic++ {
		qs, err := corpus.GenerateQueries(model, topic, queriesPerTopic, 8, rng)
		if err != nil {
			t.Fatal(err)
		}
		for i := range qs {
			v, err := qs[i].Vector(c.NumTerms)
			if err != nil {
				t.Fatal(err)
			}
			want, got := dense.Search(v, topN), rz.Search(v, topN)
			if len(got) != len(want) {
				t.Fatalf("topic %d query %d: %d results, dense has %d", topic, i, len(got), len(want))
			}
			for r := range want {
				if got[r].Doc != want[r].Doc || math.Abs(got[r].Score-want[r].Score) > 1e-9 {
					t.Fatalf("topic %d query %d rank %d: randomized %+v, dense %+v", topic, i, r, got[r], want[r])
				}
			}
		}
	}
	labels := c.Labels()
	if ds, rs := dense.Skew(labels), rz.Skew(labels); math.Abs(ds-rs) > 1e-6 {
		t.Fatalf("δ-skew: randomized %v, dense %v", rs, ds)
	}
}
