package main

import (
	"math"
	"testing"

	"repro/retrieval"
)

// sixDocs is a hand-checked case in a two-dimensional latent space with
// an identity-like basis over three terms: term 0 → axis 0, term 1 →
// axis 1, term 2 → both.
func sixDocs() *oracle {
	o := &oracle{
		basis: [][]float64{{1, 0}, {0, 1}, {1, 1}},
		docs: [][]float64{
			{1, 0},  // d0: on axis 0
			{0, 2},  // d1: on axis 1
			{3, 3},  // d2: the diagonal
			{-1, 0}, // d3: opposite d0
			{2, 0},  // d4: d0's direction, twice as long
			{0, 0},  // d5: empty, scores 0
		},
		ids:   []string{"d0", "d1", "d2", "d3", "d4", "d5"},
		vocab: map[string]int{"a": 0, "b": 1, "c": 2},
	}
	for _, d := range o.docs {
		o.norms = append(o.norms, naiveNorm(d))
	}
	return o
}

func TestOracleHandChecked(t *testing.T) {
	o := sixDocs()
	// "a a zz": a twice (weight 1+ln 2), zz out of vocabulary → the query
	// lies on axis 0, whatever its length.
	all, best := o.top("a a zz", 4)
	r := math.Sqrt2 / 2
	want := []struct {
		id    string
		score float64
	}{{"d0", 1}, {"d4", 1}, {"d2", r}, {"d1", 0}} // d0 before d4 on the tie; d1 before d5
	for i, w := range want {
		if best[i].id != w.id || math.Abs(best[i].score-w.score) > 1e-15 {
			t.Errorf("rank %d = %s %v, want %s %v", i, best[i].id, best[i].score, w.id, w.score)
		}
	}
	if all[3].score != -1 || all[5].score != 0 {
		t.Errorf("d3 scores %v, d5 %v; want -1, 0", all[3].score, all[5].score)
	}

	// "a c": weights 1 and 1 → (1,0) + (1,1) = (2,1).
	_, best = o.top("a c", 2)
	if best[0].id != "d2" || math.Abs(best[0].score-3/math.Sqrt(10)) > 1e-15 {
		t.Errorf("top of \"a c\" = %s %v, want d2 %v", best[0].id, best[0].score, 3/math.Sqrt(10))
	}
	if best[1].id != "d0" || math.Abs(best[1].score-2/math.Sqrt(5)) > 1e-15 {
		t.Errorf("second of \"a c\" = %s %v, want d0 %v", best[1].id, best[1].score, 2/math.Sqrt(5))
	}
}

func TestMatchesOracle(t *testing.T) {
	o := sixDocs()
	all, best := o.top("a", 3)
	served := func(ids ...int) []retrieval.Result {
		out := make([]retrieval.Result, len(ids))
		for i, d := range ids {
			out[i] = retrieval.Result{Doc: d, ID: o.ids[d], Score: all[d].score}
		}
		return out
	}
	if err := matchesOracle(served(0, 4, 2), all, best); err != nil {
		t.Errorf("the exact answer: %v", err)
	}
	if err := matchesOracle(served(4, 0, 2), all, best); err != nil {
		t.Errorf("two documents tied to the last bit may swap: %v", err)
	}
	if err := matchesOracle(served(0, 4, 1), all, best); err == nil {
		t.Error("a worse document in place of a better one passed")
	}
	wrong := served(0, 4, 2)
	wrong[2].Score += 1e-9
	if err := matchesOracle(wrong, all, best); err == nil {
		t.Error("a score 1e-9 off passed")
	}
	if err := matchesOracle(served(0, 4), all, best); err == nil {
		t.Error("a short page passed")
	}
}

func TestStructurallySound(t *testing.T) {
	page := make([]retrieval.Result, topN)
	for i := range page {
		page[i].Score = 1 - float64(i)/100
	}
	if err := structurallySound(page); err != nil {
		t.Fatal(err)
	}
	page[3].Score = 0.99
	if err := structurallySound(page); err == nil {
		t.Error("a page out of order passed")
	}
	if err := structurallySound(page[:5]); err == nil {
		t.Error("a short page passed")
	}
}
