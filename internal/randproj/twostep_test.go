package randproj

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/corpus"
	"repro/internal/lsi"
	"repro/internal/mat"
	"repro/internal/sparse"
	"repro/internal/svd"
)

func corpusMatrix(t *testing.T, topics, termsPer, m int, seed int64) (*sparse.CSR, []int) {
	t.Helper()
	model, err := corpus.PureSeparableModel(corpus.SeparableConfig{
		NumTopics: topics, TermsPerTopic: termsPer, Epsilon: 0.05, MinLen: 40, MaxLen: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := corpus.Generate(model, m, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return corpus.TermDocMatrix(c, corpus.CountWeighting), c.Labels()
}

func TestNewTwoStepValidation(t *testing.T) {
	a, _ := corpusMatrix(t, 2, 10, 12, 201)
	if _, err := NewTwoStep(a, 0, 5, TwoStepOptions{}); err == nil {
		t.Error("k=0 should error")
	}
	if _, err := NewTwoStep(a, 2, 0, TwoStepOptions{}); err == nil {
		t.Error("l=0 should error")
	}
}

func TestTwoStepBasics(t *testing.T) {
	a, _ := corpusMatrix(t, 3, 15, 30, 202)
	ts, err := NewTwoStep(a, 3, 12, TwoStepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ts.Rank() != 6 {
		t.Fatalf("rank = %d, want 2k=6", ts.Rank())
	}
	if ts.NumDocs() != 30 {
		t.Fatalf("NumDocs = %d", ts.NumDocs())
	}
	if n, l := ts.proj.Dims(); n != 45 || l != 12 {
		t.Fatalf("projection dims %d,%d", n, l)
	}
	dv := ts.DocVector(0)
	if len(dv) != 6 {
		t.Fatalf("doc vector length %d", len(dv))
	}
}

func TestTwoStepSelfRetrieval(t *testing.T) {
	a, labels := corpusMatrix(t, 3, 20, 45, 203)
	ts, err := NewTwoStep(a, 3, 30, TwoStepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	correctTop := 0
	topicTop5 := 0
	for j := 0; j < 15; j++ {
		res := ts.Search(a.Col(j), 5)
		if res[0].Doc == j {
			correctTop++
		}
		ok := true
		for _, m := range res {
			if labels[m.Doc] != labels[j] {
				ok = false
			}
		}
		if ok {
			topicTop5++
		}
	}
	// Random projection is lossy, but with l=30 on this small corpus
	// self-retrieval should be nearly perfect.
	if correctTop < 13 {
		t.Fatalf("self-retrieval %d/15", correctTop)
	}
	if topicTop5 < 12 {
		t.Fatalf("topic-pure top-5 only %d/15", topicTop5)
	}
}

func TestTheorem5Bound(t *testing.T) {
	// ‖A−B₂ₖ‖²_F ≤ ‖A−Aₖ‖²_F + 2ε‖A‖²_F. With l comfortably above the JL
	// dimension for ε = 0.5 this must hold on corpus matrices.
	a, _ := corpusMatrix(t, 3, 15, 40, 204)
	k := 3
	eps := 0.5
	l := JLDim(45, eps, 1.0) // ~30 for n=45 — as large as this matrix allows
	if l > 40 {
		l = 40
	}
	ts, err := NewTwoStep(a, k, l, TwoStepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	lhs, direct, frobSq, err := ts.Theorem5Residual(a, k)
	if err != nil {
		t.Fatal(err)
	}
	bound := direct + 2*eps*frobSq
	if lhs > bound {
		t.Fatalf("Theorem 5 violated: ‖A−B₂ₖ‖² = %v > %v (direct %v + 2ε‖A‖² %v)",
			lhs, bound, direct, 2*eps*frobSq)
	}
	// The two-step residual must also not beat the optimal rank-2k
	// residual (sanity: Eckart–Young lower bound applies to B₂ₖ too since
	// rank(B₂ₖ) ≤ 2k).
	if lhs < 0 {
		t.Fatal("negative residual")
	}
}

func TestTwoStepRecoversMostOfAk(t *testing.T) {
	// Quantitative version: the recovered energy ‖A‖²−‖A−B₂ₖ‖² should be a
	// large fraction of the direct-LSI recovered energy ‖Aₖ‖².
	a, _ := corpusMatrix(t, 4, 15, 60, 205)
	k := 4
	ts, err := NewTwoStep(a, k, 40, TwoStepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	lhs, direct, frobSq, err := ts.Theorem5Residual(a, k)
	if err != nil {
		t.Fatal(err)
	}
	recovered := frobSq - lhs
	directRecovered := frobSq - direct // = ‖Aₖ‖²_F
	if recovered < 0.85*directRecovered {
		t.Fatalf("two-step recovered %v of %v (%.2f%%)", recovered, directRecovered,
			100*recovered/directRecovered)
	}
}

func TestTwoStepPreservesTopicStructure(t *testing.T) {
	// The projected rank-2k representation should still be far less skewed
	// than chance: intratopic documents nearly parallel.
	a, labels := corpusMatrix(t, 3, 20, 45, 206)
	ts, err := NewTwoStep(a, 3, 30, TwoStepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	set := lsi.PairAngles(lsi.GramFromRows(ts.DocVectors()), labels)
	intra, inter := set.Summaries()
	if intra.Mean > 0.5 {
		t.Fatalf("two-step intratopic mean angle %v", intra.Mean)
	}
	if inter.Mean < 1.0 {
		t.Fatalf("two-step intertopic mean angle %v", inter.Mean)
	}
}

func TestTwoStepDeterministicSeed(t *testing.T) {
	a, _ := corpusMatrix(t, 2, 10, 16, 207)
	t1, err := NewTwoStep(a, 2, 8, TwoStepOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	t2, err := NewTwoStep(a, 2, 8, TwoStepOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !mat.EqualApprox(t1.DocVectors(), t2.DocVectors(), 0) {
		t.Fatal("same seed produced different two-step indexes")
	}
}

func TestTwoStepRankClamp(t *testing.T) {
	a, _ := corpusMatrix(t, 2, 10, 16, 208)
	ts, err := NewTwoStep(a, 5, 6, TwoStepOptions{}) // 2k=10 > l=6
	if err != nil {
		t.Fatal(err)
	}
	if ts.Rank() > 6 {
		t.Fatalf("rank %d exceeds projection dimension", ts.Rank())
	}
}

func TestTwoStepApproxMatrixRank(t *testing.T) {
	// rank(B₂ₖ) ≤ 2k: verify via Frobenius comparison after projecting onto
	// the top-2k right singular vectors of B₂ₖ itself.
	a, _ := corpusMatrix(t, 2, 8, 14, 209)
	k := 2
	ts, err := NewTwoStep(a, k, 10, TwoStepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b2k := ts.ApproxMatrix(a)
	// Column space dimension check: b2k = (A·V)·Vᵀ has rank ≤ 2k by
	// construction; verify numerically with the Gram trick.
	g := mat.MulT(b2k, b2k)
	d, _, err := svd.SymEigen(g)
	if err != nil {
		t.Fatal(err)
	}
	nonzero := 0
	for _, v := range d {
		if v > 1e-8*(1+d[0]) {
			nonzero++
		}
	}
	if nonzero > 2*k {
		t.Fatalf("B₂ₖ rank %d > 2k = %d", nonzero, 2*k)
	}
	if math.IsNaN(b2k.Frob()) {
		t.Fatal("NaN in approximation")
	}
}
